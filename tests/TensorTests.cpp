//===- TensorTests.cpp - Tests for dense/sparse matrix types ----------------===//

#include "support/Rng.h"
#include "tensor/CooMatrix.h"
#include "tensor/CsrMatrix.h"
#include "tensor/DenseMatrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace granii;

TEST(DenseMatrix, ZeroInitialized) {
  DenseMatrix M(3, 4);
  for (int64_t R = 0; R < 3; ++R)
    for (int64_t C = 0; C < 4; ++C)
      EXPECT_EQ(M.at(R, C), 0.0f);
}

TEST(DenseMatrix, FillAndSum) {
  DenseMatrix M(2, 5);
  M.fill(2.0f);
  EXPECT_DOUBLE_EQ(M.sum(), 20.0);
}

TEST(DenseMatrix, TransposeRoundTrip) {
  Rng R(3);
  DenseMatrix M(4, 7);
  M.fillRandom(R);
  DenseMatrix Back = M.transposed().transposed();
  EXPECT_TRUE(Back.approxEquals(M, 0.0f, 0.0f));
}

TEST(DenseMatrix, TransposeElementMapping) {
  DenseMatrix M(2, 3);
  M.at(0, 2) = 5.0f;
  DenseMatrix T = M.transposed();
  EXPECT_EQ(T.rows(), 3);
  EXPECT_EQ(T.cols(), 2);
  EXPECT_EQ(T.at(2, 0), 5.0f);
}

TEST(DenseMatrix, ApproxEqualsShapeMismatch) {
  EXPECT_FALSE(DenseMatrix(2, 2).approxEquals(DenseMatrix(2, 3)));
}

TEST(DenseMatrix, MaxAbsDiff) {
  DenseMatrix A(2, 2), B(2, 2);
  B.at(1, 1) = 3.0f;
  EXPECT_FLOAT_EQ(A.maxAbsDiff(B), 3.0f);
}

TEST(DenseMatrix, FrobeniusNorm) {
  DenseMatrix M(1, 2);
  M.at(0, 0) = 3.0f;
  M.at(0, 1) = 4.0f;
  EXPECT_NEAR(M.frobeniusNorm(), 5.0, 1e-9);
}

TEST(CooMatrix, MergesDuplicates) {
  CooMatrix Coo(3, 3);
  Coo.add(0, 1, 1.0f);
  Coo.add(0, 1, 2.0f);
  Coo.add(2, 2, 1.0f);
  CsrMatrix Csr = Coo.toCsr(/*Unweighted=*/false);
  EXPECT_EQ(Csr.nnz(), 2);
  EXPECT_FLOAT_EQ(Csr.values()[0], 3.0f);
}

TEST(CooMatrix, SymmetricAddsBothDirections) {
  CooMatrix Coo(4, 4);
  Coo.addSymmetric(1, 2);
  CsrMatrix Csr = Coo.toCsr();
  EXPECT_EQ(Csr.nnz(), 2);
  EXPECT_EQ(Csr.rowNnz(1), 1);
  EXPECT_EQ(Csr.rowNnz(2), 1);
}

TEST(CooMatrix, SymmetricDiagonalAddedOnce) {
  CooMatrix Coo(3, 3);
  Coo.addSymmetric(1, 1);
  EXPECT_EQ(Coo.toCsr().nnz(), 1);
}

TEST(CooMatrix, SortedColumnsWithinRows) {
  CooMatrix Coo(2, 5);
  Coo.add(0, 4);
  Coo.add(0, 1);
  Coo.add(0, 3);
  CsrMatrix Csr = Coo.toCsr();
  Csr.verify(); // Verifies strictly increasing columns.
  EXPECT_EQ(Csr.colIndices()[0], 1);
  EXPECT_EQ(Csr.colIndices()[2], 4);
}

namespace {

/// One COO triple, in insertion order.
struct Triple {
  int64_t Row, Col;
  float Value;
};

/// The sort-based builder toCsr replaced: a stable (row, col) sort of the
/// triples, then a left-to-right merge of duplicates, so they sum in
/// insertion order.
CsrMatrix referenceCsr(int64_t Rows, int64_t Cols,
                       const std::vector<Triple> &Ts, bool Unweighted) {
  std::vector<size_t> Order(Ts.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Ts[A].Row != Ts[B].Row ? Ts[A].Row < Ts[B].Row
                                  : Ts[A].Col < Ts[B].Col;
  });
  AlignedVector<int64_t> Offsets(static_cast<size_t>(Rows) + 1, 0);
  AlignedVector<int32_t> Idx;
  AlignedVector<float> Vals;
  for (size_t K = 0; K < Order.size(); ++K) {
    const Triple &T = Ts[Order[K]];
    if (K > 0 && Ts[Order[K - 1]].Row == T.Row &&
        Ts[Order[K - 1]].Col == T.Col) {
      Vals.back() += T.Value;
      continue;
    }
    Idx.push_back(static_cast<int32_t>(T.Col));
    Vals.push_back(T.Value);
    ++Offsets[static_cast<size_t>(T.Row) + 1];
  }
  for (size_t R = 0; R < static_cast<size_t>(Rows); ++R)
    Offsets[R + 1] += Offsets[R];
  if (Unweighted)
    Vals.clear();
  return CsrMatrix(Rows, Cols, std::move(Offsets), std::move(Idx),
                   std::move(Vals));
}

template <typename T>
bool sameBytes(const AlignedVector<T> &A, const AlignedVector<T> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(T)) == 0);
}

} // namespace

TEST(CooMatrix, CountingSortMatchesSortBasedReference) {
  Rng R(2024);
  auto Below = [&](int64_t N) {
    return static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(N)));
  };
  for (int Trial = 0; Trial < 60; ++Trial) {
    const int64_t Rows = 1 + Below(40);
    const int64_t Cols = Trial % 3 == 0 ? Rows : 1 + Below(40);
    // Few distinct coordinates per row: duplicates are common, and rows
    // beyond the drawn range stay empty.
    const int64_t UsedRows = 1 + Below(Rows);
    const int64_t Count = Below(200);
    const bool Weighted = Trial % 2 == 0;
    CooMatrix Coo(Rows, Cols);
    std::vector<Triple> Ts;
    for (int64_t I = 0; I < Count; ++I) {
      const int64_t Row = Below(UsedRows);
      int64_t Col = Below(std::min<int64_t>(Cols, 6));
      if (I % 7 == 0 && Row < Cols)
        Col = Row; // diagonal entries
      const float V = Weighted ? R.nextFloat(-4.0f, 4.0f) : 1.0f;
      if (Rows == Cols && I % 5 == 0) {
        Coo.addSymmetric(Row, Col, V);
        Ts.push_back({Row, Col, V});
        if (Row != Col)
          Ts.push_back({Col, Row, V});
        continue;
      }
      Coo.add(Row, Col, V);
      Ts.push_back({Row, Col, V});
    }
    for (bool Unweighted : {true, false}) {
      CsrMatrix Got = Coo.toCsr(Unweighted);
      CsrMatrix Want = referenceCsr(Rows, Cols, Ts, Unweighted);
      Got.verify();
      EXPECT_TRUE(sameBytes(Got.rowOffsets(), Want.rowOffsets()))
          << "trial " << Trial;
      EXPECT_TRUE(sameBytes(Got.colIndices(), Want.colIndices()))
          << "trial " << Trial;
      EXPECT_TRUE(sameBytes(Got.values(), Want.values()))
          << "trial " << Trial;
    }
  }
}

TEST(CooMatrix, DuplicatesSumInInsertionOrder) {
  // Float addition is not associative here: (1e8 + 1) - 1e8 is 0 in
  // float, while 1e8 - 1e8 + 1 is 1. Other rows' entries are interleaved
  // so the scatter has to keep the order within the row.
  CooMatrix Coo(3, 3);
  Coo.add(1, 2, 1e8f);
  Coo.add(0, 0, 5.0f);
  Coo.add(1, 2, 1.0f);
  Coo.add(2, 1, 7.0f);
  Coo.add(1, 0, 3.0f);
  Coo.add(1, 2, -1e8f);
  CsrMatrix Csr = Coo.toCsr(/*Unweighted=*/false);
  ASSERT_EQ(Csr.rowNnz(1), 2);
  EXPECT_EQ(Csr.colIndices()[2], 2);
  EXPECT_EQ(Csr.values()[2], (1e8f + 1.0f) + -1e8f);
  EXPECT_EQ(Csr.values()[2], 0.0f);

  CooMatrix Reversed(3, 3);
  Reversed.add(1, 2, 1e8f);
  Reversed.add(1, 2, -1e8f);
  Reversed.add(1, 2, 1.0f);
  EXPECT_EQ(Reversed.toCsr(/*Unweighted=*/false).values()[0], 1.0f);
}

TEST(CooMatrix, DefaultUnitValuesMixWithExplicitOnes) {
  CooMatrix Coo(2, 2);
  Coo.add(0, 0);
  Coo.add(0, 1);
  Coo.add(1, 0, 2.5f);
  Coo.add(0, 1);
  CsrMatrix Csr = Coo.toCsr(/*Unweighted=*/false);
  ASSERT_EQ(Csr.nnz(), 3);
  EXPECT_EQ(Csr.values()[0], 1.0f);
  EXPECT_EQ(Csr.values()[1], 2.0f); // the duplicate (0, 1) merged
  EXPECT_EQ(Csr.values()[2], 2.5f);
}

TEST(CsrMatrix, UnweightedValueIsOne) {
  CooMatrix Coo(2, 2);
  Coo.add(0, 1);
  CsrMatrix Csr = Coo.toCsr();
  EXPECT_FALSE(Csr.isWeighted());
  EXPECT_FLOAT_EQ(Csr.valueAt(0), 1.0f);
}

TEST(CsrMatrix, SetValuesMakesWeighted) {
  CooMatrix Coo(2, 2);
  Coo.add(0, 1);
  Coo.add(1, 0);
  CsrMatrix Csr = Coo.toCsr();
  Csr.setValues({2.0f, 3.0f});
  EXPECT_TRUE(Csr.isWeighted());
  EXPECT_FLOAT_EQ(Csr.valueAt(1), 3.0f);
  Csr.clearValues();
  EXPECT_FALSE(Csr.isWeighted());
}

TEST(CsrMatrix, ToDenseMatchesEntries) {
  CooMatrix Coo(2, 3);
  Coo.add(0, 2, 4.0f);
  Coo.add(1, 0, -1.0f);
  DenseMatrix D = Coo.toCsr(/*Unweighted=*/false).toDense();
  EXPECT_FLOAT_EQ(D.at(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(D.at(1, 0), -1.0f);
  EXPECT_FLOAT_EQ(D.at(0, 0), 0.0f);
}

TEST(CsrMatrix, TransposeMatchesDenseTranspose) {
  Rng R(17);
  CooMatrix Coo(6, 6);
  for (int I = 0; I < 12; ++I)
    Coo.add(static_cast<int64_t>(R.nextBelow(6)),
            static_cast<int64_t>(R.nextBelow(6)), R.nextFloat(0.f, 1.f));
  CsrMatrix Csr = Coo.toCsr(/*Unweighted=*/false);
  DenseMatrix Expected = Csr.toDense().transposed();
  DenseMatrix Actual = Csr.transposed().toDense();
  EXPECT_TRUE(Actual.approxEquals(Expected, 1e-6f, 1e-6f));
}

TEST(CsrMatrix, TransposePreservesNnzAndUnweightedness) {
  CooMatrix Coo(3, 5);
  Coo.add(0, 4);
  Coo.add(2, 1);
  CsrMatrix T = Coo.toCsr().transposed();
  EXPECT_EQ(T.rows(), 5);
  EXPECT_EQ(T.cols(), 3);
  EXPECT_EQ(T.nnz(), 2);
  EXPECT_FALSE(T.isWeighted());
}

TEST(CsrMatrix, EmptyMatrixIsValid) {
  CsrMatrix Empty;
  EXPECT_EQ(Empty.rows(), 0);
  EXPECT_EQ(Empty.nnz(), 0);
  Empty.verify();
}

