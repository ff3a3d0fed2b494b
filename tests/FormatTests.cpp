//===- FormatTests.cpp - Sparse format tags and the CSC view --------------===//
//
// Format-tag parsing (csr and auto are the only names; the removed ELL,
// sliced-ELL and hybrid names and the internal csc are rejected), the CSC
// view's round trip and entry order (CSR -> CSC -> CSR is exact; column c
// lists row c of the transpose in order), and GRANII_CHECK death tests on
// malformed inputs. The numeric agreement of the CSC backward kernel with
// the transpose-then-SpMM path lives in DifferentialTests.
//
//===----------------------------------------------------------------------===//

#include "kernels/Dispatch.h"
#include "kernels/Kernels.h"
#include "support/Rng.h"
#include "tensor/CooMatrix.h"
#include "tensor/CscMatrix.h"
#include "tensor/SparseFormat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

using namespace granii;

namespace {

/// Structural + value equality of two CSR matrices (bitwise on values).
void expectCsrEqual(const CsrMatrix &A, const CsrMatrix &B) {
  ASSERT_EQ(A.rows(), B.rows());
  ASSERT_EQ(A.cols(), B.cols());
  ASSERT_EQ(A.nnz(), B.nnz());
  EXPECT_TRUE(std::equal(A.rowOffsets().begin(), A.rowOffsets().end(),
                         B.rowOffsets().begin()));
  EXPECT_TRUE(std::equal(A.colIndices().begin(), A.colIndices().end(),
                         B.colIndices().begin()));
  ASSERT_EQ(A.values().size(), B.values().size());
  EXPECT_TRUE(
      std::equal(A.values().begin(), A.values().end(), B.values().begin()));
}

/// The fixture family: empty, rectangular-empty, diagonal, one dense row, and
/// a skewed (hub-and-spokes plus ring) structure.
struct Fixture {
  std::string Name;
  CsrMatrix A;
};

std::vector<Fixture> makeFixtures() {
  std::vector<Fixture> Out;
  Out.push_back({"empty-0x0", CsrMatrix()});
  {
    CooMatrix Coo(5, 7); // rectangular, no entries at all
    Out.push_back({"empty-5x7", Coo.toCsr()});
  }
  {
    CooMatrix Coo(6, 6);
    for (int64_t I = 0; I < 6; ++I)
      Coo.add(I, I, 0.5f + static_cast<float>(I));
    Out.push_back({"diagonal", Coo.toCsr(/*Unweighted=*/false)});
  }
  {
    CooMatrix Coo(8, 8); // row 3 is fully dense, everything else empty
    for (int64_t J = 0; J < 8; ++J)
      Coo.add(3, J, static_cast<float>(J + 1));
    Out.push_back({"dense-row", Coo.toCsr(/*Unweighted=*/false)});
  }
  {
    CooMatrix Coo(16, 16); // hub row 0 touches everyone, plus a ring
    for (int64_t J = 1; J < 16; ++J)
      Coo.add(0, J, 1.0f / static_cast<float>(J));
    for (int64_t I = 1; I < 16; ++I)
      Coo.add(I, (I + 1) % 16, 2.0f);
    Out.push_back({"skewed-hub", Coo.toCsr(/*Unweighted=*/false)});
  }
  {
    Rng R(321);
    CooMatrix Coo(100, 100);
    for (int64_t I = 0; I < 700; ++I)
      Coo.add(static_cast<int64_t>(R.nextBelow(100)),
              static_cast<int64_t>(R.nextBelow(100)),
              R.nextFloat(0.1f, 1.0f));
    Out.push_back({"random-100", Coo.toCsr(/*Unweighted=*/false)});
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Format tag parsing
//===----------------------------------------------------------------------===//

TEST(SparseFormatTest, NamesRoundTripThroughParse) {
  for (SparseFormat F : {SparseFormat::Csr, SparseFormat::Auto}) {
    std::optional<SparseFormat> Back = parseSparseFormat(sparseFormatName(F));
    ASSERT_TRUE(Back.has_value()) << sparseFormatName(F);
    EXPECT_EQ(*Back, F);
  }
  // Removed storage formats and the backward-only CSC view are not names.
  for (const char *Removed : {"ell", "sell", "hyb", "csc"})
    EXPECT_FALSE(parseSparseFormat(Removed).has_value()) << Removed;
  EXPECT_FALSE(parseSparseFormat("coo").has_value());
  EXPECT_FALSE(parseSparseFormat("").has_value());
  EXPECT_FALSE(parseSparseFormat("CSR").has_value()); // names are lowercase
}

TEST(SparseFormatTest, ForwardFormatsAreTheExecutableOnes) {
  // CSR is the one storage layout; Auto is a request, not a layout.
  EXPECT_EQ(forwardSparseFormats(),
            std::vector<SparseFormat>{SparseFormat::Csr});
}

//===----------------------------------------------------------------------===//
// Converter round trips: CSR -> X -> CSR is exact on every fixture
//===----------------------------------------------------------------------===//

TEST(FormatRoundTrip, CscIsExact) {
  for (const Fixture &F : makeFixtures()) {
    SCOPED_TRACE(F.Name);
    CscMatrix C = CscMatrix::fromCsr(F.A);
    C.verify();
    EXPECT_EQ(C.nnz(), F.A.nnz());
    expectCsrEqual(C.toCsr(F.A.values()), F.A);
  }
}

TEST(FormatRoundTrip, UnweightedStaysUnweighted) {
  CooMatrix Coo(10, 10);
  Rng R(11);
  for (int64_t I = 0; I < 40; ++I)
    Coo.add(static_cast<int64_t>(R.nextBelow(10)),
            static_cast<int64_t>(R.nextBelow(10)));
  CsrMatrix A = Coo.toCsr(); // structural: values() is empty
  ASSERT_TRUE(A.values().empty());
  expectCsrEqual(CscMatrix::fromCsr(A).toCsr(), A);
}

//===----------------------------------------------------------------------===//
// Structural properties of the conversions
//===----------------------------------------------------------------------===//

TEST(FormatStructure, CscColumnsMatchTransposedCsr) {
  Rng R(77);
  CooMatrix Coo(30, 30);
  for (int64_t I = 0; I < 150; ++I)
    Coo.add(static_cast<int64_t>(R.nextBelow(30)),
            static_cast<int64_t>(R.nextBelow(30)), R.nextFloat(0.1f, 1.0f));
  CsrMatrix A = Coo.toCsr(/*Unweighted=*/false);
  CscMatrix C = CscMatrix::fromCsr(A);
  CsrMatrix T = A.transposed();
  // Column c of the CSC view is row c of A^T, in the same entry order.
  ASSERT_TRUE(
      std::equal(C.colOffsets().begin(), C.colOffsets().end(),
                 T.rowOffsets().begin()));
  EXPECT_TRUE(std::equal(C.rowIndices().begin(), C.rowIndices().end(),
                         T.colIndices().begin()));
  for (int64_t K = 0; K < C.nnz(); ++K)
    EXPECT_EQ(A.values()[static_cast<size_t>(C.csrIndices()[K])],
              T.values()[static_cast<size_t>(K)]);
}

// The backward kernel walks the CSC view and must give the bits of the
// transpose-then-SpMM product at every ISA level, weighted and with unit
// weights.
TEST(FormatStructure, CscTransposedSpmmMatchesTransposedCsrBitwise) {
  const kernels::IsaLevel Entry = kernels::activeIsaLevel();
  Rng R(91);
  CooMatrix Coo(40, 30);
  for (int64_t I = 0; I < 260; ++I)
    Coo.add(static_cast<int64_t>(R.nextBelow(40)),
            static_cast<int64_t>(R.nextBelow(30)), R.nextFloat(-1.0f, 1.0f));
  CsrMatrix A = Coo.toCsr(/*Unweighted=*/false);
  CscMatrix C = CscMatrix::fromCsr(A);
  CsrMatrix T = A.transposed();
  DenseMatrix B(40, 19);
  for (int64_t I = 0; I < B.rows(); ++I)
    for (int64_t J = 0; J < B.cols(); ++J)
      B.rowPtr(I)[J] = R.nextFloat(-2.0f, 2.0f);
  for (kernels::IsaLevel Level : kernels::supportedIsaLevels()) {
    EXPECT_TRUE(kernels::setIsaLevel(Level));
    for (bool Weighted : {true, false}) {
      SCOPED_TRACE(std::string(kernels::isaLevelName(Level)) +
                   (Weighted ? " weighted" : " unit weights"));
      const std::span<const float> TVals =
          Weighted ? std::span<const float>(T.values())
                   : std::span<const float>();
      const std::span<const float> AVals =
          Weighted ? std::span<const float>(A.values())
                   : std::span<const float>();
      DenseMatrix Want(30, 19), Got(30, 19);
      kernels::spmmInto(T, TVals, B, Want);
      kernels::spmmCscTransposedInto(C, AVals, B, Got);
      EXPECT_EQ(std::memcmp(Want.data(), Got.data(),
                            sizeof(float) * static_cast<size_t>(30 * 19)),
                0);
    }
  }
  kernels::setIsaLevel(Entry);
}

namespace {

CsrMatrix skewedFixture() {
  CooMatrix Coo(10, 10); // row 0 has 8 entries, rows 1..9 have one each
  for (int64_t J = 1; J < 9; ++J)
    Coo.add(0, J, static_cast<float>(J));
  for (int64_t I = 1; I < 10; ++I)
    Coo.add(I, I - 1, 1.0f);
  return Coo.toCsr(/*Unweighted=*/false);
}

} // namespace

//===----------------------------------------------------------------------===//
// Malformed-input death tests (GRANII_CHECK is always on)
//===----------------------------------------------------------------------===//

TEST(FormatDeathTest, ToCsrRejectsWrongValueCount) {
  CsrMatrix A = skewedFixture();
  std::vector<float> Short(static_cast<size_t>(A.nnz() - 1), 1.0f);
  EXPECT_DEATH(CscMatrix::fromCsr(A).toCsr(Short),
               "csc->csr value count mismatch");
}

TEST(FormatDeathTest, KernelsRejectShapeMismatches) {
  CsrMatrix A = skewedFixture(); // 10 x 10
  DenseMatrix B(9, 4);           // wrong row count for A^T (x) B
  DenseMatrix Dst(10, 4);
  CscMatrix C = CscMatrix::fromCsr(A);
  EXPECT_DEATH(kernels::spmmCscTransposedInto(C, A.values(), B, Dst),
               "spmm_csc_t dimension mismatch");
  std::vector<float> Short(static_cast<size_t>(A.nnz() - 1), 1.0f);
  DenseMatrix B10(10, 4);
  EXPECT_DEATH(kernels::spmmCscTransposedInto(C, Short, B10, Dst),
               "spmm_csc_t edge value count mismatch");
}
