//===- FormatTests.cpp - Multi-format storage conversion tests --------------===//
//
// Converter round-trip properties (CSR -> {ELL, SELL, HYB, CSC} -> CSR is
// exact; ELL is the single-slice SELL), hybrid overflow-threshold edge
// cases, format-tag parsing, and GRANII_CHECK death tests on malformed
// inputs. The cross-format numeric agreement of the kernels themselves
// lives in DifferentialTests.
//
//===----------------------------------------------------------------------===//

#include "kernels/FormatKernels.h"
#include "support/Rng.h"
#include "tensor/CooMatrix.h"
#include "tensor/CscMatrix.h"
#include "tensor/HybMatrix.h"
#include "tensor/SellMatrix.h"
#include "tensor/SparseFormat.h"

#include <gtest/gtest.h>

#include <algorithm>
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

/// The fixture family the ISSUE names: empty, diagonal, one dense row, and
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
    Rng R(321); // > DefaultSliceHeight rows so SELL gets several slices
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
  for (SparseFormat F :
       {SparseFormat::Csr, SparseFormat::Ell, SparseFormat::Sell,
        SparseFormat::Hyb, SparseFormat::Csc, SparseFormat::Auto}) {
    std::optional<SparseFormat> Back = parseSparseFormat(sparseFormatName(F));
    ASSERT_TRUE(Back.has_value()) << sparseFormatName(F);
    EXPECT_EQ(*Back, F);
  }
  EXPECT_FALSE(parseSparseFormat("coo").has_value());
  EXPECT_FALSE(parseSparseFormat("").has_value());
  EXPECT_FALSE(parseSparseFormat("CSR").has_value()); // names are lowercase
}

TEST(SparseFormatTest, ForwardFormatsAreTheExecutableOnes) {
  auto Fwd = forwardSparseFormats();
  EXPECT_EQ(std::count(Fwd.begin(), Fwd.end(), SparseFormat::Csr), 1);
  EXPECT_EQ(std::count(Fwd.begin(), Fwd.end(), SparseFormat::Ell), 1);
  EXPECT_EQ(std::count(Fwd.begin(), Fwd.end(), SparseFormat::Sell), 1);
  EXPECT_EQ(std::count(Fwd.begin(), Fwd.end(), SparseFormat::Hyb), 1);
  // CSC is backward-only and Auto is a request, not a storage layout.
  EXPECT_EQ(std::count(Fwd.begin(), Fwd.end(), SparseFormat::Csc), 0);
  EXPECT_EQ(std::count(Fwd.begin(), Fwd.end(), SparseFormat::Auto), 0);
}

//===----------------------------------------------------------------------===//
// Converter round trips: CSR -> X -> CSR is exact on every fixture
//===----------------------------------------------------------------------===//

TEST(FormatRoundTrip, EllIsExact) {
  for (const Fixture &F : makeFixtures()) {
    SCOPED_TRACE(F.Name);
    SellMatrix E = SellMatrix::fromCsr(F.A, F.A.rows()); // one slice
    E.verify();
    EXPECT_LE(E.numSlices(), 1);
    EXPECT_EQ(E.nnz(), F.A.nnz());
    expectCsrEqual(E.toCsr(F.A.values()), F.A);
  }
}

TEST(FormatRoundTrip, SellIsExact) {
  for (const Fixture &F : makeFixtures()) {
    SCOPED_TRACE(F.Name);
    SellMatrix S = SellMatrix::fromCsr(F.A);
    S.verify();
    EXPECT_EQ(S.nnz(), F.A.nnz());
    EXPECT_GE(S.paddedSize(), S.nnz());
    expectCsrEqual(S.toCsr(F.A.values()), F.A);
  }
}

TEST(FormatRoundTrip, HybIsExact) {
  for (const Fixture &F : makeFixtures()) {
    SCOPED_TRACE(F.Name);
    HybMatrix H = HybMatrix::fromCsr(F.A);
    H.verify();
    EXPECT_EQ(H.nnz(), F.A.nnz());
    expectCsrEqual(H.toCsr(F.A.values()), F.A);
  }
}

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
  expectCsrEqual(SellMatrix::fromCsr(A, A.rows()).toCsr(), A);
  expectCsrEqual(SellMatrix::fromCsr(A).toCsr(), A);
  expectCsrEqual(HybMatrix::fromCsr(A).toCsr(), A);
  expectCsrEqual(CscMatrix::fromCsr(A).toCsr(), A);
}

//===----------------------------------------------------------------------===//
// Structural properties of the conversions
//===----------------------------------------------------------------------===//

TEST(FormatStructure, EllWidthIsMaxRowLength) {
  CooMatrix Coo(4, 8);
  Coo.add(0, 1);
  Coo.add(1, 0);
  Coo.add(1, 2);
  Coo.add(1, 5); // row 1 is longest: 3 entries
  CsrMatrix A = Coo.toCsr();
  SellMatrix E = SellMatrix::fromCsr(A, A.rows()); // ELL: one slice
  ASSERT_EQ(E.numSlices(), 1);
  EXPECT_EQ(E.sliceWidth(0), 3);
  EXPECT_EQ(static_cast<int64_t>(E.colIndices().size()), 4 * 3);
  // Row 3 is empty: all padding.
  for (int64_t K = 0; K < E.sliceWidth(0); ++K)
    EXPECT_EQ(E.rowColsPtr(3)[K], -1);
}

TEST(FormatStructure, SellSlicesPadIndependently) {
  // 64 rows = two slices. Slice 0 holds the single long row; slice 1 is
  // one-entry-per-row, so its width must stay 1 regardless of slice 0.
  CooMatrix Coo(64, 64);
  for (int64_t J = 0; J < 20; ++J)
    Coo.add(0, J);
  for (int64_t I = 32; I < 64; ++I)
    Coo.add(I, I % 64);
  SellMatrix S = SellMatrix::fromCsr(Coo.toCsr());
  ASSERT_EQ(S.numSlices(), 2);
  EXPECT_EQ(S.sliceWidth(0), 20);
  EXPECT_EQ(S.sliceWidth(1), 1);
  EXPECT_LT(S.paddedSize(),
            S.rows() * S.sliceWidth(0)); // cheaper than plain ELL
}

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

//===----------------------------------------------------------------------===//
// Hybrid overflow-threshold edge cases
//===----------------------------------------------------------------------===//

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

TEST(HybThreshold, WidthAtMaxRowLengthIsPureEll) {
  CsrMatrix A = skewedFixture();
  HybMatrix H = HybMatrix::fromCsr(A, /*EllWidth=*/8);
  H.verify();
  EXPECT_EQ(H.ellWidth(), 8);
  EXPECT_EQ(H.cooNnz(), 0);
  expectCsrEqual(H.toCsr(A.values()), A);
}

TEST(HybThreshold, WidthZeroIsPureCoo) {
  CsrMatrix A = skewedFixture();
  HybMatrix H = HybMatrix::fromCsr(A, /*EllWidth=*/0);
  H.verify();
  EXPECT_EQ(H.ellWidth(), 0);
  EXPECT_EQ(H.cooNnz(), A.nnz());
  EXPECT_TRUE(H.ellCols().empty());
  expectCsrEqual(H.toCsr(A.values()), A);
}

TEST(HybThreshold, SingleLongRowSpillsOnlyItsTail) {
  CsrMatrix A = skewedFixture();
  HybMatrix H = HybMatrix::fromCsr(A, /*EllWidth=*/1);
  H.verify();
  // Every row keeps its first entry in ELL; only row 0's remaining 7 spill.
  EXPECT_EQ(H.cooNnz(), 7);
  EXPECT_EQ(H.cooRowOffsets()[1] - H.cooRowOffsets()[0], 7);
  for (int64_t R = 1; R < H.rows(); ++R)
    EXPECT_EQ(H.cooRowOffsets()[R + 1], H.cooRowOffsets()[R]);
  expectCsrEqual(H.toCsr(A.values()), A);
}

TEST(HybThreshold, DefaultWidthCoversRegularGraphsEntirely) {
  CooMatrix Coo(12, 12); // constant degree 2: mean == max, nothing spills
  for (int64_t I = 0; I < 12; ++I) {
    Coo.add(I, (I + 1) % 12);
    Coo.add(I, (I + 5) % 12);
  }
  HybMatrix H = HybMatrix::fromCsr(Coo.toCsr());
  EXPECT_EQ(H.cooNnz(), 0);
  EXPECT_EQ(H.ellWidth(), 2);
}

TEST(HybThreshold, EveryWidthRoundTrips) {
  CsrMatrix A = skewedFixture();
  for (int64_t W = 0; W <= 9; ++W) {
    SCOPED_TRACE(W);
    HybMatrix H = HybMatrix::fromCsr(A, W);
    H.verify();
    EXPECT_EQ(H.cooNnz() + (H.nnz() - H.cooNnz()), A.nnz());
    expectCsrEqual(H.toCsr(A.values()), A);
  }
}

//===----------------------------------------------------------------------===//
// Malformed-input death tests (GRANII_CHECK is always on)
//===----------------------------------------------------------------------===//

TEST(FormatDeathTest, ToCsrRejectsWrongValueCount) {
  CsrMatrix A = skewedFixture();
  std::vector<float> Short(static_cast<size_t>(A.nnz() - 1), 1.0f);
  EXPECT_DEATH(SellMatrix::fromCsr(A, A.rows()).toCsr(Short),
               "sell->csr value count mismatch");
  EXPECT_DEATH(SellMatrix::fromCsr(A).toCsr(Short),
               "sell->csr value count mismatch");
  EXPECT_DEATH(HybMatrix::fromCsr(A).toCsr(Short),
               "hyb->csr value count mismatch");
  EXPECT_DEATH(CscMatrix::fromCsr(A).toCsr(Short),
               "csc->csr value count mismatch");
}

TEST(FormatDeathTest, HybRejectsNegativeWidth) {
  CsrMatrix A = skewedFixture();
  EXPECT_DEATH(HybMatrix::fromCsr(A, -1), "hyb ELL width must be non-negative");
}

TEST(FormatDeathTest, KernelsRejectShapeMismatches) {
  CsrMatrix A = skewedFixture(); // 10 x 10
  DenseMatrix B(9, 4);           // wrong inner dimension
  DenseMatrix Dst(10, 4);
  EXPECT_DEATH(kernels::spmmSellInto(SellMatrix::fromCsr(A), A.values(), B,
                                     Semiring::plusTimes(), Dst),
               "spmm_sell dimension mismatch");
  EXPECT_DEATH(kernels::spmmHybInto(HybMatrix::fromCsr(A), A.values(), B,
                                    Semiring::plusTimes(), Dst),
               "spmm_hyb dimension mismatch");
}

TEST(FormatDeathTest, SddmmRejectsWrongOutputLength) {
  CsrMatrix A = skewedFixture();
  DenseMatrix U(10, 3), V(10, 3);
  std::vector<float> Out(static_cast<size_t>(A.nnz() + 1));
  EXPECT_DEATH(kernels::sddmmSellInto(SellMatrix::fromCsr(A), U, V,
                                      Semiring::plusTimes(), Out),
               "sddmm_sell destination length mismatch");
}
