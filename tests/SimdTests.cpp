//===- SimdTests.cpp - Runtime ISA dispatch and SIMD kernel tests -----------===//
//
// Covers the kernel dispatch layer (src/kernels/Dispatch.h): level parsing
// and naming, CPUID-bounded level enumeration, the setIsaLevel override,
// table completeness, the 64-byte alignment contract of the tensor storage,
// and cross-ISA agreement of every dispatched kernel family on fixtures
// whose shapes exercise both the vector bodies and the scalar tails.
//
//===----------------------------------------------------------------------===//

#include "kernels/Dispatch.h"
#include "kernels/Kernels.h"
#include "support/Aligned.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "tensor/CooMatrix.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

using namespace granii;
using kernels::IsaLevel;

namespace {

/// Restores the entry ISA level even when an ASSERT unwinds the test body.
struct IsaLevelGuard {
  IsaLevel Entry = kernels::activeIsaLevel();
  ~IsaLevelGuard() { kernels::setIsaLevel(Entry); }
};

DenseMatrix randomDense(int64_t Rows, int64_t Cols, uint64_t Seed) {
  Rng R(Seed);
  DenseMatrix M(Rows, Cols);
  M.fillRandom(R, -1.0f, 1.0f);
  return M;
}

CsrMatrix randomSparse(int64_t Rows, int64_t Cols, int64_t Entries,
                       uint64_t Seed, bool Weighted) {
  Rng R(Seed);
  CooMatrix Coo(Rows, Cols);
  for (int64_t I = 0; I < Entries; ++I)
    Coo.add(static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(Rows))),
            static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(Cols))),
            R.nextFloat(0.1f, 1.0f));
  return Coo.toCsr(!Weighted);
}

/// C = A^T * B through the chunked kernel, with a fresh partials buffer.
void gemmTLhs(const DenseMatrix &A, const DenseMatrix &B, DenseMatrix &C) {
  std::vector<float> Partials(
      kernels::gemmTransposedLhsPartialFloats(A.rows(), A.cols(), B.cols()));
  kernels::gemmTransposedLhsInto(A, B, C, Partials);
}

void expectApproxEqual(const DenseMatrix &Got, const DenseMatrix &Want,
                       float Tol, const std::string &What) {
  EXPECT_TRUE(Got.approxEquals(Want, Tol, Tol))
      << What << " differs from the scalar level by "
      << Got.maxAbsDiff(Want);
}

void expectBitwiseEqual(const DenseMatrix &Got, const DenseMatrix &Want,
                        const std::string &What) {
  EXPECT_EQ(Got.maxAbsDiff(Want), 0.0f)
      << What << " is not bitwise identical to the scalar level";
}

} // namespace

//===----------------------------------------------------------------------===//
// Level parsing, naming, enumeration
//===----------------------------------------------------------------------===//

TEST(Dispatch, IsaNamesRoundTrip) {
  EXPECT_EQ(kernels::parseIsaLevel("scalar"), IsaLevel::Scalar);
  EXPECT_EQ(kernels::parseIsaLevel("avx2"), IsaLevel::Avx2);
  EXPECT_EQ(kernels::parseIsaLevel("avx512"), IsaLevel::Avx512);
  for (IsaLevel Level :
       {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512})
    EXPECT_EQ(kernels::parseIsaLevel(kernels::isaLevelName(Level)), Level);
}

TEST(Dispatch, IsaParsingRejectsGarbage) {
  EXPECT_FALSE(kernels::parseIsaLevel(""));
  EXPECT_FALSE(kernels::parseIsaLevel("AVX2"));
  EXPECT_FALSE(kernels::parseIsaLevel("avx-512"));
  EXPECT_FALSE(kernels::parseIsaLevel("sse4"));
  EXPECT_FALSE(kernels::parseIsaLevel(" scalar"));
}

TEST(Dispatch, SupportedLevelsStartWithScalarAndAscend) {
  std::vector<IsaLevel> Levels = kernels::supportedIsaLevels();
  ASSERT_FALSE(Levels.empty());
  EXPECT_EQ(Levels.front(), IsaLevel::Scalar);
  for (size_t I = 1; I < Levels.size(); ++I)
    EXPECT_LT(Levels[I - 1], Levels[I]);
  EXPECT_EQ(Levels.back(), kernels::detectedIsaLevel());
}

TEST(Dispatch, SetIsaLevelSwitchesActiveTable) {
  IsaLevelGuard Guard;
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    EXPECT_EQ(kernels::activeIsaLevel(), Level);
    EXPECT_EQ(kernels::simdOps().Level, Level);
    EXPECT_STREQ(kernels::simdOps().Name, kernels::isaLevelName(Level));
  }
}

TEST(Dispatch, UnavailableLevelsAreRejected) {
  IsaLevelGuard Guard;
  IsaLevel Detected = kernels::detectedIsaLevel();
  for (IsaLevel Level :
       {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512}) {
    if (Level <= Detected)
      continue;
    EXPECT_EQ(kernels::simdOpsFor(Level), nullptr);
    // A rejected request must leave the active level untouched.
    EXPECT_FALSE(kernels::setIsaLevel(Level));
    EXPECT_EQ(kernels::activeIsaLevel(), Guard.Entry);
  }
}

TEST(Dispatch, TablesAreFullyPopulated) {
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    const kernels::SimdOps *Ops = kernels::simdOpsFor(Level);
    ASSERT_NE(Ops, nullptr) << kernels::isaLevelName(Level);
    EXPECT_EQ(Ops->Level, Level);
    EXPECT_NE(Ops->GemmRowRange, nullptr);
    EXPECT_NE(Ops->GemmTLhsRowRange, nullptr);
    EXPECT_NE(Ops->GemmTRhsRowRange, nullptr);
    EXPECT_NE(Ops->SpmmRowRange, nullptr);
    EXPECT_NE(Ops->SddmmDotRowRange, nullptr);
    EXPECT_NE(Ops->ScaleRange, nullptr);
    EXPECT_NE(Ops->MulRange, nullptr);
    EXPECT_NE(Ops->AddRange, nullptr);
    EXPECT_NE(Ops->AxpyRange, nullptr);
    EXPECT_NE(Ops->ReluRange, nullptr);
    EXPECT_GE(Ops->DenseThroughputScale, 1.0);
    EXPECT_GE(Ops->SparseThroughputScale, 1.0);
  }
  // The scalar table reproduces the pre-SIMD kernels: unit throughput (it
  // is the calibration baseline).
  const kernels::SimdOps *Scalar = kernels::simdOpsFor(IsaLevel::Scalar);
  ASSERT_NE(Scalar, nullptr);
  EXPECT_EQ(Scalar->DenseThroughputScale, 1.0);
  EXPECT_EQ(Scalar->SparseThroughputScale, 1.0);
}

//===----------------------------------------------------------------------===//
// Alignment contract of the tensor storage
//===----------------------------------------------------------------------===//

TEST(Alignment, DenseMatrixStorageIsCacheLineAligned) {
  for (auto [Rows, Cols] : {std::pair<int64_t, int64_t>{1, 1},
                            {17, 9},
                            {64, 64},
                            {3, 1000}}) {
    DenseMatrix M(Rows, Cols);
    EXPECT_TRUE(isKernelAligned(M.data()));
  }
  // Arena-style reshapes reuse the buffer and must keep the alignment.
  DenseMatrix M(8, 8);
  const float *Before = M.data();
  M.resize(4, 16);
  EXPECT_EQ(M.data(), Before);
  EXPECT_TRUE(isKernelAligned(M.data()));
}

TEST(Alignment, CsrMatrixStorageIsCacheLineAligned) {
  CsrMatrix A = randomSparse(50, 50, 300, 99, /*Weighted=*/true);
  EXPECT_TRUE(isKernelAligned(A.rowOffsets().data()));
  EXPECT_TRUE(isKernelAligned(A.colIndices().data()));
  EXPECT_TRUE(isKernelAligned(A.values().data()));
}

TEST(Alignment, AlignedVectorSurvivesGrowth) {
  AlignedVector<float> V;
  for (int I = 0; I < 1000; ++I) {
    V.push_back(static_cast<float>(I));
    ASSERT_TRUE(isKernelAligned(V.data()));
  }
}

//===----------------------------------------------------------------------===//
// Cross-ISA kernel agreement
//===----------------------------------------------------------------------===//
//
// Shapes deliberately avoid vector-width multiples (K = 45, N = 29, ...)
// so every level runs both its vector body and its scalar tail.

TEST(CrossIsa, GemmFamilyAgreesWithScalarLevel) {
  IsaLevelGuard Guard;
  DenseMatrix A = randomDense(37, 45, 11);
  DenseMatrix B = randomDense(45, 29, 12);
  DenseMatrix At = randomDense(45, 37, 13); // lhs of the A^T * B form
  DenseMatrix Bt = randomDense(29, 45, 14); // rhs of the A * B^T form

  // Every product is 37 x 29.
  auto Gemm = [&] {
    DenseMatrix C(37, 29);
    kernels::gemmInto(A, B, C);
    return C;
  };
  auto TLhs = [&] {
    DenseMatrix C(37, 29);
    gemmTLhs(At, B, C);
    return C;
  };
  auto TRhs = [&] {
    DenseMatrix C(37, 29);
    kernels::gemmTransposedRhsInto(A, Bt, C);
    return C;
  };

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix RefGemm = Gemm();
  DenseMatrix RefTLhs = TLhs();
  DenseMatrix RefTRhs = TRhs();

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    expectApproxEqual(Gemm(), RefGemm, 1e-5f, "gemm");
    expectApproxEqual(TLhs(), RefTLhs, 1e-5f, "gemmTransposedLhs");
    expectApproxEqual(TRhs(), RefTRhs, 1e-5f, "gemmTransposedRhs");
  }
}

TEST(CrossIsa, GemmTransposedLhsIsBitwiseAcrossLevels) {
  // The weight-gradient GEMM adds rounded products in a fixed chunk and row
  // order at every level, so it agrees bit for bit (AVX-512 only where the
  // host has it). Widths cover the 2-vector, 1-vector and scalar-tail
  // paths; M spans a single chunk, a few and all of them, unevenly.
  IsaLevelGuard Guard;
  for (auto [M, K, N] : {std::tuple<int64_t, int64_t, int64_t>{45, 37, 29},
                         {1000, 64, 64},
                         {8300, 16, 40}}) {
    SCOPED_TRACE(std::to_string(M) + "x" + std::to_string(K) + "x" +
                 std::to_string(N));
    DenseMatrix A = randomDense(M, K, 15);
    DenseMatrix B = randomDense(M, N, 16);
    auto TLhs = [&] {
      DenseMatrix C(K, N);
      gemmTLhs(A, B, C);
      return C;
    };
    ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
    DenseMatrix Ref = TLhs();
    for (IsaLevel Level : kernels::supportedIsaLevels()) {
      SCOPED_TRACE(kernels::isaLevelName(Level));
      ASSERT_TRUE(kernels::setIsaLevel(Level));
      DenseMatrix Got = TLhs();
      EXPECT_EQ(std::memcmp(Got.data(), Ref.data(),
                            static_cast<size_t>(Ref.size()) * sizeof(float)),
                0)
          << "gemmTransposedLhs differs from the scalar level by "
          << Got.maxAbsDiff(Ref);
    }
  }
}

TEST(CrossIsa, SpmmAgreesWithScalarLevel) {
  IsaLevelGuard Guard;
  CsrMatrix Weighted = randomSparse(60, 60, 320, 21, /*Weighted=*/true);
  CsrMatrix Unweighted = randomSparse(60, 60, 320, 22, /*Weighted=*/false);
  DenseMatrix B = randomDense(60, 33, 23);

  auto Spmm = [&](const CsrMatrix &A, std::span<const float> Vals) {
    DenseMatrix Out(60, 33);
    kernels::spmmInto(A, Vals, B, Out);
    return Out;
  };

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix RefW = Spmm(Weighted, Weighted.values());
  DenseMatrix RefU = Spmm(Unweighted, {});

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    expectApproxEqual(Spmm(Weighted, Weighted.values()), RefW, 1e-5f,
                      "weighted spmm");
    expectApproxEqual(Spmm(Unweighted, {}), RefU, 1e-5f,
                      "unweighted spmm");
  }
}

TEST(CrossIsa, SddmmAgreesWithScalarLevel) {
  IsaLevelGuard Guard;
  CsrMatrix Mask = randomSparse(40, 40, 260, 31, /*Weighted=*/false);
  DenseMatrix U = randomDense(40, 21, 32);
  DenseMatrix V = randomDense(40, 21, 33);

  auto Sddmm = [&] {
    std::vector<float> Out(static_cast<size_t>(Mask.nnz()));
    kernels::sddmmInto(Mask, U, V, Out);
    return Out;
  };

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  std::vector<float> Ref = Sddmm();

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    std::vector<float> Got = Sddmm();
    ASSERT_EQ(Got.size(), Ref.size());
    for (size_t I = 0; I < Ref.size(); ++I)
      EXPECT_NEAR(Got[I], Ref[I], 1e-5f) << "edge " << I;
  }

  // The AVX2 and AVX-512 tables fold the dot product in the same 8-wide
  // groups (the AVX-512 table deliberately keeps 256-bit groups), so their
  // results agree bit for bit at every width, tails included. Runs only on
  // hosts that support AVX-512.
  if (kernels::simdOpsFor(IsaLevel::Avx512) == nullptr)
    return;
  for (int64_t K : {7, 8, 45, 64, 100, 128}) {
    SCOPED_TRACE("K = " + std::to_string(K));
    DenseMatrix UK = randomDense(40, K, 34);
    DenseMatrix VK = randomDense(40, K, 35);
    auto SddmmK = [&] {
      std::vector<float> Out(static_cast<size_t>(Mask.nnz()));
      kernels::sddmmInto(Mask, UK, VK, Out);
      return Out;
    };
    ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Avx2));
    std::vector<float> Avx2 = SddmmK();
    ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Avx512));
    std::vector<float> Avx512 = SddmmK();
    ASSERT_EQ(Avx512.size(), Avx2.size());
    for (size_t I = 0; I < Avx2.size(); ++I)
      EXPECT_EQ(Avx512[I], Avx2[I]) << "edge " << I;
  }
}

TEST(CrossIsa, ElementwiseOpsAreBitwiseAcrossLevels) {
  // Scale, add, multiply, and ReLU apply the same single IEEE operation per
  // element at every level; vectorization cannot change a bit.
  IsaLevelGuard Guard;
  DenseMatrix A = randomDense(23, 37, 41);
  DenseMatrix B = randomDense(23, 37, 42);
  std::vector<float> D(23);
  Rng R(43);
  for (float &X : D)
    X = R.nextFloat(-1.0f, 1.0f);

  // Each op writes a fresh 23 x 37 destination at the active level.
  auto Apply = [&](auto Kernel) {
    DenseMatrix Out(23, 37);
    Kernel(Out);
    return Out;
  };
  auto Relu = [&](DenseMatrix &Out) { kernels::reluInto(A, Out); };
  auto Add = [&](DenseMatrix &Out) { kernels::addMatricesInto(A, B, Out); };
  auto Scale = [&](DenseMatrix &Out) {
    kernels::scaleMatrixInto(A, 0.37f, Out);
  };
  auto RowMul = [&](DenseMatrix &Out) {
    kernels::rowBroadcastMulInto(D, A, Out);
  };

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix RefRelu = Apply(Relu);
  DenseMatrix RefAdd = Apply(Add);
  DenseMatrix RefScale = Apply(Scale);
  DenseMatrix RefRowMul = Apply(RowMul);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    expectBitwiseEqual(Apply(Relu), RefRelu, "relu");
    expectBitwiseEqual(Apply(Add), RefAdd, "addMatrices");
    expectBitwiseEqual(Apply(Scale), RefScale, "scaleMatrix");
    expectBitwiseEqual(Apply(RowMul), RefRowMul, "rowBroadcastMul");
  }
}

TEST(CrossIsa, AxpyAgreesWithScalarLevel) {
  // axpy uses fused multiply-add on the SIMD levels, so only approximate
  // agreement with the scalar level's mul-then-add holds.
  IsaLevelGuard Guard;
  DenseMatrix A = randomDense(19, 31, 51);
  DenseMatrix Base = randomDense(19, 31, 52);

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix Ref = Base;
  kernels::axpyInto(0.73f, A, Ref);

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    DenseMatrix Got = Base;
    kernels::axpyInto(0.73f, A, Got);
    expectApproxEqual(Got, Ref, 1e-5f, "axpy");
  }
}

TEST(CrossIsa, WithinLevelResultsAreThreadCountInvariant) {
  // The bitwise 1-vs-N-thread contract, checked per level directly at the
  // kernel layer (the differential suite covers the full pipeline).
  IsaLevelGuard Guard;
  CsrMatrix A = randomSparse(80, 80, 500, 61, /*Weighted=*/true);
  DenseMatrix H = randomDense(80, 29, 62);
  int EntryThreads = ThreadPool::get().numThreads();
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    DenseMatrix One(80, 29), Four(80, 29);
    ThreadPool::get().setNumThreads(1);
    kernels::spmmInto(A, A.values(), H, One);
    ThreadPool::get().setNumThreads(4);
    kernels::spmmInto(A, A.values(), H, Four);
    EXPECT_EQ(Four.maxAbsDiff(One), 0.0f)
        << "thread count changed spmm output";
  }
  ThreadPool::get().setNumThreads(EntryThreads);
}
