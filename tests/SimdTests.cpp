//===- SimdTests.cpp - Runtime ISA dispatch and SIMD kernel tests -----------===//
//
// Covers the kernel dispatch layer (src/kernels/Dispatch.h): level parsing
// and naming, CPUID-bounded level enumeration, the setIsaLevel override,
// table completeness, the 64-byte alignment contract of the tensor storage,
// cross-ISA agreement of every dispatched kernel family on fixtures whose
// shapes exercise both the vector bodies and the tails, and the exact
// per-element order of the register tiles and masked tails.
//
//===----------------------------------------------------------------------===//

#include "kernels/Dispatch.h"
#include "kernels/Kernels.h"
#include "support/Aligned.h"
#include "support/Rng.h"
#include "shard/Shard.h"
#include "shard/ShardExec.h"
#include "support/ThreadPool.h"
#include "tensor/CooMatrix.h"
#include "tensor/CscMatrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
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
    EXPECT_NE(Ops->LeakyReluRange, nullptr);
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
// so every level runs both its vector body and its tail.

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
  // host has it). Widths cover full tiles, short tiles and masked tails;
  // M spans a single chunk, a few and all of them, unevenly.
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
  // Scale, add, multiply, ReLU and LeakyReLU apply the same IEEE
  // operations per element at every level; vectorization cannot change a
  // bit.
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
  // Edge LeakyReLU over A's values with the compare's edge cases planted:
  // zeros of both signs, NaN and the infinities.
  std::vector<float> Logits(A.data(), A.data() + A.size());
  const float Inf = std::numeric_limits<float>::infinity();
  const float Specials[] = {0.0f, -0.0f,
                            std::numeric_limits<float>::quiet_NaN(), Inf,
                            -Inf};
  for (size_t I = 0; I < Logits.size(); I += 7)
    Logits[I] = Specials[(I / 7) % 5];
  auto LeakyRelu = [&] {
    std::vector<float> Out(Logits.size());
    kernels::leakyReluEdgesInto(Logits, 0.2f, Out);
    return Out;
  };

  ASSERT_TRUE(kernels::setIsaLevel(IsaLevel::Scalar));
  DenseMatrix RefRelu = Apply(Relu);
  DenseMatrix RefAdd = Apply(Add);
  DenseMatrix RefScale = Apply(Scale);
  DenseMatrix RefRowMul = Apply(RowMul);
  std::vector<float> RefLeaky(Logits.size());
  for (size_t I = 0; I < Logits.size(); ++I)
    RefLeaky[I] = Logits[I] > 0.0f ? Logits[I] : 0.2f * Logits[I];

  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    expectBitwiseEqual(Apply(Relu), RefRelu, "relu");
    expectBitwiseEqual(Apply(Add), RefAdd, "addMatrices");
    expectBitwiseEqual(Apply(Scale), RefScale, "scaleMatrix");
    expectBitwiseEqual(Apply(RowMul), RefRowMul, "rowBroadcastMul");
    std::vector<float> Leaky = LeakyRelu();
    EXPECT_EQ(std::memcmp(Leaky.data(), RefLeaky.data(),
                          RefLeaky.size() * sizeof(float)),
              0)
        << "leakyReluEdges differs from x > 0 ? x : slope * x";
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

//===----------------------------------------------------------------------===//
// Exact per-element order across tiles and tails
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Body at every supported level and at 1 and 4 threads.
template <class Fn> void forEveryLevelAndThreadCount(Fn Body) {
  IsaLevelGuard Guard;
  const int EntryThreads = ThreadPool::get().numThreads();
  for (IsaLevel Level : kernels::supportedIsaLevels()) {
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    for (int Threads : {1, 4}) {
      SCOPED_TRACE(std::string(kernels::isaLevelName(Level)) + ", " +
                   std::to_string(Threads) + " threads");
      ThreadPool::get().setNumThreads(Threads);
      Body(Level);
    }
  }
  ThreadPool::get().setNumThreads(EntryThreads);
}

/// One step of an element's multiply-accumulate chain at \p Level: the
/// scalar table multiplies then adds, the vector tables fuse.
float mulAdd(IsaLevel Level, float A, float B, float Acc) {
  return Level == IsaLevel::Scalar ? Acc + A * B : std::fma(A, B, Acc);
}

void expectSameBits(const DenseMatrix &Got, const DenseMatrix &Want,
                    const std::string &What) {
  ASSERT_EQ(Got.rows(), Want.rows());
  ASSERT_EQ(Got.cols(), Want.cols());
  EXPECT_EQ(std::memcmp(Got.data(), Want.data(),
                        static_cast<size_t>(Want.size()) * sizeof(float)),
            0)
      << What << " differs from its per-element reference by "
      << Got.maxAbsDiff(Want);
}

/// Rows of \p A x \p B in edge order: each element is 0 + b1 + b2 ... for
/// unit weights or the level's multiply-accumulate chain over the weights.
/// \p Transposed accumulates into the column's row instead (A^T * B); the
/// CSR scan visits every column's entries in ascending row order, the CSC
/// entry order.
DenseMatrix spmmReference(IsaLevel Level, const CsrMatrix &A,
                          std::span<const float> Vals, const DenseMatrix &B,
                          bool Transposed) {
  DenseMatrix Out(Transposed ? A.cols() : A.rows(), B.cols());
  Out.fill(0.0f);
  for (int64_t R = 0; R < A.rows(); ++R)
    for (int64_t K = A.rowOffsets()[R]; K < A.rowOffsets()[R + 1]; ++K) {
      const int64_t C = A.colIndices()[static_cast<size_t>(K)];
      const float *Src = B.rowPtr(Transposed ? R : C);
      float *Dst = Out.rowPtr(Transposed ? C : R);
      for (int64_t J = 0; J < B.cols(); ++J)
        Dst[J] = Vals.empty()
                     ? Dst[J] + Src[J]
                     : mulAdd(Level, Vals[static_cast<size_t>(K)], Src[J],
                              Dst[J]);
    }
  return Out;
}

} // namespace

TEST(ExactOrder, SpmmTilesAndTailsMatchPerElementReference) {
  // Widths straddle every tile shape: single vectors, masked tails, one and
  // several full AVX-512 / AVX2 tiles, and tiles plus a short remainder.
  // The graph has empty rows and columns, so empty edge spans are covered.
  CsrMatrix Adj = randomSparse(90, 90, 700, 71, /*Weighted=*/true);
  CscMatrix Csc = CscMatrix::fromCsr(Adj);
  shard::ShardSet Set =
      shard::ShardSet::build(Adj, shard::partitionGraph(Adj, 4));
  ASSERT_EQ(Set.numShards(), 4);
  for (int64_t Width : {1, 7, 15, 16, 17, 33, 63, 64, 65, 100, 130}) {
    SCOPED_TRACE("width " + std::to_string(Width));
    DenseMatrix B = randomDense(90, Width, 72 + static_cast<uint64_t>(Width));
    for (bool Weighted : {true, false}) {
      SCOPED_TRACE(Weighted ? "weighted" : "empty span");
      const std::span<const float> Vals =
          Weighted ? std::span<const float>(Adj.values())
                   : std::span<const float>();
      forEveryLevelAndThreadCount([&](IsaLevel Level) {
        const DenseMatrix Fwd = spmmReference(Level, Adj, Vals, B, false);
        const DenseMatrix Bwd = spmmReference(Level, Adj, Vals, B, true);
        DenseMatrix Got(90, Width);
        Got.fill(7.0f); // stale destination contents must not leak
        kernels::spmmInto(Adj, Vals, B, Got);
        expectSameBits(Got, Fwd, "spmmInto");
        Got.fill(7.0f);
        kernels::spmmCscTransposedInto(Csc, Vals, B, Got);
        expectSameBits(Got, Bwd, "spmmCscTransposedInto");
        shard::ShardStaging Stage;
        Got.fill(7.0f);
        shard::shardedSpmmInto(Set, Stage, Vals, B, Got);
        expectSameBits(Got, Fwd, "shardedSpmmInto");
        Got.fill(7.0f);
        shard::shardedSpmmCscTransposedInto(Set, Stage, Vals, B, Got);
        expectSameBits(Got, Bwd, "shardedSpmmCscTransposedInto");
      });
    }
  }
}

TEST(ExactOrder, GemmTilesAndTailsMatchPerElementReference) {
  // Row counts cover full 4-row blocks, single-row leftovers and both; the
  // widths cover masked single vectors, full tiles and tiles plus a tail.
  constexpr int64_t K = 37;
  for (int64_t M : {1, 3, 4, 5, 4 * 5 + 3}) {
    for (int64_t N : {1, 15, 16, 17, 33, 64, 70}) {
      SCOPED_TRACE(std::to_string(M) + "x" + std::to_string(K) + "x" +
                   std::to_string(N));
      DenseMatrix A = randomDense(M, K, 81);
      DenseMatrix B = randomDense(K, N, 82);
      forEveryLevelAndThreadCount([&](IsaLevel Level) {
        // Ascending K; the scalar table also skips zero A entries.
        DenseMatrix Want(M, N);
        for (int64_t I = 0; I < M; ++I)
          for (int64_t J = 0; J < N; ++J) {
            float Acc = 0.0f;
            for (int64_t KK = 0; KK < K; ++KK)
              if (Level != IsaLevel::Scalar || A.at(I, KK) != 0.0f)
                Acc = mulAdd(Level, A.at(I, KK), B.at(KK, J), Acc);
            Want.at(I, J) = Acc;
          }
        DenseMatrix Got(M, N);
        Got.fill(7.0f);
        kernels::gemmInto(A, B, Got);
        expectSameBits(Got, Want, "gemmInto");
      });
    }
  }
}

TEST(ExactOrder, GemmTransposedLhsTilesAndTailsMatchPerElementReference) {
  // C = A^T * B with C row counts (A's columns) {1, 3, 4, 5, 23}. Every
  // level sums each contraction chunk as rounded products plus rounded
  // sums over ascending I, then adds the chunk partials in chunk order; the
  // larger contraction spans several chunks.
  for (int64_t M : {45, 700}) {
    for (int64_t KOut : {1, 3, 4, 5, 4 * 5 + 3}) {
      for (int64_t N : {1, 15, 16, 17, 33, 64, 70}) {
        SCOPED_TRACE(std::to_string(M) + "x" + std::to_string(KOut) + "x" +
                     std::to_string(N));
        DenseMatrix A = randomDense(M, KOut, 91);
        DenseMatrix B = randomDense(M, N, 92);
        const int64_t Chunks = static_cast<int64_t>(
            kernels::gemmTransposedLhsPartialFloats(M, KOut, N)) /
                (KOut * N) + 1;
        DenseMatrix Want(KOut, N);
        for (int64_t R = 0; R < KOut; ++R)
          for (int64_t J = 0; J < N; ++J) {
            float Sum = 0.0f;
            for (int64_t C = 0; C < Chunks; ++C) {
              float Acc = 0.0f;
              for (int64_t I = C * M / Chunks; I < (C + 1) * M / Chunks; ++I) {
                volatile float Product = A.at(I, R) * B.at(I, J);
                Acc += Product;
              }
              Sum = C == 0 ? Acc : Sum + Acc;
            }
            Want.at(R, J) = Sum;
          }
        forEveryLevelAndThreadCount([&](IsaLevel) {
          DenseMatrix Got(KOut, N);
          Got.fill(7.0f);
          gemmTLhs(A, B, Got);
          expectSameBits(Got, Want, "gemmTransposedLhsInto");
        });
      }
    }
  }
}
