//===- SimdKernelsImpl.h - Shared vector kernel bodies ----------*- C++ -*-===//
///
/// \file
/// Template implementations of the dispatched kernel routines, parameterized
/// over a vector-traits struct (see KernelsAvx2.cpp / KernelsAvx512.cpp for
/// the trait definitions). Only the per-ISA translation units include this
/// header; each instantiates makeSimdOps<Traits>() under its own `-m` target
/// flags. The scalar table does not use these templates — it reproduces the
/// original scalar loops verbatim (KernelsScalar.cpp) so GRANII_ISA=scalar
/// stays bitwise-identical to the pre-SIMD library.
///
/// Determinism within an ISA level: each output element's reduction is a
/// single serial chain over the contraction dimension, identical in the
/// register-blocked, single-row, and scalar-tail code paths — tail elements
/// use std::fma, which (compiled under the same -mfma flags) rounds exactly
/// like a vector FMA lane. Row/element partitions therefore cannot change
/// any result bit, preserving the 1-vs-N-thread contract. The sddmm dot
/// product is the one reduction whose order depends on position: features
/// are folded in groups of Traits::DotGroup. The AVX2 and AVX-512 traits
/// share one group size, so their sddmm results agree bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_KERNELS_SIMDKERNELSIMPL_H
#define GRANII_KERNELS_SIMDKERNELSIMPL_H

#include "kernels/Dispatch.h"

#include <algorithm>
#include <cmath>

namespace granii {
namespace kernels {
namespace simd_impl {

/// Rows per register block in the packed GEMM routines: 4 output rows x 2
/// vectors of accumulators stays within 16 architectural vector registers
/// (with B-row and broadcast temporaries) on AVX2.
constexpr int64_t GemmRowBlock = 4;

//===----------------------------------------------------------------------===//
// Packed GEMM: C = A * B
//===----------------------------------------------------------------------===//

/// One block of \p MR consecutive C rows starting at \p I. Accumulators
/// live in registers across the whole K loop; every (row, column) element
/// accumulates over K in ascending order through FMA regardless of which
/// j-path (2-vector, 1-vector, scalar tail) covers its column, so results
/// are independent of N's split into paths and of MR.
template <class T, int MR>
void gemmBlock(const float *A, int64_t Lda, const float *B, int64_t Ldb,
               float *C, int64_t Ldc, int64_t K, int64_t N, int64_t I) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  int64_t J = 0;
  for (; J + 2 * W <= N; J += 2 * W) {
    Vec Acc[MR][2];
    for (int R = 0; R < MR; ++R)
      Acc[R][0] = Acc[R][1] = T::zero();
    for (int64_t KK = 0; KK < K; ++KK) {
      const float *BRow = B + KK * Ldb + J;
      Vec B0 = T::load(BRow);
      Vec B1 = T::load(BRow + W);
      for (int R = 0; R < MR; ++R) {
        Vec AV = T::set1(A[(I + R) * Lda + KK]);
        Acc[R][0] = T::fma(AV, B0, Acc[R][0]);
        Acc[R][1] = T::fma(AV, B1, Acc[R][1]);
      }
    }
    for (int R = 0; R < MR; ++R) {
      float *CRow = C + (I + R) * Ldc + J;
      T::store(CRow, Acc[R][0]);
      T::store(CRow + W, Acc[R][1]);
    }
  }
  for (; J + W <= N; J += W) {
    Vec Acc[MR];
    for (int R = 0; R < MR; ++R)
      Acc[R] = T::zero();
    for (int64_t KK = 0; KK < K; ++KK) {
      Vec BV = T::load(B + KK * Ldb + J);
      for (int R = 0; R < MR; ++R)
        Acc[R] = T::fma(T::set1(A[(I + R) * Lda + KK]), BV, Acc[R]);
    }
    for (int R = 0; R < MR; ++R)
      T::store(C + (I + R) * Ldc + J, Acc[R]);
  }
  for (; J < N; ++J) {
    for (int R = 0; R < MR; ++R) {
      float Acc = 0.0f;
      for (int64_t KK = 0; KK < K; ++KK)
        Acc = std::fma(A[(I + R) * Lda + KK], B[KK * Ldb + J], Acc);
      C[(I + R) * Ldc + J] = Acc;
    }
  }
}

template <class T>
void gemmRowRange(const float *A, int64_t Lda, const float *B, int64_t Ldb,
                  float *C, int64_t Ldc, int64_t K, int64_t N,
                  int64_t RowBegin, int64_t RowEnd) {
  int64_t I = RowBegin;
  for (; I + GemmRowBlock <= RowEnd; I += GemmRowBlock)
    gemmBlock<T, GemmRowBlock>(A, Lda, B, Ldb, C, Ldc, K, N, I);
  for (; I < RowEnd; ++I)
    gemmBlock<T, 1>(A, Lda, B, Ldb, C, Ldc, K, N, I);
}

//===----------------------------------------------------------------------===//
// C = A^T * B over C's rows (columns of A)
//===----------------------------------------------------------------------===//

/// \p P with its rounding pinned: the empty asm hides where the value came
/// from, so the compiler cannot contract the following add into an FMA.
template <class V> inline V rounded(V P) {
  __asm__("" : "+v"(P));
  return P;
}

/// Unlike the other GEMMs, every element accumulates over I as a rounded
/// product plus a rounded sum (no FMA), the scalar table's arithmetic, so
/// A^T * B agrees bit for bit across ISA levels (Kernels.h).
template <class T, int MR>
void gemmTLhsBlock(const float *A, int64_t Lda, const float *B, int64_t Ldb,
                   float *C, int64_t Ldc, int64_t M, int64_t N, int64_t R0) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  int64_t J = 0;
  for (; J + 2 * W <= N; J += 2 * W) {
    Vec Acc[MR][2];
    for (int R = 0; R < MR; ++R) {
      Acc[R][0] = T::zero();
      Acc[R][1] = T::zero();
    }
    for (int64_t I = 0; I < M; ++I) {
      const float *BRow = B + I * Ldb + J;
      Vec B0 = T::load(BRow);
      Vec B1 = T::load(BRow + W);
      const float *ACol = A + I * Lda + R0;
      for (int R = 0; R < MR; ++R) {
        Vec AV = T::set1(ACol[R]);
        Acc[R][0] = T::add(Acc[R][0], rounded(T::mul(AV, B0)));
        Acc[R][1] = T::add(Acc[R][1], rounded(T::mul(AV, B1)));
      }
    }
    for (int R = 0; R < MR; ++R) {
      float *CRow = C + (R0 + R) * Ldc + J;
      T::store(CRow, Acc[R][0]);
      T::store(CRow + W, Acc[R][1]);
    }
  }
  for (; J + W <= N; J += W) {
    Vec Acc[MR];
    for (int R = 0; R < MR; ++R)
      Acc[R] = T::zero();
    for (int64_t I = 0; I < M; ++I) {
      Vec BV = T::load(B + I * Ldb + J);
      const float *ACol = A + I * Lda + R0;
      for (int R = 0; R < MR; ++R)
        Acc[R] = T::add(Acc[R], rounded(T::mul(T::set1(ACol[R]), BV)));
    }
    for (int R = 0; R < MR; ++R)
      T::store(C + (R0 + R) * Ldc + J, Acc[R]);
  }
  for (; J < N; ++J) {
    for (int R = 0; R < MR; ++R) {
      float Acc = 0.0f;
      for (int64_t I = 0; I < M; ++I)
        Acc += rounded(A[I * Lda + R0 + R] * B[I * Ldb + J]);
      C[(R0 + R) * Ldc + J] = Acc;
    }
  }
}

template <class T>
void gemmTLhsRowRange(const float *A, int64_t Lda, const float *B,
                      int64_t Ldb, float *C, int64_t Ldc, int64_t M,
                      int64_t N, int64_t RowBegin, int64_t RowEnd) {
  int64_t R = RowBegin;
  for (; R + GemmRowBlock <= RowEnd; R += GemmRowBlock)
    gemmTLhsBlock<T, GemmRowBlock>(A, Lda, B, Ldb, C, Ldc, M, N, R);
  for (; R < RowEnd; ++R)
    gemmTLhsBlock<T, 1>(A, Lda, B, Ldb, C, Ldc, M, N, R);
}

//===----------------------------------------------------------------------===//
// C = A * B^T (per-element dot products over the full contraction length)
//===----------------------------------------------------------------------===//

/// Full-length dot product with two independent vector accumulator chains.
/// Always invoked over the whole [0, K) range, so the internal order is the
/// same for every (i, j) element and any partition of the output.
template <class T>
float dotFull(const float *X, const float *Y, int64_t K) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  Vec Acc0 = T::zero();
  Vec Acc1 = T::zero();
  int64_t J = 0;
  for (; J + 2 * W <= K; J += 2 * W) {
    Acc0 = T::fma(T::load(X + J), T::load(Y + J), Acc0);
    Acc1 = T::fma(T::load(X + J + W), T::load(Y + J + W), Acc1);
  }
  for (; J + W <= K; J += W)
    Acc0 = T::fma(T::load(X + J), T::load(Y + J), Acc0);
  float Sum = T::hsum(T::add(Acc0, Acc1));
  for (; J < K; ++J)
    Sum = std::fma(X[J], Y[J], Sum);
  return Sum;
}

template <class T>
void gemmTRhsRowRange(const float *A, int64_t Lda, const float *B,
                      int64_t Ldb, float *C, int64_t Ldc, int64_t K,
                      int64_t NOut, int64_t RowBegin, int64_t RowEnd) {
  for (int64_t I = RowBegin; I < RowEnd; ++I) {
    const float *ARow = A + I * Lda;
    float *CRow = C + I * Ldc;
    for (int64_t J = 0; J < NOut; ++J)
      CRow[J] = dotFull<T>(ARow, B + J * Ldb, K);
  }
}

//===----------------------------------------------------------------------===//
// SpMM (weighted: fma per edge; unit weights: plain add)
//===----------------------------------------------------------------------===//

/// Every column's accumulation is per-element exact (add/fma lanes match
/// their scalar-tail counterparts bit for bit), so a row's result does not
/// depend on how the row range is partitioned.
template <class T>
void spmmRowRange(const int64_t *Offsets, const int32_t *Cols,
                  const float *Vals, const float *B, int64_t Ldb, float *Dst,
                  int64_t LdDst, int64_t Width, int64_t RowBegin,
                  int64_t RowEnd) {
  constexpr int64_t W = T::Width;
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    float *Out = Dst + R * LdDst;
    std::fill(Out, Out + Width, 0.0f);
    for (int64_t K = Offsets[R]; K < Offsets[R + 1]; ++K) {
      const float *Src = B + static_cast<int64_t>(Cols[K]) * Ldb;
      int64_t J = 0;
      if (!Vals) {
        for (; J + W <= Width; J += W)
          T::store(Out + J, T::add(T::load(Out + J), T::load(Src + J)));
        for (; J < Width; ++J)
          Out[J] += Src[J];
        continue;
      }
      const float Edge = Vals[K];
      const typename T::Vec EdgeV = T::set1(Edge);
      for (; J + W <= Width; J += W)
        T::store(Out + J, T::fma(EdgeV, T::load(Src + J), T::load(Out + J)));
      for (; J < Width; ++J)
        Out[J] = std::fma(Edge, Src[J], Out[J]);
    }
  }
}

//===----------------------------------------------------------------------===//
// Plus-times SDDMM (per-edge dot products)
//===----------------------------------------------------------------------===//

template <class T>
void sddmmDotRowRange(const int64_t *Offsets, const int32_t *Cols,
                      const float *U, int64_t Ldu, const float *V,
                      int64_t Ldv, float *Out, int64_t Width, int64_t RowBegin,
                      int64_t RowEnd) {
  constexpr int64_t G = T::DotGroup;
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    const float *URow = U + R * Ldu;
    for (int64_t K = Offsets[R]; K < Offsets[R + 1]; ++K) {
      const float *VRow = V + static_cast<int64_t>(Cols[K]) * Ldv;
      // Features fold into the scalar accumulator in groups of G, left to
      // right, so each edge's result is independent of the row partition.
      float Acc = 0.0f;
      int64_t J = 0;
      for (; J + G <= Width; J += G)
        Acc += T::dotGroup(URow + J, VRow + J);
      for (; J < Width; ++J)
        Acc += URow[J] * VRow[J];
      Out[K] = Acc;
    }
  }
}

//===----------------------------------------------------------------------===//
// Elementwise map family
//===----------------------------------------------------------------------===//

template <class T>
void scaleRange(float Alpha, const float *X, float *Out, int64_t N) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  const Vec AlphaV = T::set1(Alpha);
  int64_t I = 0;
  for (; I + W <= N; I += W)
    T::store(Out + I, T::mul(AlphaV, T::load(X + I)));
  for (; I < N; ++I)
    Out[I] = Alpha * X[I];
}

template <class T>
void mulRange(const float *X, const float *Y, float *Out, int64_t N) {
  constexpr int64_t W = T::Width;
  int64_t I = 0;
  for (; I + W <= N; I += W)
    T::store(Out + I, T::mul(T::load(X + I), T::load(Y + I)));
  for (; I < N; ++I)
    Out[I] = X[I] * Y[I];
}

template <class T>
void addRange(const float *X, const float *Y, float *Out, int64_t N) {
  constexpr int64_t W = T::Width;
  int64_t I = 0;
  for (; I + W <= N; I += W)
    T::store(Out + I, T::add(T::load(X + I), T::load(Y + I)));
  for (; I < N; ++I)
    Out[I] = X[I] + Y[I];
}

template <class T>
void axpyRange(float Alpha, const float *X, float *Y, int64_t N) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  const Vec AlphaV = T::set1(Alpha);
  int64_t I = 0;
  for (; I + W <= N; I += W)
    T::store(Y + I, T::fma(AlphaV, T::load(X + I), T::load(Y + I)));
  for (; I < N; ++I)
    Y[I] = std::fma(Alpha, X[I], Y[I]);
}

template <class T>
void reluRange(const float *X, float *Out, int64_t N) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  const Vec Zero = T::zero();
  int64_t I = 0;
  // T::max(x, 0) returns the second operand for -0.0 and NaN inputs,
  // matching the scalar `x > 0 ? x : 0` below element for element.
  for (; I + W <= N; I += W)
    T::store(Out + I, T::max(T::load(X + I), Zero));
  for (; I < N; ++I)
    Out[I] = X[I] > 0.0f ? X[I] : 0.0f;
}

/// Builds the dispatch table for one trait set.
template <class T> SimdOps makeSimdOps(IsaLevel Level, const char *Name) {
  SimdOps Ops;
  Ops.Level = Level;
  Ops.Name = Name;
  Ops.GemmRowRange = &gemmRowRange<T>;
  Ops.GemmTLhsRowRange = &gemmTLhsRowRange<T>;
  Ops.GemmTRhsRowRange = &gemmTRhsRowRange<T>;
  Ops.SpmmRowRange = &spmmRowRange<T>;
  Ops.SddmmDotRowRange = &sddmmDotRowRange<T>;
  Ops.ScaleRange = &scaleRange<T>;
  Ops.MulRange = &mulRange<T>;
  Ops.AddRange = &addRange<T>;
  Ops.AxpyRange = &axpyRange<T>;
  Ops.ReluRange = &reluRange<T>;
  return Ops;
}

} // namespace simd_impl
} // namespace kernels
} // namespace granii

#endif // GRANII_KERNELS_SIMDKERNELSIMPL_H
