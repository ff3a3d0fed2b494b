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
/// Register contract: the accumulating routines (GEMM, A^T * B, SpMM) keep
/// their accumulators in small arrays indexed only by constants that fold
/// expressions over std::integer_sequence produce. The unrolling is thus
/// fixed by construction rather than left to the optimizer, and at the
/// Release build's -O2 every accumulator is a register across the
/// contraction or edge loop (docs/SIMD.md).
///
/// Determinism within an ISA level: each output element's reduction is a
/// single serial chain over the contraction dimension (or the row's edges),
/// identical in every tile shape: a width that is not a multiple of the
/// vector width ends in a masked vector whose lanes run the same operations.
/// Row/element partitions therefore cannot change any result bit,
/// preserving the 1-vs-N-thread contract. The sddmm dot
/// product is the one reduction whose order depends on position: features
/// are folded in groups of Traits::DotGroup. The AVX2 and AVX-512 traits
/// share one group size, so their sddmm results agree bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_KERNELS_SIMDKERNELSIMPL_H
#define GRANII_KERNELS_SIMDKERNELSIMPL_H

#include "kernels/Dispatch.h"

#include <cmath>
#include <type_traits>
#include <utility>

namespace granii {
namespace kernels {
namespace simd_impl {

template <int... I> using Ints = std::integer_sequence<int, I...>;
template <int N> using Seq = std::make_integer_sequence<int, N>;

/// Rows per register block in the packed GEMMs.
constexpr int GemmRowBlock = 4;

//===----------------------------------------------------------------------===//
// Register tiles
//===----------------------------------------------------------------------===//

/// Vector \p V of a tile of \p NV vectors at \p P. With \p Partial the
/// tile's last vector covers only the lanes of \p M (masked lanes read as 0
/// and are never stored), so a width that is not a multiple of the vector
/// width still runs every element through the same lane operations.
template <class T, int NV, bool Partial, int V>
typename T::Vec tileLoad(const float *P, typename T::Mask M) {
  if constexpr (Partial && V == NV - 1)
    return T::loadMasked(P, M);
  else
    return T::load(P);
}

template <class T, int NV, bool Partial, int V>
void tileStore(float *P, typename T::Vec X, typename T::Mask M) {
  if constexpr (Partial && V == NV - 1)
    T::storeMasked(P, M, X);
  else
    T::store(P, X);
}

/// Walks columns [0, \p Width) in tiles of \p NV vectors: full tiles,
/// then one tile of the remaining vectors, its last one masked when
/// \p Width is not a multiple of the vector width. \p Tile is called as
/// Tile(J, Seq<vectors>(), std::bool_constant<Partial>(), Mask); the
/// vector count is a template argument, picked by a fold over the
/// possible counts, so every tile is unrolled by construction.
template <class T, int NV, class TileFn>
void forEachTile(int64_t Width, TileFn &&Tile) {
  constexpr int64_t W = T::Width;
  const typename T::Mask M = T::mask(Width % W);
  int64_t J = 0;
  for (; J + NV * W <= Width; J += NV * W)
    Tile(J, Seq<NV>(), std::false_type(), M);
  const int64_t Rest = Width - J;
  const int Vecs = static_cast<int>((Rest + W - 1) / W);
  [&]<int... N>(Ints<N...>) {
    ((Vecs == N + 1 ? Rest % W ? Tile(J, Seq<N + 1>(), std::true_type(), M)
                               : Tile(J, Seq<N + 1>(), std::false_type(), M)
                    : void()),
     ...);
  }(Seq<NV>());
}

//===----------------------------------------------------------------------===//
// Packed GEMMs: C = A * B and C = A^T * B
//===----------------------------------------------------------------------===//

/// \p P with its rounding pinned: the empty asm hides where the value came
/// from, so the compiler cannot contract the following add into an FMA.
template <class V> inline V rounded(V P) {
  __asm__("" : "+v"(P));
  return P;
}

/// C rows [0, MR) x the tile's vectors from column J, over a contraction
/// of length K: step KK of row R multiplies A[R * RowStride + KK * KStride]
/// by row KK of B. \p Fused accumulates through FMA (C = A * B); otherwise
/// each step adds a rounded product to a rounded sum (A^T * B, the scalar
/// table's arithmetic, so it agrees bit for bit across ISA levels). Acc[X]
/// is row X / NV, vector X % NV; every index is a constant of the folds, so
/// the accumulators stay in registers across the K loop.
template <class T, bool Fused, bool Partial, int... R, int... V, int... X>
void gemmTile(Ints<R...>, Ints<V...>, Ints<X...>, const float *A,
              int64_t RowStride, int64_t KStride, const float *B, int64_t Ldb,
              float *C, int64_t Ldc, int64_t K, int64_t J,
              typename T::Mask M) {
  using Vec = typename T::Vec;
  constexpr int NV = sizeof...(V);
  constexpr int64_t W = T::Width;
  Vec Acc[sizeof...(X)] = {((void)X, T::zero())...};
  for (int64_t KK = 0; KK < K; ++KK) {
    const float *BRow = B + KK * Ldb + J;
    const Vec BV[NV] = {tileLoad<T, NV, Partial, V>(BRow + V * W, M)...};
    const Vec AV[sizeof...(R)] = {
        T::set1(A[R * RowStride + KK * KStride])...};
    if constexpr (Fused)
      ((Acc[X] = T::fma(AV[X / NV], BV[X % NV], Acc[X])), ...);
    else
      ((Acc[X] = T::add(Acc[X], rounded(T::mul(AV[X / NV], BV[X % NV])))),
       ...);
  }
  (tileStore<T, NV, Partial, X % NV>(C + X / NV * Ldc + J + X % NV * W,
                                     Acc[X], M),
   ...);
}

/// C rows [RowBegin, RowEnd) in blocks of GemmRowBlock rows, then single
/// rows. Every element accumulates over K in ascending order whichever
/// block and tile (full, short or masked) covers it, so results are
/// independent of the row range and of N's split into tiles.
template <class T, bool Fused>
void gemmRows(const float *A, int64_t RowStride, int64_t KStride,
              const float *B, int64_t Ldb, float *C, int64_t Ldc, int64_t K,
              int64_t N, int64_t RowBegin, int64_t RowEnd) {
  auto Block = [&]<int... R>(Ints<R...> Rows, int64_t I) {
    forEachTile<T, T::GemmTileVecs>(
        N, [&]<int... V, bool P>(int64_t J, Ints<V...> Vecs,
                                 std::bool_constant<P>, typename T::Mask M) {
          gemmTile<T, Fused, P>(Rows, Vecs,
                                Seq<sizeof...(R) * sizeof...(V)>(),
                                A + I * RowStride, RowStride, KStride, B, Ldb,
                                C + I * Ldc, Ldc, K, J, M);
        });
  };
  int64_t I = RowBegin;
  for (; I + GemmRowBlock <= RowEnd; I += GemmRowBlock)
    Block(Seq<GemmRowBlock>(), I);
  for (; I < RowEnd; ++I)
    Block(Seq<1>(), I);
}

template <class T>
void gemmRowRange(const float *A, int64_t Lda, const float *B, int64_t Ldb,
                  float *C, int64_t Ldc, int64_t K, int64_t N,
                  int64_t RowBegin, int64_t RowEnd) {
  gemmRows<T, true>(A, Lda, 1, B, Ldb, C, Ldc, K, N, RowBegin, RowEnd);
}

/// C's rows are A's columns: row R of C reads column R of A.
template <class T>
void gemmTLhsRowRange(const float *A, int64_t Lda, const float *B,
                      int64_t Ldb, float *C, int64_t Ldc, int64_t M,
                      int64_t N, int64_t RowBegin, int64_t RowEnd) {
  gemmRows<T, false>(A, 1, Lda, B, Ldb, C, Ldc, M, N, RowBegin, RowEnd);
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

/// One register tile of one output row: the tile's columns of every
/// neighbor row in [Begin, End) stream through the accumulators, which are
/// stored once. Each element is 0 + b1 + b2 ... (unit weights) or the FMA
/// chain over the edge weights, in edge order, whatever the tile.
template <class T, bool Partial, int... V>
void spmmTile(Ints<V...>, const int32_t *Cols, const float *Vals,
              const int64_t *ValIdx, const float *B, int64_t Ldb, float *Out,
              int64_t Begin, int64_t End, typename T::Mask M) {
  using Vec = typename T::Vec;
  constexpr int NV = sizeof...(V);
  constexpr int64_t W = T::Width;
  Vec Acc[NV] = {((void)V, T::zero())...};
  if (!Vals) {
    for (int64_t K = Begin; K < End; ++K) {
      const float *Src = B + static_cast<int64_t>(Cols[K]) * Ldb;
      ((Acc[V] = T::add(Acc[V], tileLoad<T, NV, Partial, V>(Src + V * W, M))),
       ...);
    }
  } else {
    for (int64_t K = Begin; K < End; ++K) {
      const float *Src = B + static_cast<int64_t>(Cols[K]) * Ldb;
      const Vec Edge = T::set1(Vals[ValIdx ? ValIdx[K] : K]);
      ((Acc[V] = T::fma(Edge, tileLoad<T, NV, Partial, V>(Src + V * W, M),
                        Acc[V])),
       ...);
    }
  }
  (tileStore<T, NV, Partial, V>(Out + V * W, Acc[V], M), ...);
}

/// Rows walk in tiles of T::SpmmTileVecs vectors, so a row no wider than
/// one tile reads its edge list once and writes its output once. Every
/// element's sequence is independent of the tiling and of how the row
/// range is partitioned.
template <class T>
void spmmRowRange(const int64_t *Offsets, const int32_t *Cols,
                  const float *Vals, const int64_t *ValIdx, const float *B,
                  int64_t Ldb, float *Dst, int64_t LdDst, int64_t Width,
                  int64_t RowBegin, int64_t RowEnd) {
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    float *Out = Dst + R * LdDst;
    const int64_t Begin = Offsets[R], End = Offsets[R + 1];
    forEachTile<T, T::SpmmTileVecs>(
        Width, [&]<int... V, bool P>(int64_t J, Ints<V...>,
                                     std::bool_constant<P>,
                                     typename T::Mask M) {
          spmmTile<T, P>(Ints<V...>(), Cols, Vals, ValIdx, B + J, Ldb,
                         Out + J, Begin, End, M);
        });
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

template <class T>
void leakyReluRange(float Slope, const float *X, float *Out, int64_t N) {
  using Vec = typename T::Vec;
  constexpr int64_t W = T::Width;
  const Vec SlopeV = T::set1(Slope);
  int64_t I = 0;
  // positiveOr keeps x only where x > 0 (an ordered compare: -0.0 and NaN
  // take the scaled value), the scalar `x > 0 ? x : slope * x` below.
  for (; I + W <= N; I += W) {
    const Vec V = T::load(X + I);
    T::store(Out + I, T::positiveOr(V, T::mul(SlopeV, V)));
  }
  for (; I < N; ++I)
    Out[I] = X[I] > 0.0f ? X[I] : Slope * X[I];
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
  Ops.LeakyReluRange = &leakyReluRange<T>;
  return Ops;
}

} // namespace simd_impl
} // namespace kernels
} // namespace granii

#endif // GRANII_KERNELS_SIMDKERNELSIMPL_H
