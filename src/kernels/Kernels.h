//===- Kernels.h - Sparse and dense matrix primitives -----------*- C++ -*-===//
///
/// \file
/// The primitive kernel layer: GEMM, SpMM, SDDMM, row/column broadcasts,
/// diagonal scaling of sparse matrices, elementwise ops, edge softmax, and
/// the two degree-computation variants (offset-difference vs edge-binning)
/// whose cost difference drives the paper's WiseGraph-on-dense-graphs
/// results. All kernels are deterministic CPU code, parallelized over the
/// shared thread pool (support/ThreadPool.h): threads own disjoint output
/// rows/elements and each output's serial computation is partition-
/// independent, so results are bitwise-identical at every thread count.
/// The hot inner loops run through the runtime ISA dispatch layer
/// (kernels/Dispatch.h): the determinism guarantee holds *within* each ISA
/// level; results may differ across levels (docs/SIMD.md).
/// The hardware models in src/hw derive per-device latencies for them.
///
/// Edge-value operands and destinations are taken as std::span so callers
/// can pass either plain std::vectors or the cache-line-aligned storage of
/// CsrMatrix (support/Aligned.h) without copies.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_KERNELS_KERNELS_H
#define GRANII_KERNELS_KERNELS_H

#include "tensor/CscMatrix.h"
#include "tensor/CsrMatrix.h"
#include "tensor/DenseMatrix.h"

#include <span>
#include <vector>

namespace granii {
namespace kernels {

//===----------------------------------------------------------------------===//
// Dense primitives
//===----------------------------------------------------------------------===//
//
// Every kernel is destination-passing: its `...Into(..., Dst)` form writes
// into a caller-provided, already-shaped destination, allocates nothing and
// fully overwrites every destination element. Callers own their
// destinations: the runtime's buffer arena and backward storage, the
// cost-model profiler, and the emitted dispatch code's workspaces.
// Destination shapes are GRANII_CHECK'd, so a mis-planned buffer aborts
// with a message instead of corrupting memory.

/// C = A * B (row-major GEMM) into \p Dst, which must already be
/// A.rows() x B.cols().
void gemmInto(const DenseMatrix &A, const DenseMatrix &B, DenseMatrix &Dst);

/// Contraction-row chunks of gemmTransposedLhsInto for large inputs: a
/// fixed count, independent of the thread count. Smaller inputs use one
/// chunk per GemmTransposedLhsMinChunkRows rows (at least one chunk), and
/// wide outputs only as many chunks as keep the partials buffer within
/// GemmTransposedLhsPartialBudget floats (16 MiB).
inline constexpr int64_t GemmTransposedLhsChunks = 64;
inline constexpr int64_t GemmTransposedLhsMinChunkRows = 128;
inline constexpr int64_t GemmTransposedLhsPartialBudget = int64_t{1} << 22;

/// Floats of the partials buffer gemmTransposedLhsInto needs for an
/// \p M x \p K lhs and an \p M x \p N rhs.
size_t gemmTransposedLhsPartialFloats(int64_t M, int64_t K, int64_t N);

/// C = A^T * B into \p Dst (A.cols() x B.cols()): the weight gradient
/// dW = H^T dY. The M = A.rows() contraction rows split into
/// contiguous chunks, a count fixed by the shapes alone (see
/// GemmTransposedLhsChunks); each chunk's partial
/// product is written (chunk 0 into \p Dst, the others into \p Partials,
/// which needs gemmTransposedLhsPartialFloats(...) floats) and the partials
/// are summed in chunk order. Every partial accumulates its rows in
/// ascending order as a rounded product plus a rounded sum, never an FMA,
/// so the result is bitwise identical at every thread count and every ISA
/// level.
void gemmTransposedLhsInto(const DenseMatrix &A, const DenseMatrix &B,
                           DenseMatrix &Dst, std::span<float> Partials);

/// C = A * B^T into \p Dst (A.rows() x B.rows()).
void gemmTransposedRhsInto(const DenseMatrix &A, const DenseMatrix &B,
                           DenseMatrix &Dst);

/// y = A * x into \p Y, which must have A.rows() entries.
void gemvInto(const DenseMatrix &A, const std::vector<float> &X,
              std::vector<float> &Y);

/// out_ij = D[i] * H_ij into \p Dst (same shape as H): the paper's
/// row-broadcast primitive, Eq. (1).
void rowBroadcastMulInto(const std::vector<float> &D, const DenseMatrix &H,
                         DenseMatrix &Dst);

/// out_ij = H_ij * D[j] into \p Dst (same shape as H): the column variant
/// used after update ops.
void colBroadcastMulInto(const DenseMatrix &H, const std::vector<float> &D,
                         DenseMatrix &Dst);

/// Elementwise sum into \p Dst (same shape as the operands).
void addMatricesInto(const DenseMatrix &A, const DenseMatrix &B,
                     DenseMatrix &Dst);

/// B += Alpha * A in place.
void axpyInto(float Alpha, const DenseMatrix &A, DenseMatrix &B);

/// Elementwise scale by a scalar into \p Dst (same shape as A).
void scaleMatrixInto(const DenseMatrix &A, float Alpha, DenseMatrix &Dst);

/// Elementwise ReLU into \p Dst (same shape as A).
void reluInto(const DenseMatrix &A, DenseMatrix &Dst);

/// Derivative mask of ReLU at \p Pre applied to \p Grad into \p Dst (the
/// backward pass's helper).
void reluBackwardInto(const DenseMatrix &Pre, const DenseMatrix &Grad,
                      DenseMatrix &Dst);

/// Derivative mask of ReLU at \p Pre into \p Dst (1 where Pre > 0, else
/// 0): reluBackwardInto for an all-ones upstream gradient, which it
/// equals bit for bit without reading one.
void reluMaskInto(const DenseMatrix &Pre, DenseMatrix &Dst);

//===----------------------------------------------------------------------===//
// Sparse primitives
//===----------------------------------------------------------------------===//
//
// Every SpMM takes the sparse structure, its edge values as a span in the
// structure's CSR entry order, B and Dst. An empty span means unit weights:
// each neighbor row is added as it is, the unweighted aggregation the paper
// highlights as the cheaper path. A non-empty span scales each neighbor row
// by its edge value and must hold one value per nonzero.

/// SpMM into \p Dst, which must already be A.rows() x B.cols():
/// Out[i,:] = sum_{j in N(i)} v_ij * B[j,:], with v_ij = \p Vals[k] or 1.
/// \p Vals is usually A.values() or empty.
void spmmInto(const CsrMatrix &A, std::span<const float> Vals,
              const DenseMatrix &B, DenseMatrix &Dst);

/// Dst = A^T * B into \p Dst (A.cols() x B.cols()): the backward-pass
/// aggregation. Walks the CSC columns directly; \p Vals holds the edge
/// values in the *source* CSR edge order (empty = unit weights) and is
/// gathered through the CSC entry map. Each output row visits its entries
/// in ascending source-row order, the entry order of
/// CsrMatrix::transposed(), so the result is bitwise equal to spmmInto over
/// the transpose.
void spmmCscTransposedInto(const CscMatrix &A, std::span<const float> Vals,
                           const DenseMatrix &B, DenseMatrix &Dst);

/// SDDMM into \p Out, which must have Mask.nnz() entries: the per-edge dot
/// product out_ij = U[i,:] . V[j,:] at the mask's nonzeros. \p V has the
/// same number of columns as \p U; the mask's values are ignored.
void sddmmInto(const CsrMatrix &Mask, const DenseMatrix &U,
               const DenseMatrix &V, std::span<float> Out);

/// Per-edge sum of two node scalars into \p Out (Mask.nnz() entries):
/// out_ij = SrcScore[i] + DstScore[j] (the SDDMM(+, +) used by GAT's
/// attention logits).
void sddmmAddScalarsInto(const CsrMatrix &Mask,
                         const std::vector<float> &SrcScore,
                         const std::vector<float> &DstScore,
                         std::span<float> Out);

/// Sparse diagonal scalings (special SDDMMs over diagonal operands). They
/// compute only the scaled value array — the sparsity pattern is
/// unchanged, so callers keep one pattern and rewrite values in place;
/// \p OutVals must have A.nnz() entries and may not alias A.values().
/// v_ij = D[i] * a_ij.
void scaleSparseRowsInto(const CsrMatrix &A, const std::vector<float> &D,
                         std::span<float> OutVals);
/// v_ij = a_ij * D[j].
void scaleSparseColsInto(const CsrMatrix &A, const std::vector<float> &D,
                         std::span<float> OutVals);
/// v_ij = L[i] * a_ij * R[j] (the fused ternary normalization SDDMM of
/// GCN's precompute composition, Eq. (3)).
void scaleSparseBothInto(const CsrMatrix &A, const std::vector<float> &L,
                         const std::vector<float> &R,
                         std::span<float> OutVals);

/// Row-wise softmax over a sparse matrix's edge values (GAT attention)
/// into \p Out; \p EdgeValues and \p Out have A.nnz() entries. \p Out may
/// alias \p EdgeValues: each row's maximum is read before any write to the
/// row.
void edgeSoftmaxInto(const CsrMatrix &A, std::span<const float> EdgeValues,
                     std::span<float> Out);

/// Elementwise leaky ReLU over edge values into \p Out (EdgeValues.size()
/// entries).
void leakyReluEdgesInto(std::span<const float> EdgeValues,
                        float NegativeSlope, std::span<float> Out);

//===----------------------------------------------------------------------===//
// Degree / normalization helpers
//===----------------------------------------------------------------------===//

/// Out-degree of every row read directly from CSR offsets: O(N) work.
/// \p Out has A.rows() entries, as for every kernel below.
void degreeFromOffsetsInto(const CsrMatrix &A, std::vector<float> &Out);

/// Out-degree computed by binning every edge onto its endpoint (the
/// PyTorch-binning style the paper observed in WiseGraph): O(E) scattered
/// increments. Functionally identical to degreeFromOffsetsInto for row
/// degrees, but algorithmically the expensive path on dense graphs.
void degreeByBinningInto(const CsrMatrix &A, std::vector<float> &Out);

/// Elementwise x -> x > 0 ? 1/sqrt(x) : 0 used for symmetric normalization.
/// Zero-degree (isolated) nodes get coefficient 0, matching the dense
/// D^-1/2 A D^-1/2 reference where their rows/columns are all zero.
void invSqrtInto(const std::vector<float> &Degrees, std::vector<float> &Out);

/// Elementwise x -> x > 0 ? 1/x : 0 used for mean aggregation (GraphSAGE).
/// Zero-degree nodes aggregate nothing, so their coefficient is 0.
void invDegreeInto(const std::vector<float> &Degrees,
                   std::vector<float> &Out);

} // namespace kernels
} // namespace granii

#endif // GRANII_KERNELS_KERNELS_H
