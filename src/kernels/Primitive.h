//===- Primitive.h - Primitive vocabulary shared across layers --*- C++ -*-===//
///
/// \file
/// The sparse/dense matrix primitive vocabulary (paper §II). Association
/// trees label their edges with PrimitiveKind, the cost layer trains one
/// model per kind, and the hardware models estimate latency from a
/// PrimitiveDesc (kind + concrete sizes).
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_KERNELS_PRIMITIVE_H
#define GRANII_KERNELS_PRIMITIVE_H


#include <cstdint>
#include <string>
#include <vector>

namespace granii {

/// Kinds of sparse and dense matrix primitives that association-tree edges
/// can be lowered to.
enum class PrimitiveKind {
  Gemm,           ///< dense x dense matrix multiplication
  Gemv,           ///< dense matrix x vector
  SpMMWeighted,   ///< g-SpMM using explicit edge values
  SpMMUnweighted, ///< g-SpMM ignoring edge values (cheaper; unweighted graph)
  SddmmDot,       ///< dense-dense dot per masked edge (attention scores)
  SddmmScale,     ///< diagonal scaling of a sparse matrix (1- or 2-sided)
  RowBroadcast,   ///< out_ij = d_i * h_ij
  ColBroadcast,   ///< out_ij = h_ij * d_j
  DiagMul,        ///< diagonal x diagonal (O(N) vector product)
  AddDense,       ///< elementwise dense addition
  EdgeSoftmax,    ///< row-wise softmax over edge values
  EdgeElementwise,///< elementwise op over edge values (e.g. leaky ReLU)
  DegreeOffsets,  ///< degree from CSR offsets, O(N)
  DegreeBinning,  ///< degree by per-edge binning, O(E) + atomics on GPU
  VectorMap,      ///< elementwise op over a length-N vector (e.g. rsqrt)
  DenseMap,       ///< elementwise op over a dense matrix (e.g. ReLU)
};

/// Short stable name ("gemm", "spmm_w", ...) used in logs, cost-model files
/// and test expectations.
std::string primitiveName(PrimitiveKind Kind);

/// Every primitive kind, in declaration order.
const std::vector<PrimitiveKind> &allPrimitiveKinds();

/// \returns true for primitives whose cost depends on the sparse structure.
bool isSparsePrimitive(PrimitiveKind Kind);

/// A primitive instance with concrete sizes, sufficient for cost/latency
/// estimation. Semantics of the fields per kind:
///  - Gemm: Rows x Inner times Inner x Cols.
///  - SpMM*: sparse Rows x Rows with Nnz nonzeros times dense Rows x Cols.
///  - SddmmDot: mask with Nnz nonzeros, feature width Inner.
///  - SddmmScale: Nnz values scaled; Inner = number of diagonal sides (1|2).
///  - Broadcasts / maps: Rows x Cols dense elements touched.
///  - Degree*: Rows nodes, Nnz edges.
struct PrimitiveDesc {
  PrimitiveKind Kind = PrimitiveKind::Gemm;
  int64_t Rows = 0;
  int64_t Cols = 0;
  int64_t Inner = 0;
  int64_t Nnz = 0;

  /// Floating-point operations performed.
  double flops() const;

  /// Bytes moved to/from memory (4-byte elements, cold-cache estimate).
  double bytes() const;

  /// Debug string, e.g. "gemm[2048x64x128]".
  std::string toString() const;
};

} // namespace granii

#endif // GRANII_KERNELS_PRIMITIVE_H
