//===- Kernels.cpp - Sparse and dense matrix primitives --------------------===//
//
// Parallelization contract: every kernel partitions work so each thread
// owns a disjoint set of output rows (or output elements), and each output
// element's serial computation is independent of the partition. Results are
// therefore bitwise-identical at every thread count. Sparse row loops use
// the nnz-balanced partitioner (parallelForCsrRows) so skewed-degree graphs
// do not serialize on their hub rows. The A^T * B kernel instead owns
// contraction chunks fixed by the input size, each with its own partial
// buffer, and sums the partials in a fixed order.
//
// Destination-passing contract: every kernel writes into a caller-provided
// destination, never allocates, and fully overwrites every destination
// element (rows that accumulate are zeroed inside the same parallel region
// first, so a reused buffer yields the same bits as a fresh zero-filled
// one).
//
// ISA dispatch: the hot row routines (packed GEMM family, SpMM, SDDMM, and
// the elementwise map family) are fetched once per kernel call from the
// active SimdOps table (kernels/Dispatch.h) and invoked on whole row ranges
// inside the thread-pool partitions, so the indirect call never sits in an
// inner loop. Each table preserves the determinism contract above within its
// own ISA level.
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include "kernels/Dispatch.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>

using namespace granii;
using namespace granii::kernels;

namespace {

/// Minimum scalar operations per chunk before a dense loop is dispatched to
/// the thread pool; below this the fork/join overhead dominates.
constexpr int64_t DenseGrainOps = int64_t{1} << 14;

/// Grain (rows per chunk) for a row loop doing \p WorkPerRow operations.
int64_t rowGrain(int64_t WorkPerRow) {
  return std::max<int64_t>(1, DenseGrainOps / std::max<int64_t>(WorkPerRow, 1));
}

/// Destination-shape precondition shared by the dense Into kernels.
void checkDenseDst(const DenseMatrix &Dst, int64_t Rows, int64_t Cols,
                   const char *Kernel) {
  GRANII_CHECK(Dst.rows() == Rows && Dst.cols() == Cols,
               std::string(Kernel) + " destination shape mismatch (have " +
                   std::to_string(Dst.rows()) + "x" +
                   std::to_string(Dst.cols()) + ", need " +
                   std::to_string(Rows) + "x" + std::to_string(Cols) + ")");
}

/// Destination-length precondition shared by the vector Into kernels.
void checkVecDst(std::span<const float> Out, size_t Size, const char *Kernel) {
  GRANII_CHECK(Out.size() == Size,
               std::string(Kernel) + " destination length mismatch (have " +
                   std::to_string(Out.size()) + ", need " +
                   std::to_string(Size) + ")");
}

} // namespace

// granii-noalloc-begin: gemmInto is the densest inner loop in the library;
// it writes only into the caller-provided destination.
void kernels::gemmInto(const DenseMatrix &A, const DenseMatrix &B,
                       DenseMatrix &Dst) {
  GRANII_CHECK(A.cols() == B.rows(), "gemm inner dimension mismatch");
  checkDenseDst(Dst, A.rows(), B.cols(), "gemm");
  const int64_t M = A.rows(), K = A.cols(), N = B.cols();
  // Output rows are partitioned across threads; each C row is written by
  // exactly one thread and zeroed (inside the row routine) right before
  // accumulation, so reused (stale) buffers behave exactly like fresh
  // zero-initialized ones.
  const SimdOps &Ops = simdOps();
  parallelFor(0, M, rowGrain(K * N), [&](int64_t RowBegin, int64_t RowEnd) {
    Ops.GemmRowRange(A.data(), K, B.data(), N, Dst.data(), N, K, N, RowBegin,
                     RowEnd);
  });
}
// granii-noalloc-end

namespace {

/// Contraction-row chunks of an M-row A^T * B with a K x N product: depends
/// on the shapes alone, and (Chunks - 1) * K * N stays within the budget.
int64_t gemmTLhsChunkCount(int64_t M, int64_t K, int64_t N) {
  const int64_t ByBudget =
      GemmTransposedLhsPartialBudget / std::max<int64_t>(K * N, 1) + 1;
  return std::clamp<int64_t>(
      std::min(M / GemmTransposedLhsMinChunkRows, ByBudget), 1,
      GemmTransposedLhsChunks);
}

} // namespace

size_t kernels::gemmTransposedLhsPartialFloats(int64_t M, int64_t K,
                                               int64_t N) {
  return static_cast<size_t>((gemmTLhsChunkCount(M, K, N) - 1) * K * N);
}

void kernels::gemmTransposedLhsInto(const DenseMatrix &A, const DenseMatrix &B,
                                    DenseMatrix &Dst,
                                    std::span<float> Partials) {
  GRANII_CHECK(A.rows() == B.rows(), "A^T*B dimension mismatch");
  checkDenseDst(Dst, A.cols(), B.cols(), "gemm_t_lhs");
  const int64_t M = A.rows(), K = A.cols(), N = B.cols();
  const int64_t Chunks = gemmTLhsChunkCount(M, K, N);
  GRANII_CHECK(Partials.size() >= gemmTransposedLhsPartialFloats(M, K, N),
               "gemm_t_lhs partials buffer too small");
  // Chunk C covers rows [C*M/Chunks, (C+1)*M/Chunks): a partition fixed by
  // the shapes, so no thread count moves a row into another chunk. One chunk's rows
  // of A and B stay cache-resident while its K x N partial accumulates,
  // instead of both operands streaming from memory per block of C rows.
  const int64_t Block = K * N;
  auto PartialOf = [&](int64_t C) {
    return C == 0 ? Dst.data() : Partials.data() + (C - 1) * Block;
  };
  const SimdOps &Ops = simdOps();
  parallelFor(0, Chunks, rowGrain(M / Chunks * Block),
              [&](int64_t ChunkBegin, int64_t ChunkEnd) {
                for (int64_t C = ChunkBegin; C < ChunkEnd; ++C) {
                  const int64_t Begin = C * M / Chunks;
                  const int64_t End = (C + 1) * M / Chunks;
                  Ops.GemmTLhsRowRange(A.data() + Begin * K, K,
                                       B.data() + Begin * N, N, PartialOf(C),
                                       N, End - Begin, N, 0, K);
                }
              });
  if (Chunks == 1)
    return;
  // Fixed-order reduction: each element adds the partials in chunk order.
  parallelFor(0, Block, DenseGrainOps, [&](int64_t Begin, int64_t End) {
    float *Out = Dst.data() + Begin;
    for (int64_t C = 1; C < Chunks; ++C)
      Ops.AddRange(Out, PartialOf(C) + Begin, Out, End - Begin);
  });
}

void kernels::gemmTransposedRhsInto(const DenseMatrix &A, const DenseMatrix &B,
                                    DenseMatrix &Dst) {
  GRANII_CHECK(A.cols() == B.cols(), "A*B^T dimension mismatch");
  checkDenseDst(Dst, A.rows(), B.rows(), "gemm_t_rhs");
  const int64_t K = A.cols(), N = B.rows();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.rows(), rowGrain(K * N),
              [&](int64_t RowBegin, int64_t RowEnd) {
                Ops.GemmTRhsRowRange(A.data(), K, B.data(), K, Dst.data(), N,
                                     K, N, RowBegin, RowEnd);
              });
}

void kernels::gemvInto(const DenseMatrix &A, const std::vector<float> &X,
                       std::vector<float> &Y) {
  GRANII_CHECK(static_cast<int64_t>(X.size()) == A.cols(),
               "gemv dimension mismatch");
  checkVecDst(Y, static_cast<size_t>(A.rows()), "gemv");
  parallelFor(0, A.rows(), rowGrain(A.cols()),
              [&](int64_t RowBegin, int64_t RowEnd) {
                for (int64_t I = RowBegin; I < RowEnd; ++I) {
                  const float *Row = A.rowPtr(I);
                  float Acc = 0.0f;
                  for (int64_t J = 0; J < A.cols(); ++J)
                    Acc += Row[J] * X[static_cast<size_t>(J)];
                  Y[static_cast<size_t>(I)] = Acc;
                }
              });
}

void kernels::rowBroadcastMulInto(const std::vector<float> &D,
                                  const DenseMatrix &H, DenseMatrix &Dst) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == H.rows(),
               "row broadcast length mismatch");
  checkDenseDst(Dst, H.rows(), H.cols(), "row_bcast");
  const SimdOps &Ops = simdOps();
  parallelFor(0, H.rows(), rowGrain(H.cols()),
              [&](int64_t RowBegin, int64_t RowEnd) {
                for (int64_t I = RowBegin; I < RowEnd; ++I)
                  Ops.ScaleRange(D[static_cast<size_t>(I)], H.rowPtr(I),
                                 Dst.rowPtr(I), H.cols());
              });
}

void kernels::colBroadcastMulInto(const DenseMatrix &H,
                                  const std::vector<float> &D,
                                  DenseMatrix &Dst) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == H.cols(),
               "column broadcast length mismatch");
  checkDenseDst(Dst, H.rows(), H.cols(), "col_bcast");
  const SimdOps &Ops = simdOps();
  parallelFor(0, H.rows(), rowGrain(H.cols()),
              [&](int64_t RowBegin, int64_t RowEnd) {
                for (int64_t I = RowBegin; I < RowEnd; ++I)
                  Ops.MulRange(H.rowPtr(I), D.data(), Dst.rowPtr(I),
                               H.cols());
              });
}

void kernels::addMatricesInto(const DenseMatrix &A, const DenseMatrix &B,
                              DenseMatrix &Dst) {
  GRANII_CHECK(A.rows() == B.rows() && A.cols() == B.cols(),
               "elementwise add shape mismatch");
  checkDenseDst(Dst, A.rows(), A.cols(), "add");
  const float *PA = A.data();
  const float *PB = B.data();
  float *PO = Dst.data();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    Ops.AddRange(PA + Begin, PB + Begin, PO + Begin, End - Begin);
  });
}

void kernels::axpyInto(float Alpha, const DenseMatrix &A, DenseMatrix &B) {
  GRANII_CHECK(A.rows() == B.rows() && A.cols() == B.cols(),
               "axpy shape mismatch");
  const float *PA = A.data();
  float *PB = B.data();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    Ops.AxpyRange(Alpha, PA + Begin, PB + Begin, End - Begin);
  });
}

void kernels::scaleMatrixInto(const DenseMatrix &A, float Alpha,
                              DenseMatrix &Dst) {
  checkDenseDst(Dst, A.rows(), A.cols(), "scale");
  const float *PA = A.data();
  float *PO = Dst.data();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    Ops.ScaleRange(Alpha, PA + Begin, PO + Begin, End - Begin);
  });
}

void kernels::reluInto(const DenseMatrix &A, DenseMatrix &Dst) {
  checkDenseDst(Dst, A.rows(), A.cols(), "relu");
  const float *PA = A.data();
  float *PO = Dst.data();
  const SimdOps &Ops = simdOps();
  parallelFor(0, A.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    Ops.ReluRange(PA + Begin, PO + Begin, End - Begin);
  });
}

void kernels::reluBackwardInto(const DenseMatrix &Pre, const DenseMatrix &Grad,
                               DenseMatrix &Dst) {
  GRANII_CHECK(Pre.rows() == Grad.rows() && Pre.cols() == Grad.cols(),
               "relu backward shape mismatch");
  checkDenseDst(Dst, Pre.rows(), Pre.cols(), "relu_backward");
  const float *PP = Pre.data();
  const float *PG = Grad.data();
  float *PO = Dst.data();
  parallelFor(0, Pre.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      PO[I] = PP[I] > 0.0f ? PG[I] : 0.0f;
  });
}

void kernels::reluMaskInto(const DenseMatrix &Pre, DenseMatrix &Dst) {
  checkDenseDst(Dst, Pre.rows(), Pre.cols(), "relu_mask");
  const float *PP = Pre.data();
  float *PO = Dst.data();
  parallelFor(0, Pre.size(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      PO[I] = PP[I] > 0.0f ? 1.0f : 0.0f;
  });
}

// granii-noalloc-begin: the SpMM aggregation loops dominate steady-state
// GNN inference and must stay allocation-free.
void kernels::spmmInto(const CsrMatrix &A, std::span<const float> Vals,
                       const DenseMatrix &B, DenseMatrix &Dst) {
  GRANII_CHECK(A.cols() == B.rows(), "spmm dimension mismatch");
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == A.nnz(),
               "spmm edge value count mismatch");
  checkDenseDst(Dst, A.rows(), B.cols(), "spmm");
  const auto &Offsets = A.rowOffsets();
  const SimdOps &Ops = simdOps();
  const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
  const int64_t NCols = B.cols();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    Ops.SpmmRowRange(Offsets.data(), A.colIndices().data(), ValsPtr, B.data(),
                     NCols, Dst.data(), NCols, NCols, RowBegin, RowEnd);
  });
}
// granii-noalloc-end

void kernels::spmmCscTransposedInto(const CscMatrix &A,
                                    std::span<const float> Vals,
                                    const DenseMatrix &B, DenseMatrix &Dst) {
  GRANII_CHECK(A.rows() == B.rows(), "spmm_csc_t dimension mismatch");
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == A.nnz(),
               "spmm_csc_t edge value count mismatch");
  checkDenseDst(Dst, A.cols(), B.cols(), "spmm_csc_t");
  const auto &ColOffsets = A.colOffsets();
  const auto &Rows = A.rowIndices();
  const auto &CsrIdx = A.csrIndices();
  const int64_t NCols = B.cols();
  // Output row c is column c of the source. The sum runs through the
  // dispatch table's per-neighbor ops, the loop bodies of SpmmRowRange, so
  // it matches spmmInto over the transpose bitwise; unlike the other
  // kernels here, that costs one indirect call per edge. Values gather
  // through the CSC->CSR index map in place.
  const SimdOps &Ops = simdOps();
  parallelForCsrRows(ColOffsets, [&](int64_t ColBegin, int64_t ColEnd) {
    for (int64_t C = ColBegin; C < ColEnd; ++C) {
      float *Out = Dst.rowPtr(C);
      std::fill(Out, Out + NCols, 0.0f);
      for (int64_t K = ColOffsets[C]; K < ColOffsets[C + 1]; ++K) {
        const float *Src = B.rowPtr(Rows[K]);
        if (Vals.empty())
          Ops.AddRange(Out, Src, Out, NCols);
        else
          Ops.AxpyRange(Vals[static_cast<size_t>(CsrIdx[K])], Src, Out, NCols);
      }
    }
  });
}

// granii-noalloc-begin: SDDMM scores every masked edge each layer; the dot
// loops write straight into the caller's value span.
void kernels::sddmmInto(const CsrMatrix &Mask, const DenseMatrix &U,
                        const DenseMatrix &V, std::span<float> Out) {
  GRANII_CHECK(Mask.rows() == U.rows(), "sddmm left operand row mismatch");
  GRANII_CHECK(Mask.cols() == V.rows(), "sddmm right operand row mismatch");
  GRANII_CHECK(U.cols() == V.cols(), "sddmm feature width mismatch");
  checkVecDst(Out, static_cast<size_t>(Mask.nnz()), "sddmm");
  const auto &Offsets = Mask.rowOffsets();
  const int64_t Width = U.cols();
  const SimdOps &Ops = simdOps();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    Ops.SddmmDotRowRange(Offsets.data(), Mask.colIndices().data(), U.data(),
                         Width, V.data(), Width, Out.data(), Width, RowBegin,
                         RowEnd);
  });
}
// granii-noalloc-end

void kernels::sddmmAddScalarsInto(const CsrMatrix &Mask,
                                  const std::vector<float> &SrcScore,
                                  const std::vector<float> &DstScore,
                                  std::span<float> Out) {
  GRANII_CHECK(static_cast<int64_t>(SrcScore.size()) == Mask.rows(),
               "source score length mismatch");
  GRANII_CHECK(static_cast<int64_t>(DstScore.size()) == Mask.cols(),
               "destination score length mismatch");
  checkVecDst(Out, static_cast<size_t>(Mask.nnz()), "sddmm_add");
  const auto &Offsets = Mask.rowOffsets();
  const auto &Cols = Mask.colIndices();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      float SVal = SrcScore[static_cast<size_t>(R)];
      for (int64_t K = Offsets[static_cast<size_t>(R)];
           K < Offsets[static_cast<size_t>(R) + 1]; ++K)
        Out[static_cast<size_t>(K)] =
            SVal + DstScore[static_cast<size_t>(Cols[static_cast<size_t>(K)])];
    }
  });
}

void kernels::scaleSparseRowsInto(const CsrMatrix &A,
                                  const std::vector<float> &D,
                                  std::span<float> OutVals) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == A.rows(),
               "row scale length mismatch");
  checkVecDst(OutVals, static_cast<size_t>(A.nnz()), "scale_row");
  const auto &Offsets = A.rowOffsets();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      float Scale = D[static_cast<size_t>(R)];
      for (int64_t K = Offsets[static_cast<size_t>(R)];
           K < Offsets[static_cast<size_t>(R) + 1]; ++K)
        OutVals[static_cast<size_t>(K)] = Scale * A.valueAt(K);
    }
  });
}

void kernels::scaleSparseColsInto(const CsrMatrix &A,
                                  const std::vector<float> &D,
                                  std::span<float> OutVals) {
  GRANII_CHECK(static_cast<int64_t>(D.size()) == A.cols(),
               "column scale length mismatch");
  checkVecDst(OutVals, static_cast<size_t>(A.nnz()), "scale_col");
  const auto &Cols = A.colIndices();
  // Row structure is irrelevant here; partition the flat edge array.
  parallelFor(0, A.nnz(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    for (int64_t K = Begin; K < End; ++K)
      OutVals[static_cast<size_t>(K)] =
          A.valueAt(K) * D[static_cast<size_t>(Cols[static_cast<size_t>(K)])];
  });
}

void kernels::scaleSparseBothInto(const CsrMatrix &A,
                                  const std::vector<float> &L,
                                  const std::vector<float> &R,
                                  std::span<float> OutVals) {
  GRANII_CHECK(static_cast<int64_t>(L.size()) == A.rows() &&
                   static_cast<int64_t>(R.size()) == A.cols(),
               "diagonal scale length mismatch");
  checkVecDst(OutVals, static_cast<size_t>(A.nnz()), "scale_both");
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t Row = RowBegin; Row < RowEnd; ++Row) {
      float Left = L[static_cast<size_t>(Row)];
      for (int64_t K = Offsets[static_cast<size_t>(Row)];
           K < Offsets[static_cast<size_t>(Row) + 1]; ++K)
        OutVals[static_cast<size_t>(K)] =
            Left * A.valueAt(K) *
            R[static_cast<size_t>(Cols[static_cast<size_t>(K)])];
    }
  });
}

void kernels::edgeSoftmaxInto(const CsrMatrix &A,
                              std::span<const float> EdgeValues,
                              std::span<float> Out) {
  GRANII_CHECK(static_cast<int64_t>(EdgeValues.size()) == A.nnz(),
               "edge value count mismatch");
  checkVecDst(Out, EdgeValues.size(), "edge_softmax");
  const auto &Offsets = A.rowOffsets();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      int64_t Begin = Offsets[static_cast<size_t>(R)];
      int64_t End = Offsets[static_cast<size_t>(R) + 1];
      if (Begin == End)
        continue;
      float Max = EdgeValues[static_cast<size_t>(Begin)];
      for (int64_t K = Begin + 1; K < End; ++K)
        Max = std::max(Max, EdgeValues[static_cast<size_t>(K)]);
      float Sum = 0.0f;
      for (int64_t K = Begin; K < End; ++K) {
        float E = std::exp(EdgeValues[static_cast<size_t>(K)] - Max);
        Out[static_cast<size_t>(K)] = E;
        Sum += E;
      }
      float Inv = 1.0f / Sum;
      for (int64_t K = Begin; K < End; ++K)
        Out[static_cast<size_t>(K)] *= Inv;
    }
  });
}

void kernels::leakyReluEdgesInto(std::span<const float> EdgeValues,
                                 float NegativeSlope, std::span<float> Out) {
  checkVecDst(Out, EdgeValues.size(), "edge_leaky_relu");
  parallelFor(0, static_cast<int64_t>(EdgeValues.size()), DenseGrainOps,
              [&](int64_t Begin, int64_t End) {
                for (int64_t I = Begin; I < End; ++I)
                  Out[static_cast<size_t>(I)] =
                      EdgeValues[static_cast<size_t>(I)] > 0.0f
                          ? EdgeValues[static_cast<size_t>(I)]
                          : NegativeSlope * EdgeValues[static_cast<size_t>(I)];
              });
}

void kernels::degreeFromOffsetsInto(const CsrMatrix &A,
                                    std::vector<float> &Out) {
  checkVecDst(Out, static_cast<size_t>(A.rows()), "degree_off");
  const auto &Offsets = A.rowOffsets();
  parallelFor(0, A.rows(), DenseGrainOps, [&](int64_t Begin, int64_t End) {
    for (int64_t R = Begin; R < End; ++R)
      Out[static_cast<size_t>(R)] =
          static_cast<float>(Offsets[static_cast<size_t>(R) + 1] -
                             Offsets[static_cast<size_t>(R)]);
  });
}

void kernels::degreeByBinningInto(const CsrMatrix &A,
                                  std::vector<float> &Out) {
  // Binning formulation: walk every edge and increment its source bin, the
  // way a scatter-add (torch.bincount-style) kernel would. On a GPU these
  // increments contend atomically when few bins receive many edges; the
  // hardware models charge that contention. On CPU it is still O(E) versus
  // the O(N) offset-difference variant. Each row's bin is owned by the
  // thread covering that row, so no increments contend here; the owning
  // thread also zeroes its bins, so reused buffers match fresh ones.
  checkVecDst(Out, static_cast<size_t>(A.rows()), "degree_bin");
  const auto &Offsets = A.rowOffsets();
  parallelForCsrRows(Offsets, [&](int64_t RowBegin, int64_t RowEnd) {
    for (int64_t R = RowBegin; R < RowEnd; ++R) {
      Out[static_cast<size_t>(R)] = 0.0f;
      for (int64_t K = Offsets[static_cast<size_t>(R)];
           K < Offsets[static_cast<size_t>(R) + 1]; ++K)
        Out[static_cast<size_t>(R)] += 1.0f;
    }
  });
}

void kernels::invDegreeInto(const std::vector<float> &Degrees,
                            std::vector<float> &Out) {
  checkVecDst(Out, Degrees.size(), "inv_degree");
  for (size_t I = 0; I < Degrees.size(); ++I)
    Out[I] = Degrees[I] > 0.0f ? 1.0f / Degrees[I] : 0.0f;
}

void kernels::invSqrtInto(const std::vector<float> &Degrees,
                          std::vector<float> &Out) {
  checkVecDst(Out, Degrees.size(), "inv_sqrt");
  for (size_t I = 0; I < Degrees.size(); ++I)
    Out[I] = Degrees[I] > 0.0f ? 1.0f / std::sqrt(Degrees[I]) : 0.0f;
}
