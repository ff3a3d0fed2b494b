//===- CscMatrix.cpp - Compressed sparse column structure ------------------===//

#include "tensor/CscMatrix.h"

#include "support/Error.h"

#include <algorithm>

using namespace granii;

CscMatrix CscMatrix::fromCsr(const CsrMatrix &A) {
  CscMatrix C;
  C.NumRows = A.rows();
  C.NumCols = A.cols();
  C.Nnz = A.nnz();
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  C.RowOffsets.assign(Offsets.begin(), Offsets.end());
  // Counting sort on columns, scanning CSR rows in order — the same
  // procedure as CsrMatrix::transposed(), so entries land in ascending row
  // order within each column.
  C.ColOffsets.assign(static_cast<size_t>(C.NumCols) + 1, 0);
  for (int64_t K = 0; K < C.Nnz; ++K)
    ++C.ColOffsets[static_cast<size_t>(Cols[K]) + 1];
  for (int64_t Col = 0; Col < C.NumCols; ++Col)
    C.ColOffsets[Col + 1] += C.ColOffsets[Col];
  C.RowIdx.resize(static_cast<size_t>(C.Nnz));
  C.CsrIdx.resize(static_cast<size_t>(C.Nnz));
  AlignedVector<int64_t> Cursor(C.ColOffsets.begin(),
                                C.ColOffsets.end() - 1);
  for (int64_t R = 0; R < C.NumRows; ++R) {
    for (int64_t K = Offsets[R]; K < Offsets[R + 1]; ++K) {
      const int64_t Slot = Cursor[static_cast<size_t>(Cols[K])]++;
      C.RowIdx[Slot] = static_cast<int32_t>(R);
      C.CsrIdx[Slot] = K;
    }
  }
  return C;
}

CsrMatrix CscMatrix::toCsr(std::span<const float> Vals) const {
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == Nnz,
               "csc->csr value count mismatch");
  AlignedVector<int64_t> Offsets(RowOffsets.begin(), RowOffsets.end());
  AlignedVector<int32_t> OutCols(static_cast<size_t>(Nnz));
  // Each entry remembers its CSR slot, so reconstruction is a scatter.
  for (int64_t Col = 0; Col < NumCols; ++Col)
    for (int64_t K = ColOffsets[Col]; K < ColOffsets[Col + 1]; ++K)
      OutCols[static_cast<size_t>(CsrIdx[K])] = static_cast<int32_t>(Col);
  return CsrMatrix(NumRows, NumCols, std::move(Offsets), std::move(OutCols),
                   AlignedVector<float>(Vals.begin(), Vals.end()));
}

void CscMatrix::verify() const {
  GRANII_CHECK(NumRows >= 0 && NumCols >= 0, "csc negative dimension");
  GRANII_CHECK(static_cast<int64_t>(ColOffsets.size()) == NumCols + 1,
               "csc column offset count mismatch");
  GRANII_CHECK(ColOffsets[0] == 0 && ColOffsets[NumCols] == Nnz,
               "csc column offsets do not span nnz");
  GRANII_CHECK(static_cast<int64_t>(RowIdx.size()) == Nnz &&
                   static_cast<int64_t>(CsrIdx.size()) == Nnz,
               "csc entry array size mismatch");
  GRANII_CHECK(static_cast<int64_t>(RowOffsets.size()) == NumRows + 1,
               "csc row offset count mismatch");
  std::vector<bool> Seen(static_cast<size_t>(Nnz), false);
  for (int64_t Col = 0; Col < NumCols; ++Col) {
    GRANII_CHECK(ColOffsets[Col] <= ColOffsets[Col + 1],
                 "csc column offsets not monotonic");
    int32_t PrevRow = -1;
    for (int64_t K = ColOffsets[Col]; K < ColOffsets[Col + 1]; ++K) {
      GRANII_CHECK(RowIdx[K] >= 0 && RowIdx[K] < NumRows,
                   "csc row id out of range");
      GRANII_CHECK(RowIdx[K] > PrevRow, "csc rows not ascending in column");
      PrevRow = RowIdx[K];
      const int64_t Src = CsrIdx[K];
      GRANII_CHECK(Src >= 0 && Src < Nnz, "csc CSR index out of range");
      GRANII_CHECK(!Seen[static_cast<size_t>(Src)],
                   "csc CSR index mapped twice");
      Seen[static_cast<size_t>(Src)] = true;
      GRANII_CHECK(Src >= RowOffsets[RowIdx[K]] &&
                       Src < RowOffsets[RowIdx[K] + 1],
                   "csc CSR index outside its row's extent");
    }
  }
}
