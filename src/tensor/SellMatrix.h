//===- SellMatrix.h - Sliced-ELL sparse structure ---------------*- C++ -*-===//
///
/// \file
/// Sliced ELLPACK (SELL-C): rows are grouped into slices of C and each
/// slice is padded only to its own maximum row length, so one long row
/// inflates its slice rather than the whole matrix. Storage within a slice
/// is row-major (row r of slice s starts at sliceOffset(s) + local*width_s),
/// keeping per-row traversal in CSR column order — the bitwise-determinism
/// contract the differential tests check.
///
/// The `sell` format uses C = 32. Plain ELLPACK (the `ell` format) is the
/// single-slice case C = rows: every row padded to the maximum row length.
///
/// Format classes store *structure only* plus a copy of the source CSR row
/// offsets: runtime edge values stay in the operand's CSR-ordered value
/// array and are indexed as Vals[CsrOffsets[r] + k]. One structure
/// conversion per adjacency therefore serves both the weighted and the
/// unweighted steps, and per-format SDDMM keeps writing CSR edge order.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_TENSOR_SELLMATRIX_H
#define GRANII_TENSOR_SELLMATRIX_H

#include "support/Aligned.h"
#include "tensor/CsrMatrix.h"

#include <cstdint>
#include <span>

namespace granii {

class SellMatrix {
public:
  /// Rows per slice of the `sell` format. 32 matches the classic SELL-C
  /// choice for wide SIMD and keeps slice padding bounded by one
  /// cache-resident row group.
  static constexpr int64_t DefaultSliceHeight = 32;

  SellMatrix() = default;

  /// Converts a CSR matrix into slices of \p SliceHeight rows (> 0); a
  /// height >= rows() yields one slice, i.e. plain ELLPACK. Within each row
  /// the columns are the CSR columns in their original order, so traversal
  /// order — and therefore float accumulation order — matches CSR exactly.
  static SellMatrix fromCsr(const CsrMatrix &A,
                            int64_t SliceHeight = DefaultSliceHeight);

  int64_t rows() const { return NumRows; }
  int64_t cols() const { return NumCols; }
  int64_t nnz() const { return Nnz; }
  int64_t numSlices() const { return static_cast<int64_t>(Widths.size()); }

  const AlignedVector<int64_t> &rowOffsets() const { return RowOffsets; }
  /// Padded column length of slice \p S.
  int64_t sliceWidth(int64_t S) const { return Widths[S]; }
  /// Start of slice \p S inside colIndices().
  int64_t sliceOffset(int64_t S) const { return SliceOffsets[S]; }
  const AlignedVector<int32_t> &colIndices() const { return Cols; }
  const int32_t *rowColsPtr(int64_t R) const {
    const int64_t S = R / Height;
    return Cols.data() + SliceOffsets[S] + (R % Height) * Widths[S];
  }
  int64_t rowNnz(int64_t R) const { return RowOffsets[R + 1] - RowOffsets[R]; }

  /// Total padded slots (>= nnz); the storage the format actually walks.
  int64_t paddedSize() const { return static_cast<int64_t>(Cols.size()); }

  CsrMatrix toCsr(std::span<const float> Vals = {}) const;

  void verify() const;

private:
  int64_t NumRows = 0;
  int64_t NumCols = 0;
  int64_t Nnz = 0;
  int64_t Height = 1; ///< rows per slice, clamped to [1, max(rows, 1)]
  AlignedVector<int64_t> RowOffsets = AlignedVector<int64_t>(1, 0);
  AlignedVector<int64_t> Widths;
  AlignedVector<int64_t> SliceOffsets = AlignedVector<int64_t>(1, 0);
  AlignedVector<int32_t> Cols;
};

} // namespace granii

#endif // GRANII_TENSOR_SELLMATRIX_H
