//===- CooMatrix.h - Coordinate-format sparse builder -----------*- C++ -*-===//
///
/// \file
/// COO triplet accumulator used while constructing graphs (generators,
/// Matrix-Market reader, samplers); finalized into CSR via toCsr().
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_TENSOR_COOMATRIX_H
#define GRANII_TENSOR_COOMATRIX_H

#include <cstdint>
#include <vector>

namespace granii {

class CsrMatrix;

/// Triplet (row, col, value) accumulator. Duplicate coordinates are merged
/// by addition when converting to CSR.
class CooMatrix {
public:
  CooMatrix(int64_t Rows, int64_t Cols) : NumRows(Rows), NumCols(Cols) {}

  int64_t rows() const { return NumRows; }
  int64_t cols() const { return NumCols; }

  /// Reserves room for \p Entries entries.
  void reserve(int64_t Entries);

  /// Appends one entry; duplicates are allowed and merged later. Rows and
  /// columns must fit the int32 index type.
  void add(int64_t Row, int64_t Col, float Value = 1.0f);

  /// Appends both (Row, Col) and (Col, Row), in that order; used for
  /// undirected graphs.
  void addSymmetric(int64_t Row, int64_t Col, float Value = 1.0f);

  /// Converts to CSR by a counting sort on rows followed by a per-row sort
  /// on columns, merging duplicates by addition in insertion order. If
  /// \p Unweighted is true the CSR result carries no value array (all
  /// structural nonzeros mean 1).
  CsrMatrix toCsr(bool Unweighted = true) const;

private:
  int64_t NumRows;
  int64_t NumCols;
  std::vector<int32_t> RowIdx;
  std::vector<int32_t> ColIdx;
  std::vector<float> Vals;
};

} // namespace granii

#endif // GRANII_TENSOR_COOMATRIX_H
