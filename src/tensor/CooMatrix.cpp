//===- CooMatrix.cpp - Coordinate-format sparse builder -------------------===//

#include "tensor/CooMatrix.h"

#include "tensor/CsrMatrix.h"

#include <algorithm>
#include <cassert>

using namespace granii;

void CooMatrix::reserve(int64_t Entries) {
  RowIdx.reserve(static_cast<size_t>(Entries));
  ColIdx.reserve(static_cast<size_t>(Entries));
  Vals.reserve(static_cast<size_t>(Entries));
}

void CooMatrix::add(int64_t Row, int64_t Col, float Value) {
  assert(Row >= 0 && Row < NumRows && Col >= 0 && Col < NumCols &&
         "COO entry out of range");
  RowIdx.push_back(static_cast<int32_t>(Row));
  ColIdx.push_back(static_cast<int32_t>(Col));
  Vals.push_back(Value);
}

void CooMatrix::addSymmetric(int64_t Row, int64_t Col, float Value) {
  add(Row, Col, Value);
  if (Row != Col)
    add(Col, Row, Value);
}

CsrMatrix CooMatrix::toCsr(bool Unweighted) const {
  const size_t N = RowIdx.size();
  // Counting sort by row. Histogram and prefix sum give each row's start;
  // the scatter in insertion order keeps each row's entries in the order
  // they were added, and leaves each row's start in the next row's slot.
  AlignedVector<int64_t> Offsets(static_cast<size_t>(NumRows) + 1, 0);
  for (int32_t R : RowIdx)
    ++Offsets[static_cast<size_t>(R) + 1];
  for (size_t R = 0; R < static_cast<size_t>(NumRows); ++R)
    Offsets[R + 1] += Offsets[R];
  AlignedVector<int32_t> Cols(N);
  AlignedVector<float> Values(Unweighted ? 0 : N);
  for (size_t I = 0; I < N; ++I) {
    const auto P =
        static_cast<size_t>(Offsets[static_cast<size_t>(RowIdx[I])]++);
    Cols[P] = ColIdx[I];
    if (!Unweighted)
      Values[P] = Vals[I];
  }
  std::move_backward(Offsets.begin(), Offsets.end() - 1, Offsets.end());
  Offsets[0] = 0;

  // Sort each row by column and merge duplicates, compacting in place (a
  // row's output never starts after its input). Rows that arrive sorted,
  // as they do from files listed in row or column order, skip the sort.
  // Weighted rows sort on (column, position in row) keys, a stable sort,
  // so duplicates sum in insertion order.
  std::vector<uint64_t> Keys;
  std::vector<float> RowVals;
  size_t Out = 0;
  for (size_t R = 0; R < static_cast<size_t>(NumRows); ++R) {
    const auto Begin = static_cast<size_t>(Offsets[R]);
    const auto End = static_cast<size_t>(Offsets[R + 1]);
    const size_t RowStart = Out;
    Offsets[R] = static_cast<int64_t>(RowStart);
    const bool Sorted =
        std::is_sorted(Cols.begin() + Begin, Cols.begin() + End);
    if (Unweighted || Sorted) {
      if (!Sorted)
        std::sort(Cols.begin() + Begin, Cols.begin() + End);
      for (size_t K = Begin; K < End; ++K) {
        if (Out > RowStart && Cols[Out - 1] == Cols[K]) {
          if (!Unweighted)
            Values[Out - 1] += Values[K]; // Merge duplicate coordinate.
          continue;
        }
        Cols[Out] = Cols[K];
        if (!Unweighted)
          Values[Out] = Values[K];
        ++Out;
      }
      continue;
    }
    Keys.resize(End - Begin);
    for (size_t K = Begin; K < End; ++K)
      Keys[K - Begin] = static_cast<uint64_t>(Cols[K]) << 32 | (K - Begin);
    std::sort(Keys.begin(), Keys.end());
    RowVals.assign(Values.begin() + Begin, Values.begin() + End);
    for (uint64_t Key : Keys) {
      const auto C = static_cast<int32_t>(Key >> 32);
      const float V = RowVals[Key & 0xffffffffu];
      if (Out > RowStart && Cols[Out - 1] == C) {
        Values[Out - 1] += V; // Merge duplicate coordinate.
        continue;
      }
      Cols[Out] = C;
      Values[Out++] = V;
    }
  }
  Offsets[static_cast<size_t>(NumRows)] = static_cast<int64_t>(Out);
  // Merged duplicates leave spare capacity; the matrix keeps none.
  Cols.resize(Out);
  Cols.shrink_to_fit();
  Values.resize(Unweighted ? 0 : Out);
  Values.shrink_to_fit();
  return CsrMatrix(NumRows, NumCols, std::move(Offsets), std::move(Cols),
                   std::move(Values));
}
