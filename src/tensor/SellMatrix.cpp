//===- SellMatrix.cpp - Sliced-ELL sparse structure ------------------------===//

#include "tensor/SellMatrix.h"

#include "support/Error.h"

#include <algorithm>

using namespace granii;

SellMatrix SellMatrix::fromCsr(const CsrMatrix &A, int64_t SliceHeight) {
  GRANII_CHECK(SliceHeight > 0 || A.rows() == 0,
               "sell slice height must be positive");
  SellMatrix S;
  S.NumRows = A.rows();
  S.NumCols = A.cols();
  S.Nnz = A.nnz();
  const int64_t H = std::max<int64_t>(1, std::min(SliceHeight, S.NumRows));
  S.Height = H;
  const auto &Offsets = A.rowOffsets();
  S.RowOffsets.assign(Offsets.begin(), Offsets.end());
  const int64_t NumSlices = (S.NumRows + H - 1) / H;
  S.Widths.assign(static_cast<size_t>(NumSlices), 0);
  S.SliceOffsets.assign(static_cast<size_t>(NumSlices) + 1, 0);
  for (int64_t Sl = 0; Sl < NumSlices; ++Sl) {
    const int64_t R0 = Sl * H;
    const int64_t R1 = std::min(R0 + H, S.NumRows);
    int64_t W = 0;
    for (int64_t R = R0; R < R1; ++R)
      W = std::max(W, Offsets[R + 1] - Offsets[R]);
    S.Widths[Sl] = W;
    S.SliceOffsets[Sl + 1] = S.SliceOffsets[Sl] + (R1 - R0) * W;
  }
  S.Cols.assign(static_cast<size_t>(S.SliceOffsets[NumSlices]), -1);
  const auto &SrcCols = A.colIndices();
  for (int64_t R = 0; R < S.NumRows; ++R) {
    const int64_t Sl = R / H;
    const int64_t Begin = Offsets[R], End = Offsets[R + 1];
    std::copy(SrcCols.begin() + Begin, SrcCols.begin() + End,
              S.Cols.begin() + S.SliceOffsets[Sl] + (R % H) * S.Widths[Sl]);
  }
  return S;
}

CsrMatrix SellMatrix::toCsr(std::span<const float> Vals) const {
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == Nnz,
               "sell->csr value count mismatch");
  std::vector<int64_t> Offsets(RowOffsets.begin(), RowOffsets.end());
  std::vector<int32_t> OutCols(static_cast<size_t>(Nnz));
  for (int64_t R = 0; R < NumRows; ++R) {
    const int64_t Len = rowNnz(R);
    const int32_t *Src = rowColsPtr(R);
    std::copy(Src, Src + Len, OutCols.begin() + RowOffsets[R]);
  }
  return CsrMatrix(NumRows, NumCols, std::move(Offsets), std::move(OutCols),
                   std::vector<float>(Vals.begin(), Vals.end()));
}

void SellMatrix::verify() const {
  GRANII_CHECK(NumRows >= 0 && NumCols >= 0, "sell negative dimension");
  GRANII_CHECK(static_cast<int64_t>(RowOffsets.size()) == NumRows + 1,
               "sell row offset count mismatch");
  GRANII_CHECK(RowOffsets[0] == 0 && RowOffsets[NumRows] == Nnz,
               "sell row offsets do not span nnz");
  const int64_t NumSlices = numSlices();
  GRANII_CHECK(Height > 0 && NumSlices == (NumRows + Height - 1) / Height,
               "sell slice count mismatch");
  GRANII_CHECK(static_cast<int64_t>(SliceOffsets.size()) == NumSlices + 1,
               "sell slice offset count mismatch");
  GRANII_CHECK(static_cast<int64_t>(Cols.size()) == SliceOffsets[NumSlices],
               "sell column array size mismatch");
  for (int64_t R = 0; R < NumRows; ++R) {
    const int64_t W = Widths[R / Height];
    const int64_t Len = RowOffsets[R + 1] - RowOffsets[R];
    GRANII_CHECK(Len >= 0 && Len <= W, "sell row length exceeds slice width");
    const int32_t *Row = rowColsPtr(R);
    for (int64_t K = 0; K < W; ++K) {
      if (K < Len)
        GRANII_CHECK(Row[K] >= 0 && Row[K] < NumCols,
                     "sell column id out of range");
      else
        GRANII_CHECK(Row[K] == -1, "sell padding slot not -1");
    }
  }
}
