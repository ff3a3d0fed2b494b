//===- Reorder.cpp - Locality-aware graph reordering ------------------------===//

#include "graph/Reorder.h"

#include "support/Error.h"

#include <algorithm>
#include <limits>
#include <numeric>

using namespace granii;

std::string granii::reorderPolicyName(ReorderPolicy Policy) {
  switch (Policy) {
  case ReorderPolicy::None:
    return "none";
  case ReorderPolicy::Rcm:
    return "rcm";
  case ReorderPolicy::Degree:
    return "degree";
  }
  graniiUnreachable("unknown reorder policy");
}

std::optional<ReorderPolicy> granii::parseReorderPolicy(
    const std::string &Name) {
  if (Name == "none")
    return ReorderPolicy::None;
  if (Name == "rcm")
    return ReorderPolicy::Rcm;
  if (Name == "degree")
    return ReorderPolicy::Degree;
  return std::nullopt;
}

const std::vector<ReorderPolicy> &granii::allReorderPolicies() {
  static const std::vector<ReorderPolicy> Policies = {
      ReorderPolicy::None, ReorderPolicy::Rcm, ReorderPolicy::Degree};
  return Policies;
}

Permutation::Permutation(std::vector<int32_t> NewToOldOrder)
    : NewToOld(std::move(NewToOldOrder)) {
  const int64_t N = size();
  OldToNew.assign(NewToOld.size(), -1);
  for (int64_t NewId = 0; NewId < N; ++NewId) {
    int32_t OldId = NewToOld[static_cast<size_t>(NewId)];
    GRANII_CHECK(OldId >= 0 && OldId < N, "permutation entry out of range");
    GRANII_CHECK(OldToNew[static_cast<size_t>(OldId)] < 0,
                 "permutation repeats a vertex");
    OldToNew[static_cast<size_t>(OldId)] = static_cast<int32_t>(NewId);
  }
}

Permutation Permutation::identity(int64_t N) {
  std::vector<int32_t> Order(static_cast<size_t>(N));
  std::iota(Order.begin(), Order.end(), 0);
  return Permutation(std::move(Order));
}

Permutation Permutation::inverse() const {
  Permutation Inv;
  Inv.NewToOld = OldToNew;
  Inv.OldToNew = NewToOld;
  return Inv;
}

bool Permutation::isIdentity() const {
  for (int64_t I = 0; I < size(); ++I)
    if (NewToOld[static_cast<size_t>(I)] != I)
      return false;
  return true;
}

Permutation granii::reverseCuthillMcKee(const CsrMatrix &Adjacency) {
  GRANII_CHECK(Adjacency.rows() == Adjacency.cols(),
               "reordering requires a square adjacency");
  const int64_t N = Adjacency.rows();
  const auto &Offsets = Adjacency.rowOffsets();
  const auto &Cols = Adjacency.colIndices();

  // Cuthill-McKee order, built front to back; reversed at the end.
  std::vector<int32_t> Order;
  Order.reserve(static_cast<size_t>(N));
  std::vector<char> Visited(static_cast<size_t>(N), 0);

  auto degreeOf = [&](int32_t V) {
    return Offsets[static_cast<size_t>(V) + 1] - Offsets[static_cast<size_t>(V)];
  };
  auto degreeLess = [&](int32_t A, int32_t B) {
    int64_t Da = degreeOf(A), Db = degreeOf(B);
    return Da != Db ? Da < Db : A < B;
  };

  // Vertices in ascending-degree order serve as candidate BFS roots, so
  // each component starts from its minimum-degree vertex (the classic
  // pseudo-peripheral stand-in) and the whole ordering is deterministic.
  std::vector<int32_t> Roots(static_cast<size_t>(N));
  std::iota(Roots.begin(), Roots.end(), 0);
  std::sort(Roots.begin(), Roots.end(), degreeLess);

  std::vector<int32_t> Frontier;
  for (int32_t Root : Roots) {
    if (Visited[static_cast<size_t>(Root)])
      continue;
    Visited[static_cast<size_t>(Root)] = 1;
    size_t Head = Order.size();
    Order.push_back(Root);
    // BFS with each vertex's unvisited neighbors appended in ascending
    // degree (ties by id).
    while (Head < Order.size()) {
      int32_t V = Order[Head++];
      Frontier.clear();
      for (int64_t K = Offsets[static_cast<size_t>(V)];
           K < Offsets[static_cast<size_t>(V) + 1]; ++K) {
        int32_t C = Cols[static_cast<size_t>(K)];
        if (!Visited[static_cast<size_t>(C)]) {
          Visited[static_cast<size_t>(C)] = 1;
          Frontier.push_back(C);
        }
      }
      std::sort(Frontier.begin(), Frontier.end(), degreeLess);
      Order.insert(Order.end(), Frontier.begin(), Frontier.end());
    }
  }

  std::reverse(Order.begin(), Order.end());
  return Permutation(std::move(Order));
}

Permutation granii::degreeDescending(const CsrMatrix &Adjacency) {
  GRANII_CHECK(Adjacency.rows() == Adjacency.cols(),
               "reordering requires a square adjacency");
  const int64_t N = Adjacency.rows();
  const auto &Offsets = Adjacency.rowOffsets();
  std::vector<int32_t> Order(static_cast<size_t>(N));
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](int32_t A, int32_t B) {
    int64_t Da =
        Offsets[static_cast<size_t>(A) + 1] - Offsets[static_cast<size_t>(A)];
    int64_t Db =
        Offsets[static_cast<size_t>(B) + 1] - Offsets[static_cast<size_t>(B)];
    return Da != Db ? Da > Db : A < B;
  });
  return Permutation(std::move(Order));
}

Permutation granii::makeReorderPermutation(ReorderPolicy Policy,
                                           const CsrMatrix &Adjacency) {
  switch (Policy) {
  case ReorderPolicy::None:
    return Permutation::identity(Adjacency.rows());
  case ReorderPolicy::Rcm:
    return reverseCuthillMcKee(Adjacency);
  case ReorderPolicy::Degree:
    return degreeDescending(Adjacency);
  }
  graniiUnreachable("unknown reorder policy");
}

CsrMatrix granii::permuteSymmetric(const CsrMatrix &A, const Permutation &Perm) {
  GRANII_CHECK(A.rows() == A.cols(), "permuteSymmetric requires square");
  GRANII_CHECK(Perm.size() == A.rows(), "permutation size mismatch");
  const int64_t N = A.rows();
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  const auto &Vals = A.values();
  const bool Weighted = A.isWeighted();

  AlignedVector<int64_t> NewOffsets(static_cast<size_t>(N) + 1, 0);
  for (int64_t NewRow = 0; NewRow < N; ++NewRow) {
    int32_t OldRow = Perm.newToOld(NewRow);
    NewOffsets[static_cast<size_t>(NewRow) + 1] =
        NewOffsets[static_cast<size_t>(NewRow)] + A.rowNnz(OldRow);
  }

  AlignedVector<int32_t> NewCols(static_cast<size_t>(A.nnz()));
  AlignedVector<float> NewVals(Weighted ? static_cast<size_t>(A.nnz()) : 0);
  // Per row: map columns through OldToNew, then sort (values follow their
  // columns; each row is an index-value pair sort when weighted).
  std::vector<std::pair<int32_t, float>> RowBuf;
  for (int64_t NewRow = 0; NewRow < N; ++NewRow) {
    int32_t OldRow = Perm.newToOld(NewRow);
    int64_t Begin = Offsets[static_cast<size_t>(OldRow)];
    int64_t End = Offsets[static_cast<size_t>(OldRow) + 1];
    int64_t DstBegin = NewOffsets[static_cast<size_t>(NewRow)];
    if (!Weighted) {
      int64_t Dst = DstBegin;
      for (int64_t K = Begin; K < End; ++K)
        NewCols[static_cast<size_t>(Dst++)] =
            Perm.oldToNew(Cols[static_cast<size_t>(K)]);
      std::sort(NewCols.begin() + DstBegin, NewCols.begin() + Dst);
      continue;
    }
    RowBuf.clear();
    for (int64_t K = Begin; K < End; ++K)
      RowBuf.emplace_back(Perm.oldToNew(Cols[static_cast<size_t>(K)]),
                          Vals[static_cast<size_t>(K)]);
    std::sort(RowBuf.begin(), RowBuf.end(),
              [](const auto &L, const auto &R) { return L.first < R.first; });
    for (size_t I = 0; I < RowBuf.size(); ++I) {
      NewCols[static_cast<size_t>(DstBegin) + I] = RowBuf[I].first;
      NewVals[static_cast<size_t>(DstBegin) + I] = RowBuf[I].second;
    }
  }

  return CsrMatrix(N, N, std::move(NewOffsets), std::move(NewCols),
                   std::move(NewVals));
}

void granii::permuteRowsInto(const DenseMatrix &Src, const Permutation &Perm,
                             DenseMatrix &Dst) {
  GRANII_CHECK(Perm.size() == Src.rows(), "permutation size mismatch");
  GRANII_CHECK(Dst.rows() == Src.rows() && Dst.cols() == Src.cols(),
               "permute destination shape mismatch");
  GRANII_CHECK(Dst.data() != Src.data(), "permute source aliases destination");
  const int64_t Cols = Src.cols();
  for (int64_t NewRow = 0; NewRow < Src.rows(); ++NewRow)
    std::copy_n(Src.rowPtr(Perm.newToOld(NewRow)), Cols, Dst.rowPtr(NewRow));
}

void granii::inversePermuteRowsInto(const DenseMatrix &Src,
                                    const Permutation &Perm,
                                    DenseMatrix &Dst) {
  GRANII_CHECK(Perm.size() == Src.rows(), "permutation size mismatch");
  GRANII_CHECK(Dst.rows() == Src.rows() && Dst.cols() == Src.cols(),
               "permute destination shape mismatch");
  GRANII_CHECK(Dst.data() != Src.data(), "permute source aliases destination");
  const int64_t Cols = Src.cols();
  for (int64_t NewRow = 0; NewRow < Src.rows(); ++NewRow)
    std::copy_n(Src.rowPtr(NewRow), Cols, Dst.rowPtr(Perm.newToOld(NewRow)));
}

int64_t granii::bandwidthOf(const CsrMatrix &A) {
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  int64_t Bandwidth = 0;
  for (int64_t R = 0; R < A.rows(); ++R) {
    int64_t Begin = Offsets[static_cast<size_t>(R)];
    int64_t End = Offsets[static_cast<size_t>(R) + 1];
    if (Begin == End)
      continue;
    // Columns are sorted within a row: its first and last are the extremes.
    Bandwidth = std::max({Bandwidth, R - Cols[static_cast<size_t>(Begin)],
                          Cols[static_cast<size_t>(End) - 1] - R});
  }
  return Bandwidth;
}

double granii::averageRowSpan(const CsrMatrix &A) {
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  double SpanSum = 0.0;
  int64_t NonEmpty = 0;
  for (int64_t R = 0; R < A.rows(); ++R) {
    int64_t Begin = Offsets[static_cast<size_t>(R)];
    int64_t End = Offsets[static_cast<size_t>(R) + 1];
    if (Begin == End)
      continue;
    // Columns are sorted within a row, so span = last - first + 1.
    SpanSum += static_cast<double>(Cols[static_cast<size_t>(End) - 1] -
                                   Cols[static_cast<size_t>(Begin)] + 1);
    ++NonEmpty;
  }
  return NonEmpty > 0 ? SpanSum / static_cast<double>(NonEmpty) : 0.0;
}

Graph granii::reorderGraph(const Graph &G, ReorderPolicy Policy) {
  if (Policy == ReorderPolicy::None)
    return G;
  Permutation Perm = makeReorderPermutation(Policy, G.adjacency());
  return Graph(G.name() + "+" + reorderPolicyName(Policy),
               permuteSymmetric(G.adjacency(), Perm));
}
