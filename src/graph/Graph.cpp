//===- Graph.cpp - Graph wrapper over CSR adjacency ------------------------===//

#include "graph/Graph.h"

#include "graph/Reorder.h"
#include "support/Stats.h"

#include <algorithm>
#include <cmath>

using namespace granii;

Graph::Graph(std::string Name, CsrMatrix Adjacency)
    : GraphName(std::move(Name)), Adj(std::move(Adjacency)) {
  Adj.verify();
  Stats = computeGraphStats(Adj);
}

Graph Graph::withSelfLoops() const {
  // Rows are sorted and unique (the constructor verified them), so one
  // pass that slots the diagonal into each row's column order builds the
  // same pattern a (row, col) sort of the merged entries would.
  const auto &Offsets = Adj.rowOffsets();
  const auto &Cols = Adj.colIndices();
  const int64_t N = Adj.rows();
  AlignedVector<int64_t> NewOffsets(static_cast<size_t>(N) + 1, 0);
  AlignedVector<int32_t> NewCols;
  NewCols.reserve(Cols.size() + static_cast<size_t>(N));
  for (int64_t R = 0; R < N; ++R) {
    const auto Begin = Cols.begin() + Offsets[static_cast<size_t>(R)];
    const auto End = Cols.begin() + Offsets[static_cast<size_t>(R) + 1];
    const auto Diag = std::lower_bound(Begin, End, static_cast<int32_t>(R));
    NewCols.insert(NewCols.end(), Begin, Diag);
    NewCols.push_back(static_cast<int32_t>(R));
    NewCols.insert(NewCols.end(),
                   Diag != End && *Diag == R ? Diag + 1 : Diag, End);
    NewOffsets[static_cast<size_t>(R) + 1] =
        static_cast<int64_t>(NewCols.size());
  }
  return Graph(GraphName + "+self",
               CsrMatrix(N, Adj.cols(), std::move(NewOffsets),
                         std::move(NewCols), {}));
}

bool Graph::isSymmetric() const {
  CsrMatrix T = Adj.transposed();
  return T.rowOffsets() == Adj.rowOffsets() &&
         T.colIndices() == Adj.colIndices();
}

GraphStats granii::computeGraphStats(const CsrMatrix &Adjacency) {
  GraphStats S;
  S.NumNodes = Adjacency.rows();
  S.NumEdges = Adjacency.nnz();
  if (S.NumNodes == 0)
    return S;
  S.Density = static_cast<double>(S.NumEdges) /
              (static_cast<double>(S.NumNodes) * S.NumNodes);

  std::vector<double> Degrees(static_cast<size_t>(S.NumNodes));
  const auto &Offsets = Adjacency.rowOffsets();
  for (int64_t R = 0; R < S.NumNodes; ++R)
    Degrees[static_cast<size_t>(R)] = static_cast<double>(
        Offsets[static_cast<size_t>(R) + 1] - Offsets[static_cast<size_t>(R)]);

  S.AvgDegree = meanOf(Degrees);
  S.MaxDegree = *std::max_element(Degrees.begin(), Degrees.end());
  S.DegreeStddev = stddevOf(Degrees);
  S.DegreeCv = S.AvgDegree > 0.0 ? S.DegreeStddev / S.AvgDegree : 0.0;

  // Fraction of edges carried by the top 1% highest-degree rows, summed
  // largest first. The ascending sort also leaves giniOf's own sort a
  // pass over sorted data.
  std::vector<double> Sorted = std::move(Degrees);
  std::sort(Sorted.begin(), Sorted.end());
  size_t TopCount = std::max<size_t>(1, Sorted.size() / 100);
  double TopSum = 0.0;
  for (size_t I = 0; I < TopCount; ++I)
    TopSum += Sorted[Sorted.size() - 1 - I];
  S.DegreeGini = giniOf(std::move(Sorted));
  S.TopRowFraction = S.NumEdges > 0
                         ? TopSum / static_cast<double>(S.NumEdges)
                         : 0.0;
  S.AvgRowSpan = averageRowSpan(Adjacency);
  S.Bandwidth = static_cast<double>(bandwidthOf(Adjacency));
  return S;
}
