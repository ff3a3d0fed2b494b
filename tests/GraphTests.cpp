//===- GraphTests.cpp - Tests for graphs, generators, IO, sampling ----------===//

#include "graph/Generators.h"
#include "tensor/DenseMatrix.h"
#include "graph/Graph.h"
#include "graph/MatrixMarket.h"
#include "graph/Sampling.h"
#include "tensor/CooMatrix.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>

using namespace granii;

//===----------------------------------------------------------------------===//
// Graph wrapper & statistics
//===----------------------------------------------------------------------===//

TEST(Graph, StatsBasics) {
  Graph G = makeRing(10);
  EXPECT_EQ(G.numNodes(), 10);
  EXPECT_EQ(G.numEdges(), 20); // Stored directed both ways.
  EXPECT_DOUBLE_EQ(G.stats().AvgDegree, 2.0);
  EXPECT_NEAR(G.stats().DegreeCv, 0.0, 1e-12);
}

TEST(Graph, StarStatsAreSkewed) {
  Graph G = makeStar(101);
  EXPECT_DOUBLE_EQ(G.stats().MaxDegree, 100.0);
  EXPECT_GT(G.stats().DegreeCv, 3.0);
  EXPECT_GT(G.stats().DegreeGini, 0.4);
  EXPECT_GT(G.stats().TopRowFraction, 0.45); // Hub holds half the edges.
}

TEST(Graph, SelfLoopsAddNPerNode) {
  Graph G = makeRing(8);
  Graph S = G.withSelfLoops();
  EXPECT_EQ(S.numEdges(), G.numEdges() + 8);
  // Idempotent on already-present self loops.
  Graph S2 = S.withSelfLoops();
  EXPECT_EQ(S2.numEdges(), S.numEdges());

  // The pattern equals a reference built by sorting every (row, col) entry
  // plus the diagonal through a COO matrix, and so do the statistics.
  auto Reference = [](const Graph &In) {
    const CsrMatrix &A = In.adjacency();
    CooMatrix Coo(A.rows(), A.cols());
    for (int64_t R = 0; R < A.rows(); ++R) {
      Coo.add(R, R);
      for (int64_t K = A.rowOffsets()[R]; K < A.rowOffsets()[R + 1]; ++K)
        if (A.colIndices()[static_cast<size_t>(K)] != R)
          Coo.add(R, A.colIndices()[static_cast<size_t>(K)]);
    }
    return Graph(In.name() + "+self", Coo.toCsr());
  };
  // One input already carries some self loops and an isolated node (4).
  CooMatrix Partial(6, 6);
  Partial.add(0, 0);
  Partial.add(2, 2);
  Partial.addSymmetric(0, 1);
  Partial.addSymmetric(1, 3);
  Partial.addSymmetric(3, 5);
  for (const Graph &In :
       {makeErdosRenyi(100, 300, 1), makeRmat(128, 500, 0.5, 0.2, 0.2, 2),
        makeRoadLattice(8, 8, 0.1, 3), makeMycielskian(6),
        makeCommunityGraph(10, 8, 0.5, 40, 4), makeStar(20), makeRing(8),
        makeComplete(12), Graph("partial", Partial.toCsr())}) {
    SCOPED_TRACE(In.name());
    Graph Got = In.withSelfLoops();
    Graph Ref = Reference(In);
    EXPECT_EQ(Got.name(), Ref.name());
    EXPECT_EQ(Got.adjacency().rows(), Ref.adjacency().rows());
    EXPECT_EQ(Got.adjacency().cols(), Ref.adjacency().cols());
    EXPECT_EQ(Got.adjacency().rowOffsets(), Ref.adjacency().rowOffsets());
    EXPECT_EQ(Got.adjacency().colIndices(), Ref.adjacency().colIndices());
    EXPECT_FALSE(Got.adjacency().isWeighted());
    const GraphStats &GS = Got.stats();
    const GraphStats &RS = Ref.stats();
    EXPECT_EQ(GS.NumNodes, RS.NumNodes);
    EXPECT_EQ(GS.NumEdges, RS.NumEdges);
    EXPECT_EQ(GS.Density, RS.Density);
    EXPECT_EQ(GS.AvgDegree, RS.AvgDegree);
    EXPECT_EQ(GS.MaxDegree, RS.MaxDegree);
    EXPECT_EQ(GS.DegreeStddev, RS.DegreeStddev);
    EXPECT_EQ(GS.DegreeCv, RS.DegreeCv);
    EXPECT_EQ(GS.DegreeGini, RS.DegreeGini);
    EXPECT_EQ(GS.TopRowFraction, RS.TopRowFraction);
    EXPECT_EQ(GS.AvgRowSpan, RS.AvgRowSpan);
    EXPECT_EQ(GS.Bandwidth, RS.Bandwidth);
    EXPECT_EQ(GS.ShardCount, RS.ShardCount);
    EXPECT_EQ(GS.ShardEdgeCutFraction, RS.ShardEdgeCutFraction);
  }
}

TEST(Graph, GeneratedGraphsAreSymmetric) {
  for (const Graph &G :
       {makeErdosRenyi(100, 300, 1), makeRmat(128, 500, 0.5, 0.2, 0.2, 2),
        makeRoadLattice(8, 8, 0.1, 3), makeMycielskian(6),
        makeCommunityGraph(10, 8, 0.5, 40, 4)})
    EXPECT_TRUE(G.isSymmetric()) << G.name();
}

TEST(Graph, CompleteDensity) {
  Graph G = makeComplete(20);
  EXPECT_EQ(G.numEdges(), 20 * 19);
  EXPECT_NEAR(G.stats().Density, 19.0 / 20.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Generators
//===----------------------------------------------------------------------===//

TEST(Generators, ErdosRenyiDeterministic) {
  Graph A = makeErdosRenyi(200, 1000, 42);
  Graph B = makeErdosRenyi(200, 1000, 42);
  EXPECT_EQ(A.adjacency().colIndices(), B.adjacency().colIndices());
}

TEST(Generators, ErdosRenyiSeedChangesGraph) {
  Graph A = makeErdosRenyi(200, 1000, 42);
  Graph B = makeErdosRenyi(200, 1000, 43);
  EXPECT_NE(A.adjacency().colIndices(), B.adjacency().colIndices());
}

TEST(Generators, RmatIsSkewedVsErdosRenyi) {
  Graph Er = makeErdosRenyi(512, 4000, 7);
  Graph Rm = makeRmat(512, 4000, 0.6, 0.15, 0.15, 7);
  EXPECT_GT(Rm.stats().DegreeCv, Er.stats().DegreeCv * 1.5);
  EXPECT_GT(Rm.stats().DegreeGini, Er.stats().DegreeGini);
}

TEST(Generators, RoadLatticeDegreesBounded) {
  Graph G = makeRoadLattice(10, 12, 0.0, 1);
  EXPECT_EQ(G.numNodes(), 120);
  EXPECT_LE(G.stats().MaxDegree, 4.0);
  // Interior nodes have degree 4: 2*(W-1)*H + 2*W*(H-1) directed edges.
  EXPECT_EQ(G.numEdges(), 2 * (9 * 12 + 10 * 11));
}

TEST(Generators, MycielskianRecurrence) {
  // n(k+1) = 2 n(k) + 1, e(k+1) = 3 e(k) + 2 n(k), starting from K2.
  int64_t N = 2, E = 2;
  for (int K = 3; K <= 8; ++K) {
    E = 3 * E + 2 * N;
    N = 2 * N + 1;
    Graph G = makeMycielskian(K);
    EXPECT_EQ(G.numNodes(), N) << "iteration " << K;
    EXPECT_EQ(G.numEdges(), E) << "iteration " << K;
  }
}

TEST(Generators, MycielskianIsTriangleFreeSmall) {
  // Mycielskians of triangle-free graphs are triangle-free; spot check M4.
  Graph G = makeMycielskian(4);
  const CsrMatrix &A = G.adjacency();
  DenseMatrix D = A.toDense();
  for (int64_t I = 0; I < A.rows(); ++I)
    for (int64_t J = 0; J < A.rows(); ++J)
      for (int64_t K = 0; K < A.rows(); ++K)
        if (D.at(I, J) > 0 && D.at(J, K) > 0) {
          EXPECT_FALSE(I != K && D.at(K, I) > 0 && I < J && J < K)
              << "triangle " << I << "," << J << "," << K;
        }
}

TEST(Generators, MycielskianAverageDegreeGrows) {
  // Node count doubles but edges triple per iteration: the average degree
  // climbs ~1.5x per step (density E/N^2 actually falls).
  EXPECT_GT(makeMycielskian(9).stats().AvgDegree,
            1.8 * makeMycielskian(7).stats().AvgDegree);
}

TEST(Generators, CommunityInterEdgesCrossCommunities) {
  Graph G = makeCommunityGraph(5, 10, 1.0, 0, 9);
  // With no inter edges and p=1, every edge stays within a 10-node block.
  const CsrMatrix &A = G.adjacency();
  const auto &Offsets = A.rowOffsets();
  const auto &Cols = A.colIndices();
  for (int64_t R = 0; R < A.rows(); ++R)
    for (int64_t K = Offsets[static_cast<size_t>(R)];
         K < Offsets[static_cast<size_t>(R) + 1]; ++K)
      EXPECT_EQ(R / 10, Cols[static_cast<size_t>(K)] / 10);
}

TEST(Generators, EvaluationSuiteMatchesPaperOrdering) {
  std::vector<Graph> Suite = makeEvaluationSuite();
  ASSERT_EQ(Suite.size(), 6u);
  EXPECT_EQ(evaluationGraphCodes().size(), 6u);
  // Density ordering: mycielskian stand-in is the densest; the road
  // network is the sparsest (paper Table II).
  const GraphStats &Mc = Suite[2].stats();
  const GraphStats &Bl = Suite[3].stats();
  for (const Graph &G : Suite) {
    EXPECT_GE(Mc.Density, G.stats().Density) << G.name();
    EXPECT_LE(Bl.Density, G.stats().Density) << G.name();
  }
  // Power-law stand-ins (RD, OP) are more skewed than the road network.
  EXPECT_GT(Suite[0].stats().DegreeCv, Bl.DegreeCv);
  EXPECT_GT(Suite[5].stats().DegreeCv, Bl.DegreeCv);
}

TEST(Generators, TrainingSuiteDisjointNamesAndNonEmpty) {
  std::vector<Graph> Suite = makeTrainingSuite();
  EXPECT_GE(Suite.size(), 12u);
  for (const Graph &G : Suite) {
    EXPECT_GT(G.numNodes(), 0);
    EXPECT_GT(G.numEdges(), 0);
  }
}

TEST(Generators, UnknownEvaluationGraphAborts) {
  EXPECT_DEATH(makeEvaluationGraph("nope"), "unknown evaluation graph");
}

//===----------------------------------------------------------------------===//
// Matrix Market IO
//===----------------------------------------------------------------------===//

TEST(MatrixMarket, ParseSymmetricPattern) {
  std::string Text = "%%MatrixMarket matrix coordinate pattern symmetric\n"
                     "% a comment\n"
                     "3 3 2\n"
                     "2 1\n"
                     "3 2\n";
  std::string Error;
  auto G = parseMatrixMarket(Text, "tiny", &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  EXPECT_EQ(G->numNodes(), 3);
  EXPECT_EQ(G->numEdges(), 4); // Symmetric: both directions stored.
  EXPECT_TRUE(G->isSymmetric());
}

TEST(MatrixMarket, ParseGeneralReal) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n"
                     "1 2 3.5\n"
                     "2 1 1.25\n";
  auto G = parseMatrixMarket(Text, "w");
  ASSERT_TRUE(G.has_value());
  EXPECT_TRUE(G->adjacency().isWeighted());
  EXPECT_FLOAT_EQ(G->adjacency().values()[0], 3.5f);
}

TEST(MatrixMarket, RejectsBadHeader) {
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket("%%MatrixMarket matrix array real general\n",
                                 "x", &Error)
                   .has_value());
  EXPECT_NE(Error.find("coordinate"), std::string::npos);
}

TEST(MatrixMarket, RejectsOutOfBoundsEntry) {
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n"
                     "2 2 1\n"
                     "3 1\n";
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket(Text, "x", &Error).has_value());
  EXPECT_NE(Error.find("out of bounds"), std::string::npos);
}

TEST(MatrixMarket, RejectsEntryCountMismatch) {
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n"
                     "2 2 2\n"
                     "1 2\n";
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket(Text, "x", &Error).has_value());
}

namespace {

/// Parses \p Text, expecting a rejection; \returns the error message.
std::string rejection(const std::string &Text) {
  std::string Error;
  EXPECT_FALSE(parseMatrixMarket(Text, "x", &Error).has_value()) << Text;
  return Error;
}

/// \returns true if \p Error names 1-based line \p Line and contains
/// \p Reason.
::testing::AssertionResult namesLine(const std::string &Error, int Line,
                                     const std::string &Reason) {
  std::string Prefix = "line " + std::to_string(Line) + ": ";
  if (Error.rfind(Prefix, 0) != 0 || Error.find(Reason) == std::string::npos)
    return ::testing::AssertionFailure()
           << "'" << Error << "' does not start with '" << Prefix
           << "' and mention '" << Reason << "'";
  return ::testing::AssertionSuccess();
}

const char *const PatternGeneral =
    "%%MatrixMarket matrix coordinate pattern general\n";

} // namespace

TEST(MatrixMarket, RejectionsNameTheirLine) {
  EXPECT_TRUE(namesLine(rejection(""), 1, "empty"));
  EXPECT_TRUE(namesLine(rejection("%%MatrixMarket matrix array real general\n"),
                        1, "coordinate"));
  EXPECT_TRUE(namesLine(rejection("%%MatrixMarket matrix coordinate\n"), 1,
                        "header"));
  EXPECT_TRUE(namesLine(
      rejection("%%MatrixMarket matrix coordinate complex general\n3 3 0\n"),
      1, "field: complex"));
  EXPECT_TRUE(namesLine(
      rejection("%%MatrixMarket matrix coordinate pattern hermitian\n3 3 0\n"),
      1, "symmetry: hermitian"));
  // Missing size line: only comments follow the header.
  EXPECT_TRUE(namesLine(rejection(std::string(PatternGeneral) + "% c\n\n"), 4,
                        "missing matrix market size line"));
  EXPECT_TRUE(namesLine(rejection(std::string(PatternGeneral) + "% c\n3 3\n"),
                        3, "malformed matrix market size line"));
  EXPECT_TRUE(namesLine(
      rejection(std::string(PatternGeneral) + "3 3 1 9\n1 1\n"), 2,
      "malformed matrix market size line"));
  EXPECT_TRUE(namesLine(rejection(std::string(PatternGeneral) + "3 x 1\n"), 2,
                        "malformed matrix market size line"));
  EXPECT_TRUE(namesLine(rejection(std::string(PatternGeneral) + "3 4 1\n"), 2,
                        "square"));
  EXPECT_TRUE(namesLine(rejection(std::string(PatternGeneral) + "0 0 0\n"), 2,
                        "square"));
  EXPECT_TRUE(namesLine(rejection(std::string(PatternGeneral) + "3 3 -1\n"), 2,
                        "negative"));
  EXPECT_TRUE(namesLine(
      rejection(std::string(PatternGeneral) + "3 3 2\n1 2\n% c\n2 z\n"), 5,
      "malformed matrix market entry: 2 z"));
  EXPECT_TRUE(namesLine(rejection(std::string(PatternGeneral) + "3 3 1\n7\n"),
                        3, "malformed matrix market entry"));
  EXPECT_TRUE(namesLine(
      rejection("%%MatrixMarket matrix coordinate real general\n"
                "3 3 2\n1 2 0.5\n2 3 nope\n"),
      4, "malformed matrix market entry: 2 3 nope"));
  EXPECT_TRUE(namesLine(
      rejection(std::string(PatternGeneral) + "3 3 2\n1 2\n\n3 4\n"), 5,
      "out of bounds: 3 4"));
  EXPECT_TRUE(namesLine(rejection(std::string(PatternGeneral) + "3 3 1\n0 1\n"),
                        3, "out of bounds"));
  // Too few entries: the error points just past the last line.
  EXPECT_TRUE(namesLine(
      rejection(std::string(PatternGeneral) + "3 3 3\n1 2\n2 3\n"), 5,
      "entry count mismatch: declared 3, read 2"));
  EXPECT_TRUE(namesLine(
      rejection(std::string(PatternGeneral) + "3 3 3\n1 2\n2 3"), 4,
      "entry count mismatch"));
}

TEST(MatrixMarket, AcceptsCrlfTabsCommentsAndTrailingLines) {
  // CRLF endings, tabs, blank and comment lines between entries, and
  // lines after the declared count (ignored, even when malformed).
  std::string Text = "%%MatrixMarket\tmatrix coordinate pattern general\r\n"
                     "% comment\r\n"
                     "\r\n"
                     "  4\t4   3 \r\n"
                     "1\t2\r\n"
                     "\r\n"
                     "   % indented comment\r\n"
                     "3 4\r\n"
                     "\t4 1\t\r\n"
                     "not an entry\r\n";
  std::string Error;
  auto G = parseMatrixMarket(Text, "crlf", &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  EXPECT_EQ(G->numNodes(), 4);
  EXPECT_EQ(G->numEdges(), 3);
  EXPECT_FALSE(G->adjacency().isWeighted());
  const auto &Offsets = G->adjacency().rowOffsets();
  const auto &Cols = G->adjacency().colIndices();
  EXPECT_EQ(std::vector<int64_t>(Offsets.begin(), Offsets.end()),
            (std::vector<int64_t>{0, 1, 1, 2, 3}));
  EXPECT_EQ(std::vector<int32_t>(Cols.begin(), Cols.end()),
            (std::vector<int32_t>{1, 3, 0}));
}

TEST(MatrixMarket, IntegerFieldAndSymmetricDiagonal) {
  // An integer field is read as weights; a symmetric diagonal entry is
  // stored once, off-diagonal entries both ways.
  std::string Text = "%%MatrixMarket matrix coordinate integer symmetric\n"
                     "3 3 3\n"
                     "2 2 5\n"
                     "3 1 -2\n"
                     "1 1 7\n";
  std::string Error;
  auto G = parseMatrixMarket(Text, "int", &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  const CsrMatrix &A = G->adjacency();
  ASSERT_TRUE(A.isWeighted());
  ASSERT_EQ(A.nnz(), 4);
  const auto &Cols = A.colIndices();
  EXPECT_EQ(std::vector<int32_t>(Cols.begin(), Cols.end()),
            (std::vector<int32_t>{0, 2, 1, 0}));
  EXPECT_EQ(A.values()[0], 7.0f);
  EXPECT_EQ(A.values()[1], -2.0f);
  EXPECT_EQ(A.values()[2], 5.0f);
  EXPECT_EQ(A.values()[3], -2.0f);
}

TEST(MatrixMarket, RealValuesKeepTheirBitsAndDuplicatesSumInFileOrder) {
  std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 4\n"
                     "1 2 1e8\n"
                     "2 1 0.1\n"
                     "1 2 1\n"
                     "1 2 -1e8\n";
  auto G = parseMatrixMarket(Text, "w");
  ASSERT_TRUE(G.has_value());
  const CsrMatrix &A = G->adjacency();
  ASSERT_EQ(A.nnz(), 2);
  EXPECT_EQ(A.values()[0], (1e8f + 1.0f) + -1e8f); // 0 in float
  EXPECT_EQ(A.values()[1], static_cast<float>(0.1));
}

TEST(MatrixMarket, RejectsNodeCountBeyondInt32AtTheSizeLine) {
  // Neither count can be allocated: a reader that sized anything from
  // them would fail, not return an error.
  for (const char *Size : {"2147483648 2147483648 1\n",
                           "1125899906842624 1125899906842624 1\n"})
    EXPECT_TRUE(namesLine(
        rejection(std::string(PatternGeneral) + Size + "1 1\n"), 2,
        "exceeds the node limit"));
}

TEST(MatrixMarket, NodeCountIsBoundedByTheInputSize) {
  // Within int32, yet 16 GiB of row offsets from a 73-byte input.
  EXPECT_TRUE(namesLine(
      rejection(std::string(PatternGeneral) + "2147483647 2147483647 0\n"), 2,
      "exceeds the node limit 73 (one node per input byte"));
  // The budget is exactly the input's byte count, padding included.
  auto Sized = [](int64_t Nodes, size_t Bytes) {
    std::string Text = std::string(PatternGeneral) + std::to_string(Nodes) +
                       " " + std::to_string(Nodes) + " 0\n";
    return Text + std::string(Bytes - Text.size() - 1, '%') + "\n";
  };
  std::string Error;
  auto G = parseMatrixMarket(Sized(100, 100), "x", &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  EXPECT_EQ(G->numNodes(), 100);
  EXPECT_TRUE(namesLine(rejection(Sized(101, 100)), 2,
                        "exceeds the node limit 100"));
}

TEST(MatrixMarket, HugeDeclaredEntryCountReservesOnlyWhatTheBufferHolds) {
  // 2^50 declared entries: reserving them would need petabytes.
  for (const char *Kind : {"general", "symmetric"})
    EXPECT_TRUE(namesLine(
        rejection(std::string("%%MatrixMarket matrix coordinate pattern ") +
                  Kind + "\n4 4 1125899906842624\n1 2\n2 3\n"),
        5, "entry count mismatch: declared 1125899906842624, read 2"));
}

TEST(MatrixMarket, GeneratorGraphsRoundTripByteForByte) {
  std::vector<Graph> Graphs = {makeErdosRenyi(300, 1500, 11),
                               makeRmat(512, 4096, 0.57, 0.19, 0.19, 3),
                               makeCommunityGraph(8, 24, 0.3, 60, 5),
                               makeRoadLattice(20, 15, 0.05, 9),
                               makeMycielskian(6)};
  for (const Graph &G : Graphs) {
    std::string Path =
        ::testing::TempDir() + "/granii_roundtrip_" + G.name() + ".mtx";
    std::string Error;
    ASSERT_TRUE(writeMatrixMarket(G, Path, &Error)) << Error;
    auto Back = readMatrixMarket(Path, &Error);
    ASSERT_TRUE(Back.has_value()) << G.name() << ": " << Error;
    const CsrMatrix &A = G.adjacency(), &B = Back->adjacency();
    ASSERT_EQ(A.rows(), B.rows()) << G.name();
    ASSERT_EQ(A.nnz(), B.nnz()) << G.name();
    EXPECT_EQ(std::memcmp(A.rowOffsets().data(), B.rowOffsets().data(),
                          A.rowOffsets().size() * sizeof(int64_t)),
              0)
        << G.name();
    EXPECT_EQ(std::memcmp(A.colIndices().data(), B.colIndices().data(),
                          A.colIndices().size() * sizeof(int32_t)),
              0)
        << G.name();
    std::remove(Path.c_str());
  }
}

TEST(MatrixMarket, ReadRejectsADirectory) {
  std::string Error;
  EXPECT_FALSE(readMatrixMarket(::testing::TempDir(), &Error).has_value());
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  Graph G = makeErdosRenyi(40, 120, 77);
  std::string Path = ::testing::TempDir() + "/granii_roundtrip.mtx";
  std::string Error;
  ASSERT_TRUE(writeMatrixMarket(G, Path, &Error)) << Error;
  auto Back = readMatrixMarket(Path, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->numNodes(), G.numNodes());
  EXPECT_EQ(Back->adjacency().colIndices(), G.adjacency().colIndices());
  EXPECT_EQ(Back->adjacency().rowOffsets(), G.adjacency().rowOffsets());
}

TEST(MatrixMarket, ReadMissingFileFails) {
  std::string Error;
  EXPECT_FALSE(readMatrixMarket("/nonexistent/file.mtx", &Error).has_value());
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sampling
//===----------------------------------------------------------------------===//

TEST(Sampling, SeedNodesDistinctAndInRange) {
  Graph G = makeErdosRenyi(100, 400, 5);
  std::vector<int64_t> Seeds = sampleSeedNodes(G, 30, 11);
  std::set<int64_t> Unique(Seeds.begin(), Seeds.end());
  EXPECT_EQ(Unique.size(), 30u);
  for (int64_t S : Seeds) {
    EXPECT_GE(S, 0);
    EXPECT_LT(S, 100);
  }
}

TEST(Sampling, SeedCountClampedToGraph) {
  Graph G = makeRing(5);
  EXPECT_EQ(sampleSeedNodes(G, 50, 1).size(), 5u);
}

TEST(Sampling, InducedSubgraphKeepsInternalEdgesOnly) {
  Graph G = makeRing(6); // edges i -- i+1 mod 6
  SampledGraph S = induceSubgraph(G, {0, 1, 2, 4});
  EXPECT_EQ(S.Sampled.numNodes(), 4);
  // Kept: (0,1), (1,2) in both directions. Node 4 is isolated.
  EXPECT_EQ(S.Sampled.numEdges(), 4);
  EXPECT_TRUE(S.Sampled.isSymmetric());
}

TEST(Sampling, InducedSubgraphMapsIds) {
  Graph G = makeRing(6);
  SampledGraph S = induceSubgraph(G, {4, 0, 2});
  ASSERT_EQ(S.OriginalIds.size(), 3u);
  EXPECT_EQ(S.OriginalIds[0], 0);
  EXPECT_EQ(S.OriginalIds[2], 4);
}

TEST(Sampling, NeighborhoodRespectsReachability) {
  // Two disconnected rings; seeds in the first never reach the second.
  CooMatrix Coo(12, 12);
  for (int64_t I = 0; I < 6; ++I)
    Coo.addSymmetric(I, (I + 1) % 6);
  for (int64_t I = 6; I < 12; ++I)
    Coo.addSymmetric(I, I == 11 ? 6 : I + 1);
  Graph G("two-rings", Coo.toCsr());
  SampledGraph S = sampleNeighborhood(G, 1, 4, 8, /*Seed=*/2);
  for (int64_t Orig : S.OriginalIds) {
    bool FirstRing = S.OriginalIds[0] < 6;
    EXPECT_EQ(Orig < 6, FirstRing);
  }
}

TEST(Sampling, FanOutLimitsGrowth) {
  Graph G = makeStar(200);
  // One hop from the hub with fan-out 5 visits at most 1 + 5 nodes... but
  // seeds are random; use all seeds = hub by sampling 1 seed repeatedly.
  SampledGraph S = sampleNeighborhood(G, 1, 5, 1, 3);
  EXPECT_LE(S.Sampled.numNodes(), 1 + 5);
}

TEST(Sampling, DeterministicGivenSeed) {
  Graph G = makeErdosRenyi(150, 600, 8);
  SampledGraph A = sampleNeighborhood(G, 10, 4, 2, 99);
  SampledGraph B = sampleNeighborhood(G, 10, 4, 2, 99);
  EXPECT_EQ(A.OriginalIds, B.OriginalIds);
}
