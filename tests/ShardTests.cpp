//===- ShardTests.cpp - Partitioner, shard blocks, sharded kernels --------===//
///
/// Unit tests for the sharded-execution subsystem: golden edge-cut fixtures
/// on hand-built graphs, permutation round-trips, degenerate shard counts,
/// save/load round-trips of the mmap store, corruption/truncation death
/// tests, and bitwise equality of the sharded kernels against the
/// whole-graph SpMM at several shard and thread counts.
///
//===----------------------------------------------------------------------===//

#include "shard/Shard.h"
#include "shard/ShardExec.h"

#include "graph/Generators.h"
#include "kernels/Dispatch.h"
#include "kernels/Kernels.h"
#include "support/ThreadPool.h"
#include "tensor/CooMatrix.h"
#include "tensor/CscMatrix.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <span>
#include <string>
#include <vector>

using namespace granii;

namespace {

/// Deterministic pseudo-random fill so comparisons are reproducible.
void fillMatrix(DenseMatrix &M, uint64_t Seed) {
  uint64_t State = Seed * 6364136223846793005ull + 1442695040888963407ull;
  for (int64_t R = 0; R < M.rows(); ++R)
    for (int64_t C = 0; C < M.cols(); ++C) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      M.at(R, C) = static_cast<float>((State >> 40) & 0xffff) / 8192.0f - 4.0f;
    }
}

std::vector<float> randomEdgeValues(int64_t Nnz, uint64_t Seed) {
  std::vector<float> Vals(static_cast<size_t>(Nnz));
  uint64_t State = Seed;
  for (auto &V : Vals) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    V = static_cast<float>((State >> 44) & 0xfff) / 1024.0f - 2.0f;
  }
  return Vals;
}

void expectValidPartition(const shard::GraphPartition &P, int64_t Nodes) {
  ASSERT_EQ(P.ShardOf.size(), static_cast<size_t>(Nodes));
  ASSERT_EQ(P.Owned.size(), static_cast<size_t>(P.NumShards));
  std::vector<char> Seen(static_cast<size_t>(Nodes), 0);
  for (int S = 0; S < P.NumShards; ++S) {
    int32_t Prev = -1;
    for (int32_t V : P.Owned[static_cast<size_t>(S)]) {
      ASSERT_GT(V, Prev) << "owned ids must be ascending";
      ASSERT_LT(V, Nodes);
      ASSERT_EQ(P.ShardOf[static_cast<size_t>(V)], S);
      ASSERT_FALSE(Seen[static_cast<size_t>(V)]);
      Seen[static_cast<size_t>(V)] = 1;
      Prev = V;
    }
  }
  for (char C : Seen)
    EXPECT_TRUE(C) << "every vertex must be owned by exactly one shard";
}

bool bitwiseEqual(const DenseMatrix &A, const DenseMatrix &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    return false;
  return std::memcmp(A.data(), B.data(),
                     sizeof(float) * static_cast<size_t>(A.rows()) *
                         static_cast<size_t>(A.cols())) == 0;
}

/// Two K5 cliques joined by a single bridge edge: the minimum 2-way cut is
/// the bridge (2 directed stored edges).
CsrMatrix twoCliquesWithBridge() {
  CooMatrix Coo(10, 10);
  for (int Base : {0, 5})
    for (int I = 0; I < 5; ++I)
      for (int J = I + 1; J < 5; ++J)
        Coo.addSymmetric(Base + I, Base + J);
  Coo.addSymmetric(4, 5); // bridge
  return Coo.toCsr();
}

TEST(ShardPartition, GoldenCutTwoCliquesBridge) {
  CsrMatrix Adj = twoCliquesWithBridge();
  shard::GraphPartition P = shard::partitionGraph(Adj, 2);
  expectValidPartition(P, Adj.rows());
  EXPECT_EQ(P.NumShards, 2);
  EXPECT_EQ(P.TotalEdges, Adj.nnz());
  // The partitioner must find the bridge: exactly the two directed bridge
  // edges are cut, and each clique lands whole in one shard.
  EXPECT_EQ(P.CutEdges, 2);
  EXPECT_EQ(P.Owned[0].size(), 5u);
  EXPECT_EQ(P.Owned[1].size(), 5u);
  for (int V = 0; V < 5; ++V)
    EXPECT_EQ(P.ShardOf[static_cast<size_t>(V)],
              P.ShardOf[0]);
  for (int V = 5; V < 10; ++V)
    EXPECT_EQ(P.ShardOf[static_cast<size_t>(V)], P.ShardOf[9]);
  EXPECT_NE(P.ShardOf[0], P.ShardOf[9]);
  EXPECT_DOUBLE_EQ(P.cutFraction(), 2.0 / static_cast<double>(Adj.nnz()));
}

TEST(ShardPartition, GoldenCutPathGraph) {
  // A path of 8 vertices split in two: any contiguous split cuts exactly
  // one undirected edge (2 stored directed edges).
  CooMatrix Coo(8, 8);
  for (int V = 0; V + 1 < 8; ++V)
    Coo.addSymmetric(V, V + 1);
  CsrMatrix Adj = Coo.toCsr();
  shard::GraphPartition P = shard::partitionGraph(Adj, 2);
  expectValidPartition(P, 8);
  EXPECT_EQ(P.CutEdges, 2);
  EXPECT_EQ(P.Owned[0].size(), 4u);
  EXPECT_EQ(P.Owned[1].size(), 4u);
}

TEST(ShardPartition, DeterministicAcrossCalls) {
  Graph G = makeRmat(600, 6000, 0.5, 0.2, 0.2, 7, "det");
  shard::GraphPartition A = shard::partitionGraph(G.adjacency(), 4);
  shard::GraphPartition B = shard::partitionGraph(G.adjacency(), 4);
  EXPECT_EQ(A.ShardOf, B.ShardOf);
  EXPECT_EQ(A.CutEdges, B.CutEdges);
}

TEST(ShardPartition, SingleShardDegenerate) {
  Graph G = makeRmat(100, 600, 0.5, 0.2, 0.2, 3, "one");
  shard::GraphPartition P = shard::partitionGraph(G.adjacency(), 1);
  expectValidPartition(P, 100);
  EXPECT_EQ(P.NumShards, 1);
  EXPECT_EQ(P.CutEdges, 0);
  EXPECT_EQ(P.Owned[0].size(), 100u);
  EXPECT_DOUBLE_EQ(P.cutFraction(), 0.0);
}

TEST(ShardPartition, ClampsShardCountToNodes) {
  CooMatrix Coo(3, 3);
  Coo.addSymmetric(0, 1);
  Coo.addSymmetric(1, 2);
  CsrMatrix Adj = Coo.toCsr();
  shard::GraphPartition P = shard::partitionGraph(Adj, 8);
  expectValidPartition(P, 3);
  EXPECT_EQ(P.NumShards, 3);
}

TEST(ShardPartition, EmptyGraph) {
  CsrMatrix Adj; // 0 x 0
  shard::GraphPartition P = shard::partitionGraph(Adj, 4);
  EXPECT_EQ(P.NumShards, 1);
  EXPECT_TRUE(P.ShardOf.empty());
  EXPECT_EQ(P.CutEdges, 0);
  EXPECT_DOUBLE_EQ(P.cutFraction(), 0.0);
}

TEST(ShardPartition, IsolatedVerticesAllOwned) {
  // Vertices with no edges must still be assigned somewhere.
  CooMatrix Coo(12, 12);
  Coo.addSymmetric(0, 1); // the only edge; 2..11 are isolated
  CsrMatrix Adj = Coo.toCsr();
  shard::GraphPartition P = shard::partitionGraph(Adj, 3);
  expectValidPartition(P, 12);
}

TEST(ShardPartition, PermutationRoundTrip) {
  Graph G = makeRmat(400, 3000, 0.55, 0.15, 0.15, 11, "perm");
  shard::GraphPartition P = shard::partitionGraph(G.adjacency(), 4);
  Permutation Perm = shard::shardPermutation(P);
  ASSERT_EQ(Perm.size(), 400);
  // Shard-major: walking new ids in order visits shard 0's vertices first.
  int32_t PrevShard = 0;
  for (int64_t NewId = 0; NewId < Perm.size(); ++NewId) {
    int32_t S = P.ShardOf[static_cast<size_t>(
        Perm.newToOld(NewId))];
    EXPECT_GE(S, PrevShard) << "permutation must be shard-major";
    PrevShard = S;
  }
  // Round trip through the inverse is the identity.
  Permutation Inv = Perm.inverse();
  for (int32_t V = 0; V < 400; ++V) {
    EXPECT_EQ(Perm.newToOld(Perm.oldToNew(V)), V);
    EXPECT_EQ(Inv.newToOld(V), Perm.oldToNew(V));
  }
}

TEST(ShardAuto, CountThresholds) {
  EXPECT_EQ(shard::autoShardCount(0), 0);
  EXPECT_EQ(shard::autoShardCount(1000000), 0);
  EXPECT_GE(shard::autoShardCount(int64_t(1) << 21), 2);
  EXPECT_EQ(shard::autoShardCount(int64_t(64) << 20), 4);
  EXPECT_EQ(shard::autoShardCount(int64_t(1) << 40), 16) << "clamped";
}

TEST(ShardAuto, AnnotateStats) {
  Graph G = makeRmat(300, 2400, 0.5, 0.2, 0.2, 5, "ann");
  GraphStats Stats = G.stats();
  EXPECT_DOUBLE_EQ(Stats.ShardCount, 1.0);
  EXPECT_DOUBLE_EQ(Stats.ShardEdgeCutFraction, 0.0);
  shard::annotateShardStats(Stats, G.adjacency(), 4);
  EXPECT_DOUBLE_EQ(Stats.ShardCount, 4.0);
  EXPECT_GT(Stats.ShardEdgeCutFraction, 0.0);
  EXPECT_LT(Stats.ShardEdgeCutFraction, 1.0);
}

//===----------------------------------------------------------------------===//
// Shard blocks
//===----------------------------------------------------------------------===//

TEST(ShardBlocks, StructureMatchesCsr) {
  Graph G = makeRmat(250, 1800, 0.55, 0.15, 0.15, 13, "blk");
  const CsrMatrix &Adj = G.adjacency();
  shard::GraphPartition P = shard::partitionGraph(Adj, 3);
  shard::ShardSet Set = shard::ShardSet::build(Adj, P);
  ASSERT_EQ(Set.numShards(), 3);
  EXPECT_EQ(Set.numNodes(), Adj.rows());
  EXPECT_EQ(Set.nnz(), Adj.nnz());
  EXPECT_FALSE(Set.mapped());

  int64_t RowsSeen = 0, EntriesSeen = 0;
  for (const shard::ShardBlockView &B : Set.blocks()) {
    ASSERT_EQ(B.RowOffsets.size(), B.OwnedRows.size() + 1);
    for (size_t R = 0; R < B.OwnedRows.size(); ++R) {
      int32_t Row = B.OwnedRows[R];
      int64_t Begin = Adj.rowOffsets()[static_cast<size_t>(Row)];
      int64_t End = Adj.rowOffsets()[static_cast<size_t>(Row) + 1];
      // Same number of entries as the CSR row, in the same order, with
      // local columns resolving back to the original global columns.
      ASSERT_EQ(B.RowOffsets[R + 1] - B.RowOffsets[R], End - Begin);
      EXPECT_EQ(B.ValBase[R], Begin);
      for (int64_t E = Begin; E < End; ++E) {
        int32_t Slot = B.LocalCols[static_cast<size_t>(
            B.RowOffsets[R] + (E - Begin))];
        ASSERT_GE(Slot, 0);
        ASSERT_LT(static_cast<size_t>(Slot), B.Referenced.size());
        EXPECT_EQ(B.Referenced[static_cast<size_t>(Slot)],
                  Adj.colIndices()[static_cast<size_t>(E)]);
      }
    }
    for (size_t I = 1; I < B.Referenced.size(); ++I)
      EXPECT_LT(B.Referenced[I - 1], B.Referenced[I]);
    RowsSeen += static_cast<int64_t>(B.OwnedRows.size());
    EntriesSeen += static_cast<int64_t>(B.LocalCols.size());
  }
  EXPECT_EQ(RowsSeen, Adj.rows());
  EXPECT_EQ(EntriesSeen, Adj.nnz());
}

TEST(ShardBlocks, BackwardSliceMatchesCsc) {
  Graph G = makeRmat(200, 1500, 0.5, 0.2, 0.2, 17, "bwd");
  CsrMatrix Adj = G.adjacency();
  Adj.setValues(randomEdgeValues(Adj.nnz(), 23));
  shard::GraphPartition P = shard::partitionGraph(Adj, 4);
  shard::ShardSet Set = shard::ShardSet::build(Adj, P);
  CscMatrix Csc = CscMatrix::fromCsr(Adj);

  for (const shard::ShardBlockView &B : Set.blocks()) {
    ASSERT_EQ(B.ColOffsets.size(), B.OwnedCols.size() + 1);
    for (size_t C = 0; C < B.OwnedCols.size(); ++C) {
      int32_t Col = B.OwnedCols[C];
      int64_t Begin = Csc.colOffsets()[static_cast<size_t>(Col)];
      int64_t End = Csc.colOffsets()[static_cast<size_t>(Col) + 1];
      ASSERT_EQ(B.ColOffsets[C + 1] - B.ColOffsets[C], End - Begin);
      for (int64_t E = Begin; E < End; ++E) {
        size_t Local = static_cast<size_t>(B.ColOffsets[C] + (E - Begin));
        // Same global row, same CSR value index, in the CSC's order.
        EXPECT_EQ(B.GradReferenced[static_cast<size_t>(B.RowSlots[Local])],
                  Csc.rowIndices()[static_cast<size_t>(E)]);
        EXPECT_EQ(B.CsrIdx[Local],
                  Csc.csrIndices()[static_cast<size_t>(E)]);
      }
    }
  }
}

TEST(ShardBlocks, EmptyShardsExecuteAsNoOps) {
  // 3 nodes, 8 requested shards -> clamped to 3; build still works and the
  // sharded product matches the whole-graph one.
  CooMatrix Coo(3, 3);
  Coo.addSymmetric(0, 1);
  CsrMatrix Adj = Coo.toCsr();
  shard::GraphPartition P = shard::partitionGraph(Adj, 8);
  shard::ShardSet Set = shard::ShardSet::build(Adj, P);
  DenseMatrix B(3, 4), Want(3, 4), Got(3, 4);
  fillMatrix(B, 31);
  kernels::spmmInto(Adj, {}, B, Want);
  shard::ShardStaging Stage;
  shard::shardedSpmmInto(Set, Stage, {}, B, Got);
  EXPECT_TRUE(bitwiseEqual(Want, Got));
}

//===----------------------------------------------------------------------===//
// Sharded kernels: bitwise vs whole-graph
//===----------------------------------------------------------------------===//

class ShardKernelBitwise : public ::testing::Test {
protected:
  void TearDown() override { ThreadPool::get().setNumThreads(0); }
};

TEST_F(ShardKernelBitwise, ForwardWeightedAndUnitWeights) {
  Graph G = makeRmat(500, 5000, 0.55, 0.15, 0.15, 41, "fw");
  CsrMatrix Adj = G.adjacency();
  Adj.setValues(randomEdgeValues(Adj.nnz(), 77));
  DenseMatrix B(Adj.rows(), 24);
  fillMatrix(B, 9);

  for (bool Weighted : {true, false}) {
    const std::span<const float> Vals =
        Weighted ? std::span<const float>(Adj.values())
                 : std::span<const float>();
    DenseMatrix Want(Adj.rows(), 24);
    kernels::spmmInto(Adj, Vals, B, Want);
    for (int Shards : {1, 2, 4, 7}) {
      shard::GraphPartition P = shard::partitionGraph(Adj, Shards);
      shard::ShardSet Set = shard::ShardSet::build(Adj, P);
      for (int Threads : {1, 4}) {
        ThreadPool::get().setNumThreads(Threads);
        shard::ShardStaging Stage;
        DenseMatrix Got(Adj.rows(), 24);
        fillMatrix(Got, 999); // poison: kernel must fully overwrite
        shard::shardedSpmmInto(Set, Stage, Vals, B, Got);
        EXPECT_TRUE(bitwiseEqual(Want, Got))
            << "weighted " << Weighted << " shards " << Shards
            << " threads " << Threads;
      }
    }
  }
}

TEST_F(ShardKernelBitwise, ForwardUnweighted) {
  Graph G = makeRmat(300, 2500, 0.5, 0.2, 0.2, 51, "uw");
  const CsrMatrix &Adj = G.adjacency();
  ASSERT_TRUE(Adj.values().empty());
  DenseMatrix B(Adj.rows(), 16);
  fillMatrix(B, 3);
  DenseMatrix Want(Adj.rows(), 16);
  kernels::spmmInto(Adj, Adj.values(), B, Want);
  shard::GraphPartition P = shard::partitionGraph(Adj, 3);
  shard::ShardSet Set = shard::ShardSet::build(Adj, P);
  shard::ShardStaging Stage;
  DenseMatrix Got(Adj.rows(), 16);
  shard::shardedSpmmInto(Set, Stage, Adj.values(), B, Got);
  EXPECT_TRUE(bitwiseEqual(Want, Got));
}

TEST_F(ShardKernelBitwise, BackwardTransposed) {
  Graph G = makeRmat(400, 3600, 0.55, 0.15, 0.15, 61, "bw");
  CsrMatrix Adj = G.adjacency();
  Adj.setValues(randomEdgeValues(Adj.nnz(), 87));
  CscMatrix Csc = CscMatrix::fromCsr(Adj);
  DenseMatrix DY(Adj.rows(), 20);
  fillMatrix(DY, 15);

  for (bool Weighted : {true, false}) {
    const std::span<const float> Vals =
        Weighted ? std::span<const float>(Adj.values())
                 : std::span<const float>();
    DenseMatrix Want(Adj.rows(), 20);
    kernels::spmmCscTransposedInto(Csc, Vals, DY, Want);
    for (int Shards : {2, 4}) {
      shard::GraphPartition P = shard::partitionGraph(Adj, Shards);
      shard::ShardSet Set = shard::ShardSet::build(Adj, P);
      for (int Threads : {1, 4}) {
        ThreadPool::get().setNumThreads(Threads);
        shard::ShardStaging Stage;
        DenseMatrix Got(Adj.rows(), 20);
        fillMatrix(Got, 999);
        shard::shardedSpmmCscTransposedInto(Set, Stage, Vals, DY, Got);
        EXPECT_TRUE(bitwiseEqual(Want, Got))
            << "weighted " << Weighted << " shards " << Shards
            << " threads " << Threads;
      }
    }
  }
}

TEST_F(ShardKernelBitwise, StagingReachesSteadyState) {
  Graph G = makeRmat(300, 2400, 0.5, 0.2, 0.2, 71, "ss");
  const CsrMatrix &Adj = G.adjacency();
  shard::GraphPartition P = shard::partitionGraph(Adj, 4);
  shard::ShardSet Set = shard::ShardSet::build(Adj, P);
  shard::ShardStaging Stage;
  EXPECT_GT(Stage.ensureForward(Set, 32), 0u) << "cold start grows";
  EXPECT_EQ(Stage.ensureForward(Set, 32), 0u);
  EXPECT_EQ(Stage.ensureForward(Set, 16), 0u)
      << "narrower steps reuse the high-water capacity";
  EXPECT_GT(Stage.ensureForward(Set, 64), 0u) << "wider steps grow once";
  EXPECT_EQ(Stage.ensureForward(Set, 64), 0u);
  EXPECT_GT(Stage.ensureBackward(Set, 64), 0u);
  EXPECT_EQ(Stage.ensureBackward(Set, 64), 0u);
}

TEST_F(ShardKernelBitwise, EmptyValueSpanMeansUnitWeightsAtEveryIsa) {
  // The unit-weight contract shared by every SpMM entry point: an empty
  // value span adds each neighbor row as it is, whatever values the
  // matrix carries. The reference is that add sequence in CSR order, so
  // all three kernels must match it bit for bit at every ISA level.
  Graph G = makeRmat(300, 2600, 0.55, 0.15, 0.15, 81, "unit");
  CsrMatrix Adj = G.adjacency();
  Adj.setValues(randomEdgeValues(Adj.nnz(), 97));
  const int64_t K = 37; // vector bodies plus a scalar tail at every width
  DenseMatrix B(Adj.rows(), K);
  fillMatrix(B, 13);

  DenseMatrix Ref(Adj.rows(), K);
  for (int64_t R = 0; R < Adj.rows(); ++R) {
    float *Out = Ref.rowPtr(R);
    std::fill(Out, Out + K, 0.0f);
    for (int64_t E = Adj.rowOffsets()[static_cast<size_t>(R)];
         E < Adj.rowOffsets()[static_cast<size_t>(R) + 1]; ++E) {
      const float *Src = B.rowPtr(Adj.colIndices()[static_cast<size_t>(E)]);
      for (int64_t J = 0; J < K; ++J)
        Out[J] += Src[J];
    }
  }
  // Column c of A^T is row c of A, in the same order, so the transposed
  // kernel over A^T's CSC computes A * B.
  CscMatrix CscOfT = CscMatrix::fromCsr(Adj.transposed());
  shard::ShardSet Set =
      shard::ShardSet::build(Adj, shard::partitionGraph(Adj, 4));

  const kernels::IsaLevel Entry = kernels::activeIsaLevel();
  for (kernels::IsaLevel Level : kernels::supportedIsaLevels()) {
    SCOPED_TRACE(kernels::isaLevelName(Level));
    ASSERT_TRUE(kernels::setIsaLevel(Level));
    DenseMatrix Whole(Adj.rows(), K), Csc(Adj.rows(), K),
        Sharded(Adj.rows(), K);
    kernels::spmmInto(Adj, {}, B, Whole);
    kernels::spmmCscTransposedInto(CscOfT, {}, B, Csc);
    shard::ShardStaging Stage;
    shard::shardedSpmmInto(Set, Stage, {}, B, Sharded);
    const size_t Bytes = static_cast<size_t>(Ref.size()) * sizeof(float);
    EXPECT_EQ(std::memcmp(Whole.data(), Ref.data(), Bytes), 0) << "spmm";
    EXPECT_EQ(std::memcmp(Csc.data(), Whole.data(), Bytes), 0)
        << "spmm_csc_t";
    EXPECT_EQ(std::memcmp(Sharded.data(), Whole.data(), Bytes), 0)
        << "sharded spmm";
  }
  kernels::setIsaLevel(Entry);
}

//===----------------------------------------------------------------------===//
// mmap store
//===----------------------------------------------------------------------===//

class ShardStore : public ::testing::Test {
protected:
  std::string Path;
  void SetUp() override {
    Path = ::testing::TempDir() + "shard_store_" +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + ".grshard";
  }
  void TearDown() override { std::remove(Path.c_str()); }

  static std::vector<char> slurp(const std::string &P) {
    std::ifstream In(P, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  }
  static void spill(const std::string &P, const std::vector<char> &Bytes) {
    std::ofstream Out(P, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
};

TEST_F(ShardStore, SaveLoadRoundTrip) {
  Graph G = makeRmat(350, 3000, 0.55, 0.15, 0.15, 91, "st");
  CsrMatrix Adj = G.adjacency();
  Adj.setValues(randomEdgeValues(Adj.nnz(), 19));
  shard::GraphPartition P = shard::partitionGraph(Adj, 4);
  shard::ShardSet Built = shard::ShardSet::build(Adj, P);
  std::string Err;
  ASSERT_TRUE(Built.save(Path, &Err)) << Err;

  shard::ShardSet Loaded = shard::ShardSet::load(Path);
  EXPECT_TRUE(Loaded.mapped());
  ASSERT_EQ(Loaded.numShards(), Built.numShards());
  EXPECT_EQ(Loaded.numNodes(), Built.numNodes());
  EXPECT_EQ(Loaded.nnz(), Built.nnz());
  for (int S = 0; S < Built.numShards(); ++S) {
    const auto &A = Built.blocks()[static_cast<size_t>(S)];
    const auto &B = Loaded.blocks()[static_cast<size_t>(S)];
    EXPECT_TRUE(std::equal(A.OwnedRows.begin(), A.OwnedRows.end(),
                           B.OwnedRows.begin(), B.OwnedRows.end()));
    EXPECT_TRUE(std::equal(A.LocalCols.begin(), A.LocalCols.end(),
                           B.LocalCols.begin(), B.LocalCols.end()));
    EXPECT_TRUE(std::equal(A.CsrIdx.begin(), A.CsrIdx.end(), B.CsrIdx.begin(),
                           B.CsrIdx.end()));
  }

  // A loaded (mapped) set executes bitwise identically to the built one.
  DenseMatrix B(Adj.rows(), 12), Want(Adj.rows(), 12), Got(Adj.rows(), 12);
  fillMatrix(B, 5);
  shard::ShardStaging S1, S2;
  shard::shardedSpmmInto(Built, S1, Adj.values(), B, Want);
  shard::shardedSpmmInto(Loaded, S2, Adj.values(), B, Got);
  EXPECT_TRUE(bitwiseEqual(Want, Got));

  // A saved copy of a mapped set round-trips too (save-from-mmap path).
  std::string Path2 = Path + ".copy";
  ASSERT_TRUE(Loaded.save(Path2, &Err)) << Err;
  EXPECT_EQ(slurp(Path), slurp(Path2));
  std::remove(Path2.c_str());
}

using ShardStoreDeath = ShardStore;

TEST_F(ShardStoreDeath, TruncatedFileAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph G = makeRmat(120, 900, 0.5, 0.2, 0.2, 33, "tr");
  shard::GraphPartition P = shard::partitionGraph(G.adjacency(), 2);
  shard::ShardSet Built = shard::ShardSet::build(G.adjacency(), P);
  ASSERT_TRUE(Built.save(Path));
  std::vector<char> Bytes = slurp(Path);
  ASSERT_GT(Bytes.size(), 128u);
  Bytes.resize(Bytes.size() / 2);
  spill(Path, Bytes);
  EXPECT_DEATH(shard::ShardSet::load(Path), "shard");
}

TEST_F(ShardStoreDeath, CorruptHeaderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph G = makeRmat(120, 900, 0.5, 0.2, 0.2, 34, "ch");
  shard::GraphPartition P = shard::partitionGraph(G.adjacency(), 2);
  shard::ShardSet Built = shard::ShardSet::build(G.adjacency(), P);
  ASSERT_TRUE(Built.save(Path));
  std::vector<char> Bytes = slurp(Path);
  Bytes[3] ^= 0x40; // damage the magic
  spill(Path, Bytes);
  EXPECT_DEATH(shard::ShardSet::load(Path), "shard");
}

TEST_F(ShardStoreDeath, CorruptPayloadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph G = makeRmat(120, 900, 0.5, 0.2, 0.2, 35, "cp");
  shard::GraphPartition P = shard::partitionGraph(G.adjacency(), 2);
  shard::ShardSet Built = shard::ShardSet::build(G.adjacency(), P);
  ASSERT_TRUE(Built.save(Path));
  std::vector<char> Bytes = slurp(Path);
  // Smash the tail of the payload with out-of-range ids; structural
  // validation must reject the image regardless of which array they hit.
  for (size_t I = Bytes.size() - 64; I < Bytes.size(); ++I)
    Bytes[I] = static_cast<char>(0xff);
  spill(Path, Bytes);
  EXPECT_DEATH(shard::ShardSet::load(Path), "shard");
}

TEST_F(ShardStoreDeath, MissingFileAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(shard::ShardSet::load(Path + ".does-not-exist"), "shard");
}

} // namespace
