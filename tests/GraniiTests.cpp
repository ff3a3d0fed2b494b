//===- GraniiTests.cpp - Tests for the GRANII optimizer API -----------------===//

#include "granii/Granii.h"
#include "graph/Generators.h"
#include "graph/Sampling.h"
#include "models/Baselines.h"

#include <gtest/gtest.h>

using namespace granii;

namespace {

/// Shared analytic cost models (selection logic tests don't need training).
const CostModel &analyticFor(const std::string &Hw) {
  static AnalyticCostModel Cpu{HardwareModel::byName("cpu")};
  static AnalyticCostModel A100{HardwareModel::byName("a100")};
  static AnalyticCostModel H100{HardwareModel::byName("h100")};
  if (Hw == "cpu")
    return Cpu;
  return Hw == "a100" ? A100 : H100;
}

Optimizer makeOptimizer(ModelKind Kind, const std::string &Hw = "h100") {
  OptimizerOptions Opts;
  Opts.Hw = HardwareModel::byName(Hw);
  return Optimizer(makeModel(Kind), Opts, &analyticFor(Hw));
}

} // namespace

TEST(Optimizer, OfflineStageRunsOncePerModel) {
  Optimizer Opt = makeOptimizer(ModelKind::GCN);
  EXPECT_EQ(Opt.pruneStats().Enumerated, 16u);
  EXPECT_EQ(Opt.promoted().size(), 4u);
}

TEST(Optimizer, LayerParamsShapes) {
  GnnModel M = makeModel(ModelKind::TAGCN);
  Graph G = makeErdosRenyi(100, 500, 3);
  LayerParams P = makeLayerParams(M, G, 16, 24, 1);
  EXPECT_EQ(P.Features.rows(), 100);
  EXPECT_EQ(P.Features.cols(), 16);
  EXPECT_EQ(P.Weights.size(), 3u);
  EXPECT_EQ(P.Weights.at("W1").cols(), 24);
  EXPECT_TRUE(P.AttnVecs.empty());
  EXPECT_GT(P.AdjSelf.nnz(), G.numEdges()); // Self loops added.
}

TEST(Optimizer, GatParamsIncludeAttention) {
  GnnModel M = makeModel(ModelKind::GAT);
  Graph G = makeErdosRenyi(50, 200, 3);
  LayerParams P = makeLayerParams(M, G, 8, 12, 1);
  ASSERT_EQ(P.AttnVecs.size(), 2u);
  EXPECT_EQ(P.AttnVecs.at("asrc").size(), 12u);
  EXPECT_EQ(P.AttnVecs.at("adst").size(), 12u);
}

TEST(Optimizer, SelectionPrefersSparseAwareChoiceOnSparseGraphs) {
  // On a very sparse graph with K_in < K_out, GCN's precompute composition
  // avoids the per-iteration broadcasts; GRANII should not pick a plan that
  // is analytically much worse than the best.
  Optimizer Opt = makeOptimizer(ModelKind::GCN);
  Graph Sparse = makeRoadLattice(40, 40, 0.0, 1);
  Selection Sel = Opt.select(Sparse, 32, 128);
  // Whatever is chosen must be within 1% of the analytic minimum.
  Graph WithSelf = Sparse.withSelfLoops();
  DimBinding B{WithSelf.numNodes(), 32, 128, WithSelf.numEdges()};
  double Best = 1e300;
  for (const CompositionPlan &P : Opt.promoted())
    Best = std::min(Best, analyticFor("h100").planSeconds(P, B,
                                                          WithSelf.stats(),
                                                          100));
  EXPECT_LE(Sel.PredictedSeconds, Best * 1.01);
}

TEST(Optimizer, ScenarioFilterRespectsAnnotations) {
  Optimizer Opt = makeOptimizer(ModelKind::GCN);
  Graph G = makeErdosRenyi(200, 1000, 2);
  Selection SelGe = Opt.select(G, 128, 32);
  Selection SelLt = Opt.select(G, 32, 128);
  EXPECT_TRUE(Opt.promoted()[SelGe.PlanIndex].ViableGe);
  EXPECT_TRUE(Opt.promoted()[SelLt.PlanIndex].ViableLt);
}

TEST(Optimizer, SelectionChangesWithGraphDensity) {
  // The headline input-sensitivity: on some embedding setting, dense and
  // sparse graphs get different GCN compositions on at least one platform.
  bool AnyDifference = false;
  for (const char *Hw : {"cpu", "a100", "h100"}) {
    Optimizer Opt = makeOptimizer(ModelKind::GCN, Hw);
    Graph Dense = makeMycielskian(10);
    Graph Sparse = makeRoadLattice(30, 30, 0.0, 1);
    for (auto [KIn, KOut] : {std::pair<int,int>{32, 32}, {32, 128}, {128, 32}}) {
      Selection A = Opt.select(Dense, KIn, KOut);
      Selection B = Opt.select(Sparse, KIn, KOut);
      if (A.PlanIndex != B.PlanIndex)
        AnyDifference = true;
    }
  }
  EXPECT_TRUE(AnyDifference);
}

TEST(Optimizer, ExecuteRunsChosenPlan) {
  Optimizer Opt = makeOptimizer(ModelKind::GIN, "cpu");
  Graph G = makeErdosRenyi(120, 600, 4);
  LayerParams Params = makeLayerParams(Opt.model(), G, 16, 8, 2);
  Selection Sel = Opt.select(G, 16, 8);
  ExecResult R = Opt.execute(Sel, Params, /*Training=*/false);
  EXPECT_EQ(R.Output.rows(), 120);
  EXPECT_EQ(R.Output.cols(), 8);
  EXPECT_EQ(R.BackwardSeconds, 0.0);
  ExecResult T = Opt.execute(Sel, Params, /*Training=*/true);
  EXPECT_GT(T.BackwardSeconds, 0.0);

  // Selecting from the parameters' prebuilt self-loop adjacency prices the
  // same candidates as selecting from the graph, whole-graph and sharded.
  for (int Shards : {0, 4}) {
    SCOPED_TRACE("shards = " + std::to_string(Shards));
    OptimizerOptions Opts;
    Opts.Hw = HardwareModel::byName("cpu");
    Opts.Format = Shards ? SparseFormat::Csr : SparseFormat::Auto;
    Opts.Shards = Shards;
    Optimizer Priced(Opt.model(), Opts, &analyticFor("cpu"));
    Selection FromGraph = Priced.select(G, 16, 8);
    Selection FromParams = Priced.select(Params.AdjSelf, Params.Stats, 16, 8);
    EXPECT_EQ(FromParams.PlanIndex, FromGraph.PlanIndex);
    EXPECT_EQ(FromParams.Format, FromGraph.Format);
    EXPECT_EQ(FromParams.PredictedSeconds, FromGraph.PredictedSeconds);
  }
}

TEST(Optimizer, OverheadFieldsPopulated) {
  Optimizer Opt = makeOptimizer(ModelKind::GCN, "h100");
  Graph G = makeErdosRenyi(500, 4000, 5);
  Selection Sel = Opt.select(G, 64, 64);
  EXPECT_GT(Sel.FeaturizeSeconds, 0.0);
  EXPECT_LT(Sel.FeaturizeSeconds, 0.1);
  EXPECT_GE(Sel.SelectSeconds, 0.0);
}

TEST(Optimizer, GatSelectionMatchesCostCrossover) {
  // For GAT with increasing sizes, recompute wins once E(KOut - KIn)
  // exceeds N*KIn*KOut; analytic selection must track that crossover.
  Optimizer Opt = makeOptimizer(ModelKind::GAT, "h100");
  Graph Dense = makeMycielskian(10);  // High average degree.
  Graph Sparse = makeRoadLattice(30, 30, 0.0, 2);
  // Large increasing sizes: the extra GEMM is cheap relative to the
  // aggregation-width savings only on high-degree graphs.
  Selection DenseSel = Opt.select(Dense, 256, 1024);
  Selection SparseSel = Opt.select(Sparse, 256, 1024);
  bool DenseRecompute = planRecomputesTheta(Opt.promoted()[DenseSel.PlanIndex]);
  bool SparseRecompute =
      planRecomputesTheta(Opt.promoted()[SparseSel.PlanIndex]);
  EXPECT_TRUE(DenseRecompute);
  EXPECT_FALSE(SparseRecompute);
}

TEST(Optimizer, DecisionStableAcrossNeighborhoodSamples) {
  // Paper §VI-E: one GRANII call serves all samples of a sampling size.
  Optimizer Opt = makeOptimizer(ModelKind::GCN, "h100");
  Graph G = makeRmat(2000, 40000, 0.55, 0.2, 0.15, 31);
  std::vector<size_t> Choices;
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    SampledGraph S = sampleNeighborhood(G, 400, 10, 2, Seed);
    Choices.push_back(Opt.select(S.Sampled, 32, 256).PlanIndex);
  }
  for (size_t C : Choices)
    EXPECT_EQ(C, Choices.front());
}

TEST(Optimizer, IterationsInfluenceSetupAmortization) {
  // With one iteration, precompute's setup cost cannot amortize; with many
  // it can. The chosen plans' predicted costs must reflect Iterations.
  GnnModel M = makeModel(ModelKind::GCN);
  OptimizerOptions Few;
  Few.Hw = HardwareModel::byName("h100");
  Few.Iterations = 1;
  OptimizerOptions Many = Few;
  Many.Iterations = 1000;
  Optimizer OptFew(M, Few, &analyticFor("h100"));
  Optimizer OptMany(M, Many, &analyticFor("h100"));
  Graph G = makeErdosRenyi(400, 3200, 7);
  double CostFew = OptFew.select(G, 64, 64).PredictedSeconds;
  double CostMany = OptMany.select(G, 64, 64).PredictedSeconds;
  EXPECT_GT(CostMany, CostFew);
}

TEST(Optimizer, AblationEnumOptionsFlowThrough) {
  GnnModel M = makeModel(ModelKind::GCN);
  OptimizerOptions Opts;
  Opts.Hw = HardwareModel::byName("cpu");
  Opts.Enum.EnableTernaryRule = false;
  Optimizer Opt(M, Opts, &analyticFor("cpu"));
  for (const CompositionPlan &P : Opt.promoted())
    for (const PlanStep &S : P.Steps)
      EXPECT_NE(S.Op, StepOp::SddmmScaleBoth);
}

//===----------------------------------------------------------------------===//
// Training-aware pricing and selection
//===----------------------------------------------------------------------===//

TEST(TrainingSelection, BackwardChargesEqualBackwardPricing) {
  // On a simulated platform the executor charges each VJP the analytic
  // estimate of its backwardDescs() entry, so the warm run's backward time
  // is exactly the cost model's backward price. The cold run's one-time
  // CSC build is setup, not backward time, and is priced once.
  Executor Exec(HardwareModel::byName("h100"));
  const CostModel &Cost = analyticFor("h100");
  Graph G = makeErdosRenyi(300, 2400, 6);
  for (ModelKind Kind :
       {ModelKind::GCN, ModelKind::GAT, ModelKind::SAGE, ModelKind::GIN}) {
    Optimizer Opt = makeOptimizer(Kind, "h100");
    LayerParams Params = makeLayerParams(Opt.model(), G, 24, 12, 3);
    for (size_t I = 0; I < Opt.promoted().size(); ++I) {
      SCOPED_TRACE(modelName(Kind) + " plan " + std::to_string(I));
      const CompositionPlan &Plan = Opt.promoted()[I];
      DimBinding B = Params.inputs().binding(&Plan);
      ExecResult Warm = Exec.runTraining(Plan, Params.inputs(), Params.Stats);
      ExecResult Infer = Exec.run(Plan, Params.inputs(), Params.Stats);
      double Backward = Cost.backwardSeconds(Plan, B, Params.Stats);
      EXPECT_GT(Backward, 0.0);
      EXPECT_EQ(Warm.BackwardSeconds, Backward);
      double Csc = needsCscBuild(Plan.backwardDescs(B))
                       ? Cost.primitiveSeconds(cscBuildDesc(B.N, B.E),
                                               Params.Stats)
                       : 0.0;
      EXPECT_DOUBLE_EQ(Warm.SetupSeconds - Infer.SetupSeconds, Csc);
      EXPECT_EQ(Cost.planSeconds(Plan, B, Params.Stats, 7, /*Training=*/true),
                Cost.planSeconds(Plan, B, Params.Stats, 7) + 7.0 * Backward +
                    Csc);
    }
  }
}

TEST(TrainingSelection, GcnTrainingPicksAggregateFirstPlan) {
  // At K_in = K_out an aggregate-first GCN plan needs no transposed SpMM
  // for dW, which the forward-only annotations cannot see.
  Graph G = makeRmat(4096, 65536, 0.57, 0.19, 0.19, 7);
  for (const char *Hw : {"cpu", "h100"}) {
    SCOPED_TRACE(Hw);
    OptimizerOptions Opts;
    Opts.Hw = HardwareModel::byName(Hw);
    Opts.Training = true;
    Optimizer Opt(makeModel(ModelKind::GCN), Opts, &analyticFor(Hw));
    Selection Sel = Opt.select(G, 64, 64);
    EXPECT_TRUE(Sel.UsedCostModels);
    const CompositionPlan &Plan = Opt.promoted()[Sel.PlanIndex];
    size_t Spmm = Plan.Steps.size(), Gemm = Plan.Steps.size();
    for (size_t S = 0; S < Plan.Steps.size(); ++S) {
      StepOp Op = Plan.Steps[S].Op;
      if (Op == StepOp::SpmmWeighted || Op == StepOp::SpmmUnweighted)
        Spmm = std::min(Spmm, S);
      if (Op == StepOp::Gemm)
        Gemm = std::min(Gemm, S);
    }
    EXPECT_LT(Spmm, Gemm) << Plan.toString();
    Graph WithSelf = G.withSelfLoops();
    DimBinding B{WithSelf.numNodes(), 64, 64, WithSelf.numEdges()};
    for (const VjpStep &V : Plan.backwardDescs(B))
      EXPECT_NE(Plan.Steps[static_cast<size_t>(V.Step)].Op, StepOp::SpmmUnweighted);
  }
}

TEST(TrainingSelection, InferenceSelectionIsForwardOnly) {
  // Inference keeps the embedding-size filter and forward-only pricing: the
  // same plan and the same PredictedSeconds bits as pricing by hand.
  Graph G = makeErdosRenyi(400, 3000, 8);
  Graph WithSelf = G.withSelfLoops();
  for (ModelKind Kind : {ModelKind::GCN, ModelKind::GAT, ModelKind::GIN}) {
    for (auto [KIn, KOut] : {std::pair<int64_t, int64_t>{64, 16}, {16, 64}}) {
      SCOPED_TRACE(modelName(Kind) + " " + std::to_string(KIn) + "->" +
                   std::to_string(KOut));
      Optimizer Opt = makeOptimizer(Kind, "cpu");
      const CostModel &Cost = analyticFor("cpu");
      Selection Sel = Opt.select(G, KIn, KOut);
      DimBinding B{WithSelf.numNodes(), KIn, KOut, WithSelf.numEdges()};
      size_t Want = 0;
      double WantSeconds = 0.0;
      bool Any = false;
      for (size_t I = 0; I < Opt.promoted().size(); ++I) {
        const CompositionPlan &P = Opt.promoted()[I];
        if (!(KIn >= KOut ? P.ViableGe : P.ViableLt))
          continue;
        std::vector<PrimitiveDesc> Descs = P.primitiveDescs(B);
        double Seconds = 0.0;
        for (size_t S = 0; S < P.Steps.size(); ++S)
          Seconds += (P.Steps[S].Setup ? 1.0 : 100.0) *
                     Cost.primitiveSeconds(Descs[S], WithSelf.stats());
        if (!Any || Seconds < WantSeconds) {
          Want = I;
          WantSeconds = Seconds;
          Any = true;
        }
      }
      ASSERT_TRUE(Any);
      EXPECT_EQ(Sel.PlanIndex, Want);
      EXPECT_EQ(Sel.PredictedSeconds, WantSeconds);
    }
  }
}
