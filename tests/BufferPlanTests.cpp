//===- BufferPlanTests.cpp - Buffer lifetime planning and arena execution ---===//
//
// Hand-computed lifetime/slot/byte fixtures for BufferPlan, plus the
// executor-level properties the planning exists for: a reused workspace's
// outputs bitwise identical to a by-value run (its own temporary
// workspace) at every thread count, and zero workspace allocations in the
// steady state.
//
//===----------------------------------------------------------------------===//

#include "assoc/Enumerate.h"
#include "graph/Generators.h"
#include "graph/Reorder.h"
#include "granii/Granii.h"
#include "models/Models.h"
#include "runtime/BufferPlan.h"
#include "runtime/Executor.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace granii;

namespace {

PlanValue denseInput(const char *Name, LeafRole Role, SymDim Rows,
                     SymDim Cols) {
  PlanValue V;
  V.Kind = PlanValueKind::Dense;
  V.Shape = {Rows, Cols};
  V.DebugName = Name;
  V.InputRole = Role;
  return V;
}

PlanValue sparseInput(const char *Name) {
  PlanValue V;
  V.Kind = PlanValueKind::Sparse;
  V.Shape = {SymDim::n(), SymDim::n()};
  V.DebugName = Name;
  V.InputRole = LeafRole::Adjacency;
  return V;
}

PlanValue denseTemp(const char *Name, SymDim Rows, SymDim Cols) {
  PlanValue V;
  V.Kind = PlanValueKind::Dense;
  V.Shape = {Rows, Cols};
  V.DebugName = Name;
  return V;
}

/// N=10, KIn=4, KOut=3, E=20: dense N x KOut temporaries hold 30 floats
/// (120 B), which makes the expected byte totals easy to hand-compute.
DimBinding testBinding() {
  DimBinding B;
  B.N = 10;
  B.KIn = 4;
  B.KOut = 3;
  B.E = 20;
  return B;
}

/// v3 = H * W; v4 = A @ v3; v5 = relu(v4)  (output v5).
CompositionPlan gcnLikePlan() {
  CompositionPlan P;
  P.Name = "gcn-like";
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              denseInput("W", LeafRole::Weight, SymDim::kIn(), SymDim::kOut()),
              denseTemp("t", SymDim::n(), SymDim::kOut()),
              denseTemp("agg", SymDim::n(), SymDim::kOut()),
              denseTemp("out", SymDim::n(), SymDim::kOut())};
  P.Steps = {{StepOp::Gemm, {1, 2}, 3},
             {StepOp::SpmmUnweighted, {0, 3}, 4},
             {StepOp::Relu, {4}, 5}};
  P.OutputValue = 5;
  P.verify();
  return P;
}

/// v3 = H * W; v4 = relu(v3); v5 = relu(v4); v6 = relu(v5)  (output v6).
/// Long enough for a freed slot to be reused mid-chain.
CompositionPlan reluChainPlan() {
  CompositionPlan P;
  P.Name = "relu-chain";
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              denseInput("W", LeafRole::Weight, SymDim::kIn(), SymDim::kOut()),
              denseTemp("t0", SymDim::n(), SymDim::kOut()),
              denseTemp("t1", SymDim::n(), SymDim::kOut()),
              denseTemp("t2", SymDim::n(), SymDim::kOut()),
              denseTemp("out", SymDim::n(), SymDim::kOut())};
  P.Steps = {{StepOp::Gemm, {1, 2}, 3},
             {StepOp::Relu, {3}, 4},
             {StepOp::Relu, {4}, 5},
             {StepOp::Relu, {5}, 6}};
  P.OutputValue = 6;
  P.verify();
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifetime analysis fixtures
//===----------------------------------------------------------------------===//

TEST(BufferPlan, LifetimesAndBytesOfGcnLikePlan) {
  CompositionPlan P = gcnLikePlan();
  BufferPlan BP(P, testBinding(), /*Training=*/false);

  for (int In : {0, 1, 2})
    EXPECT_EQ(BP.values()[In].Class, BufferClass::InputAlias);

  const ValueBuffer &T = BP.values()[3];
  EXPECT_EQ(T.DefStep, 0);
  EXPECT_EQ(T.LastUse, 1);
  EXPECT_EQ(T.Floats, 30);
  EXPECT_FALSE(T.Pinned);

  const ValueBuffer &Agg = BP.values()[4];
  EXPECT_EQ(Agg.DefStep, 1);
  EXPECT_EQ(Agg.LastUse, 2);

  // The output is read after execution: sentinel last use one past the
  // final step, and a pinned dedicated slot.
  const ValueBuffer &Out = BP.values()[5];
  EXPECT_EQ(Out.DefStep, 2);
  EXPECT_EQ(Out.LastUse, 3);
  EXPECT_TRUE(Out.Pinned);
  ASSERT_GE(Out.Slot, 0);
  EXPECT_TRUE(BP.slots()[static_cast<size_t>(Out.Slot)].Pinned);

  // Worst step holds two 30-float temporaries: 240 B. All three resident
  // at once (the per-call baseline) is 360 B. No interval here admits
  // sharing, so the arena also holds three 120 B slots.
  EXPECT_EQ(BP.peakBytes(), 240u);
  EXPECT_EQ(BP.naiveBytes(), 360u);
  EXPECT_EQ(BP.arenaBytes(), 360u);
  EXPECT_LE(BP.peakBytes(), BP.naiveBytes());
}

TEST(BufferPlan, FreedSlotIsReused) {
  CompositionPlan P = reluChainPlan();
  BufferPlan BP(P, testBinding(), /*Training=*/false);

  // t0 dies after step 1, so t2 (defined at step 2) takes its slot; only
  // the output needs a third (pinned) slot despite four produced values.
  EXPECT_EQ(BP.values()[5].Slot, BP.values()[3].Slot);
  EXPECT_NE(BP.values()[4].Slot, BP.values()[3].Slot);
  EXPECT_EQ(BP.slots().size(), 3u);

  EXPECT_EQ(BP.peakBytes(), 240u);  // two live 30-float values at worst
  EXPECT_EQ(BP.naiveBytes(), 480u); // four produced values
  EXPECT_EQ(BP.arenaBytes(), 360u); // three 120 B slots
}

TEST(BufferPlan, TrainingModePinsEverything) {
  CompositionPlan P = reluChainPlan();
  BufferPlan BP(P, testBinding(), /*Training=*/true);

  EXPECT_TRUE(BP.training());
  for (int V : {3, 4, 5, 6}) {
    EXPECT_TRUE(BP.values()[V].Pinned) << "v" << V;
    EXPECT_TRUE(BP.slots()[static_cast<size_t>(BP.values()[V].Slot)].Pinned);
  }
  // Saved activations forbid sharing: one slot per value, peak == naive.
  EXPECT_EQ(BP.slots().size(), 4u);
  EXPECT_NE(BP.values()[5].Slot, BP.values()[3].Slot);
  EXPECT_EQ(BP.peakBytes(), BP.naiveBytes());
  EXPECT_EQ(BP.arenaBytes(), 480u);
}

TEST(BufferPlan, NeverReadValueDiesAtDefinition) {
  CompositionPlan P = gcnLikePlan();
  // Append a dead step: v6 = relu(v3), never read (output stays v5).
  P.Values.push_back(denseTemp("dead", SymDim::n(), SymDim::kOut()));
  P.Steps.push_back({StepOp::Relu, {3}, 6});
  P.verify();
  BufferPlan BP(P, testBinding(), /*Training=*/false);
  EXPECT_EQ(BP.values()[6].DefStep, 3);
  EXPECT_EQ(BP.values()[6].LastUse, 3);
  // Its definition extends v3's lifetime to step 3.
  EXPECT_EQ(BP.values()[3].LastUse, 3);
}

TEST(BufferPlan, SetupResultsAndSparseValuesArePinned) {
  // v2 = degree(A) [setup]; v3 = inv_sqrt(v2) [setup];
  // v4 = scale_both(v3, A, v3) [setup, sparse]; v5 = A' @ H  (output).
  CompositionPlan P;
  P.Name = "setup-sparse";
  PlanValue Deg;
  Deg.Kind = PlanValueKind::Diag;
  Deg.Shape = {SymDim::n(), SymDim::one()};
  Deg.DebugName = "deg";
  Deg.GraphOnly = true;
  PlanValue Norm = Deg;
  Norm.DebugName = "dnorm";
  PlanValue Ahat;
  Ahat.Kind = PlanValueKind::Sparse;
  Ahat.Shape = {SymDim::n(), SymDim::n()};
  Ahat.SparseWeighted = true;
  Ahat.DebugName = "Ahat";
  Ahat.GraphOnly = true;
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              Deg, Norm, Ahat,
              denseTemp("out", SymDim::n(), SymDim::kIn())};
  P.Steps = {{StepOp::DegreeOffsets, {0}, 2, 0.0, /*Setup=*/true},
             {StepOp::InvSqrtVec, {2}, 3, 0.0, /*Setup=*/true},
             {StepOp::SddmmScaleBoth, {3, 0, 3}, 4, 0.0, /*Setup=*/true},
             {StepOp::SpmmWeighted, {4, 1}, 5}};
  P.OutputValue = 5;
  P.verify();

  BufferPlan BP(P, testBinding(), /*Training=*/false);
  EXPECT_TRUE(BP.values()[2].Pinned); // setup result
  EXPECT_TRUE(BP.values()[3].Pinned);
  EXPECT_EQ(BP.values()[2].Class, BufferClass::VecSlot);

  // Sparse value: per-edge array sized E, dedicated storage, no slot.
  const ValueBuffer &Sp = BP.values()[4];
  EXPECT_EQ(Sp.Class, BufferClass::SparseVals);
  EXPECT_TRUE(Sp.Pinned);
  EXPECT_EQ(Sp.Slot, -1);
  EXPECT_EQ(Sp.Floats, 20);

  // toString carries the lifetime listing used when debugging plans.
  std::string Listing = BP.toString(P);
  EXPECT_NE(Listing.find("Ahat: sparse 20 floats"), std::string::npos);
  EXPECT_NE(Listing.find("pinned"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Arena execution: bitwise equivalence, zero allocations, step profiles
//===----------------------------------------------------------------------===//

namespace {

/// Degree-skewed R-MAT graph: the adversarial case for any scheme whose
/// output could depend on work partitioning.
const Graph &skewedGraph() {
  static Graph G = makeRmat(500, 4000, 0.6, 0.2, 0.1, 9);
  return G;
}

} // namespace

TEST(PlanWorkspaceExec, ReusedWorkspaceMatchesByValueRunBitwise) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  for (int Threads : {1, 4}) {
    ThreadPool::get().setNumThreads(Threads);
    for (size_t I = 0; I < Plans.size(); ++I) {
      DenseMatrix ByValue =
          Exec.run(Plans[I], Params.inputs(), Params.Stats).Output;
      PlanWorkspace Ws;
      ExecResult R;
      Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R);
      ASSERT_EQ(R.Output.rows(), ByValue.rows());
      EXPECT_EQ(R.Output.maxAbsDiff(ByValue), 0.0f)
          << "plan " << I << " at " << Threads << " threads";
      // And again from the warm workspace: reuse must not perturb results.
      Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R);
      EXPECT_EQ(R.Output.maxAbsDiff(ByValue), 0.0f)
          << "plan " << I << " rerun at " << Threads << " threads";
    }
  }
  ThreadPool::get().setNumThreads(0);
}

TEST(PlanWorkspaceExec, TrainingReusedWorkspaceMatchesByValueRun) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 12, 6, 7);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  ExecResult ByValue = Exec.runTraining(Plans[0], Params.inputs(),
                                       Params.Stats, /*FeatureGrad=*/true);
  ASSERT_FALSE(ByValue.FeatureGrad.empty());
  PlanWorkspace Ws;
  ExecResult R;
  Exec.runTraining(Plans[0], Params.inputs(), Params.Stats, Ws, R,
                   ReorderPolicy::None, SparseFormat::Csr, ShardSpec(),
                   /*FeatureGrad=*/true);
  EXPECT_EQ(R.Output.maxAbsDiff(ByValue.Output), 0.0f);
  ASSERT_EQ(R.WeightGrads.size(), ByValue.WeightGrads.size());
  for (const auto &[Name, Grad] : ByValue.WeightGrads) {
    ASSERT_TRUE(R.WeightGrads.count(Name));
    EXPECT_EQ(R.WeightGrads.at(Name).maxAbsDiff(Grad), 0.0f) << Name;
  }
  EXPECT_EQ(R.FeatureGrad.maxAbsDiff(ByValue.FeatureGrad), 0.0f);
}

TEST(PlanWorkspaceExec, SteadyStatePerformsZeroAllocations) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  for (size_t I = 0; I < Plans.size(); ++I) {
    PlanWorkspace Ws;
    ExecResult R;
    Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R); // warm-up
    Ws.resetAllocationCount();
    for (int Rep = 0; Rep < 3; ++Rep)
      Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R);
    EXPECT_EQ(Ws.allocationCount(), 0u) << "plan " << I;
  }
}

namespace {

bool sameBits(const DenseMatrix &A, const DenseMatrix &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.size()) * sizeof(float)) == 0;
}

} // namespace

TEST(PlanWorkspaceExec, RebindingSameSizeGraphUsesItsPattern) {
  // GAT's sparse intermediates (edge logits, LeakyReLU, softmax) keep the
  // adjacency's pattern across warm runs. A different graph with the same
  // rows and nnz (a relabeling) bound to the warm workspace must get its
  // own pattern: the output equals a fresh run's bitwise, both ways round.
  GnnModel M = makeModel(ModelKind::GAT);
  const CsrMatrix &Base = skewedGraph().adjacency();
  Graph Relabeled("relabeled",
                  permuteSymmetric(Base, makeReorderPermutation(
                                             ReorderPolicy::Degree, Base)));
  LayerParams First = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  LayerParams Second = makeLayerParams(M, Relabeled, 16, 8, 5);
  ASSERT_EQ(First.AdjSelf.rows(), Second.AdjSelf.rows());
  ASSERT_EQ(First.AdjSelf.nnz(), Second.AdjSelf.nnz());
  ASSERT_NE(First.AdjSelf.colIndices(), Second.AdjSelf.colIndices());
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  for (size_t I = 0; I < Plans.size(); ++I) {
    SCOPED_TRACE("plan " + std::to_string(I));
    DenseMatrix WantFirst =
        Exec.run(Plans[I], First.inputs(), First.Stats).Output;
    DenseMatrix WantSecond =
        Exec.run(Plans[I], Second.inputs(), Second.Stats).Output;
    PlanWorkspace Ws;
    ExecResult R;
    Exec.run(Plans[I], First.inputs(), First.Stats, Ws, R);
    Exec.run(Plans[I], First.inputs(), First.Stats, Ws, R); // warm
    Exec.run(Plans[I], Second.inputs(), Second.Stats, Ws, R);
    EXPECT_TRUE(sameBits(R.Output, WantSecond));
    Exec.run(Plans[I], First.inputs(), First.Stats, Ws, R);
    EXPECT_TRUE(sameBits(R.Output, WantFirst));
  }
}

TEST(PlanWorkspaceExec, SwitchingReorderPolicyRebuildsGraphCaches) {
  // The cached reordered graph is rewritten in place with the same size
  // when the policy changes, so everything keyed to it (sparse values, the
  // backward CSC, shard blocks) must be rebuilt: a warm workspace matches
  // fresh runs of each policy bitwise, gradients included.
  GnnModel M = makeModel(ModelKind::GAT);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());
  for (ShardSpec Sharding : {ShardSpec(), ShardSpec{2, ""}}) {
    SCOPED_TRACE("shards " + std::to_string(Sharding.Shards));
    auto Train = [&](PlanWorkspace &Ws, ReorderPolicy Policy) {
      ExecResult R;
      Exec.runTraining(Plans[0], Params.inputs(), Params.Stats, Ws, R, Policy,
                       SparseFormat::Csr, Sharding, /*FeatureGrad=*/true);
      return R;
    };
    PlanWorkspace Warm;
    for (ReorderPolicy Policy :
         {ReorderPolicy::Rcm, ReorderPolicy::Degree, ReorderPolicy::Rcm}) {
      SCOPED_TRACE(reorderPolicyName(Policy));
      PlanWorkspace Fresh;
      ExecResult Want = Train(Fresh, Policy);
      ExecResult Got = Train(Warm, Policy);
      EXPECT_TRUE(sameBits(Got.Output, Want.Output));
      EXPECT_TRUE(sameBits(Got.FeatureGrad, Want.FeatureGrad));
      for (const auto &[Name, Grad] : Want.WeightGrads)
        EXPECT_TRUE(sameBits(Got.WeightGrads.at(Name), Grad)) << Name;
    }
  }
}

TEST(PlanWorkspaceExec, StepProfilesFilledWhenEnabled) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());
  const CompositionPlan &Plan = Plans[0];

  PlanWorkspace Ws;
  ExecResult R;
  Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
  EXPECT_TRUE(R.StepProfiles.empty()); // profiling off by default

  Exec.setStepProfiling(true);
  Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
  ASSERT_EQ(R.StepProfiles.size(), Plan.Steps.size());
  for (size_t S = 0; S < R.StepProfiles.size(); ++S) {
    const StepProfile &P = R.StepProfiles[S];
    EXPECT_FALSE(P.Op.empty()) << S;
    EXPECT_FALSE(P.Value.empty()) << S;
    EXPECT_FALSE(P.Shape.empty()) << S;
    EXPECT_EQ(P.Op, stepOpName(Plan.Steps[S].Op));
    EXPECT_EQ(P.Setup, Plan.Steps[S].Setup);
    EXPECT_GT(P.Bytes, 0.0) << S;
    EXPECT_GE(P.Seconds, 0.0) << S;
  }

  // Switching profiling back off clears the records on the next run.
  Exec.setStepProfiling(false);
  Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
  EXPECT_TRUE(R.StepProfiles.empty());
}

TEST(PlanWorkspaceExec, BackwardProfilesParallelTheSchedule) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());
  LayerInputs Inputs = Params.inputs();

  for (const CompositionPlan &Plan : Plans) {
    PlanWorkspace Ws;
    ExecResult R;
    Exec.setStepProfiling(false);
    Exec.runTraining(Plan, Inputs, Params.Stats, Ws, R);
    EXPECT_TRUE(R.BackwardProfiles.empty()); // profiling off by default

    Exec.setStepProfiling(true);
    Exec.runTraining(Plan, Inputs, Params.Stats, Ws, R);
    std::vector<VjpStep> Schedule = Plan.backwardDescs(Inputs.binding(&Plan));
    ASSERT_EQ(R.BackwardProfiles.size(), Schedule.size()) << Plan.Name;
    double Sum = 0.0;
    for (size_t I = 0; I < Schedule.size(); ++I) {
      const StepProfile &P = R.BackwardProfiles[I];
      const PlanStep &Step = Plan.Steps[static_cast<size_t>(Schedule[I].Step)];
      EXPECT_EQ(P.Op, "vjp:" + stepOpName(Step.Op)) << Plan.Name;
      EXPECT_EQ(P.Value.front(), 'd') << Plan.Name;
      EXPECT_FALSE(P.Shape.empty()) << Plan.Name;
      EXPECT_FALSE(P.Setup);
      EXPECT_EQ(P.Bytes, Schedule[I].Desc.bytes()) << Plan.Name;
      EXPECT_GE(P.Seconds, 0.0);
      Sum += P.Seconds;
    }
    // Summed in execution order, like the pass's own total.
    EXPECT_EQ(Sum, R.BackwardSeconds) << Plan.Name;
    EXPECT_GT(R.BackwardSeconds, 0.0) << Plan.Name;
    // The forward profiles stay forward-only.
    EXPECT_EQ(R.StepProfiles.size(), Plan.Steps.size());

    // An inference run on the same result drops the backward rows.
    Exec.run(Plan, Inputs, Params.Stats, Ws, R);
    EXPECT_TRUE(R.BackwardProfiles.empty());
  }
}

TEST(PlanWorkspaceExec, EveryVjpGetsItsOwnTraceSpan) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());
  const CompositionPlan &Plan = Plans[0];
  LayerInputs Inputs = Params.inputs();
  PlanWorkspace Ws;
  ExecResult R;

  Trace::get().start();
  Exec.runTraining(Plan, Inputs, Params.Stats, Ws, R);
  Trace::get().stop();
  std::string Json = Trace::get().toJson();
  Trace::get().clear();

  auto Count = [&](const std::string &Needle) {
    size_t N = 0;
    for (size_t At = Json.find(Needle); At != std::string::npos;
         At = Json.find(Needle, At + 1))
      ++N;
    return N;
  };
  std::vector<VjpStep> Schedule = Plan.backwardDescs(Inputs.binding(&Plan));
  ASSERT_FALSE(Schedule.empty());
  EXPECT_EQ(Count("\"name\":\"vjp:"), Schedule.size());
  size_t Gemms = 0;
  for (const VjpStep &V : Schedule)
    Gemms += Plan.Steps[static_cast<size_t>(V.Step)].Op == StepOp::Gemm;
  EXPECT_EQ(Count("\"name\":\"vjp:gemm\""), Gemms);
}

TEST(PlanWorkspaceExec, OptimizerReusesWorkspaceAcrossExecutes) {
  GnnModel M = makeModel(ModelKind::GCN);
  OptimizerOptions Opts;
  Opts.Hw = HardwareModel::byName("cpu");
  AnalyticCostModel Cost(Opts.Hw);
  Optimizer Opt(M, Opts, &Cost);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);

  Selection Sel = Opt.select(skewedGraph(), 16, 8);
  ExecResult First = Opt.execute(Sel, Params, /*Training=*/false);
  ExecResult Second = Opt.execute(Sel, Params, /*Training=*/false);
  EXPECT_EQ(Second.Output.maxAbsDiff(First.Output), 0.0f);
}
