//===- Layers.cpp - Per-layer probes of the traced run --------------------===//

#include "Layers.h"
#include "Reference.h"

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "graph/MatrixMarket.h"
#include "ir/Dsl.h"
#include "ir/Rewrite.h"
#include "shard/Shard.h"

#include <algorithm>

using namespace granii;
using namespace perfbench;

GnnModel perfbench::wrapModel(const std::string &Name, const IRNodeRef &Root) {
  GnnModel Model;
  Model.Name = Name;
  Model.Root = Root;
  Model.WeightCount = 0;
  for (const LeafNode *Leaf : collectLeaves(Root)) {
    if (Leaf->role() == LeafRole::Weight)
      ++Model.WeightCount;
    if (Leaf->role() == LeafRole::AttnSrcVec)
      Model.UsesAttention = true;
  }
  if (Model.WeightCount == 0)
    Model.WeightCount = 1;
  return Model;
}

namespace {

void execute(const Executor &Exec, const ColdPath &P, bool Training,
             PlanWorkspace &Ws, ExecResult &R) {
  const CompositionPlan &Plan = P.Opt->promoted()[P.Sel.PlanIndex];
  LayerInputs Inputs = P.Params.inputs();
  ShardSpec Sharding{P.Options.Shards, P.Options.ShardStoreDir};
  if (Training)
    Exec.runTraining(Plan, Inputs, P.Params.Stats, Ws, R, P.Options.Reorder,
                     P.Sel.Format, Sharding);
  else
    Exec.run(Plan, Inputs, P.Params.Stats, Ws, R, P.Options.Reorder,
             P.Sel.Format, Sharding);
}

} // namespace

std::unique_ptr<ColdPath>
perfbench::replayColdPath(const serve::JobRequest &Req,
                          const serve::Session &Session,
                          const std::vector<float> &SessionOutput,
                          Report &Out) {
  auto P = std::make_unique<ColdPath>();
  ColdPathTimes &T = P->Times;
  Span Whole("bench.cold_path");
  std::string Err;

  std::optional<Graph> G;
  {
    Span S("graph.load");
    G = readMatrixMarket(Req.GraphSpec, &Err);
    T.LoadS = S.end();
  }
  std::optional<ParsedModel> Parsed;
  if (G) {
    Span S("ir.parse");
    Parsed = parseModelDsl(Req.ModelText, &Err);
    T.ParseS = S.end();
  }
  Out.check(G && Parsed, "cold-path replay: " + Err);
  if (!G || !Parsed)
    return nullptr;

  P->Model = wrapModel(Parsed->Name, Parsed->Root);
  P->Options = Session.optimizer().options();
  EnumOptions Enum = P->Options.Enum;
  Enum.Verify = P->Options.Verify;
  {
    Span S("ir.rewrite");
    std::vector<IRNodeRef> Variants =
        runRewritePipeline(P->Model.Root, Enum.EnableDistribution,
                           /*MaxVariants=*/64, Enum.Verify);
    T.RewriteS = S.end();
  }
  std::vector<CompositionPlan> All;
  {
    Span S("assoc.enumerate");
    All = enumerateCompositions(P->Model.Root, Enum);
    T.EnumerateS = S.end();
  }
  T.Enumerated = All.size();
  std::vector<CompositionPlan> Promoted;
  {
    Span S("assoc.prune");
    Promoted = pruneCompositions(std::move(All));
    T.PruneS = S.end();
  }
  T.Promoted = Promoted.size();
  {
    Span S("graph.self_loops");
    Graph WithSelf = G->withSelfLoops();
    T.SelfLoopsS = S.end();
  }
  {
    Span S("granii.params");
    P->Params = makeLayerParams(P->Model, *G, Req.KIn, Req.KOut, Req.Seed);
    T.ParamsS = S.end();
  }
  {
    Span S("granii.select");
    P->Opt.emplace(Optimizer::fromCompiled(P->Model, P->Options, &P->Cost,
                                           std::move(Promoted)));
    P->Sel = P->Opt->select(*G, Req.KIn, Req.KOut);
    T.SelectS = S.end();
  }
  if (P->Options.Shards > 1) {
    shard::GraphPartition Part;
    {
      Span S("shard.partition");
      Part = shard::partitionGraph(P->Params.AdjSelf, P->Options.Shards);
      T.PartitionS = S.end();
    }
    T.CutFraction = Part.cutFraction();
    shard::ShardSet Set;
    {
      Span S("shard.build");
      Set = shard::ShardSet::build(P->Params.AdjSelf, Part);
      T.ShardBuildS = S.end();
    }
    // Halo rows: gathered rows a shard does not own.
    for (int Shard = 0; Shard < Set.numShards(); ++Shard) {
      int64_t Halo = 0;
      for (int32_t Row : Set.blocks()[static_cast<size_t>(Shard)].Referenced)
        Halo += Part.ShardOf[static_cast<size_t>(Row)] != Shard;
      T.MaxHaloRows = std::max(T.MaxHaloRows, static_cast<double>(Halo));
    }
  }
  {
    Span S("runtime.first_run");
    P->Exec.emplace(P->Options.Hw);
    execute(*P->Exec, *P, Req.Training, P->Ws, P->First);
    T.RuntimeSetupS = P->First.SetupSeconds;
  }

  const Selection &Want = Session.selection();
  Out.check(P->Sel.PlanIndex == Want.PlanIndex && P->Sel.Format == Want.Format,
         "cold-path replay selected plan " + std::to_string(P->Sel.PlanIndex) +
             "/" + sparseFormatName(P->Sel.Format) + ", session has " +
             std::to_string(Want.PlanIndex) + "/" +
             sparseFormatName(Want.Format));
  Out.check(bitwiseEqual(SessionOutput, P->First.Output),
         "cold-path replay output differs from the session's");
  return P;
}

void StepTotals::add(const ExecResult &R) {
  std::map<std::string, double> Pass;
  for (const StepProfile &S : R.StepProfiles) {
    if (S.Setup)
      continue;
    Pass[S.Op] += S.Seconds;
    Flops[S.Op] += S.Flops;
    Bytes[S.Op] += S.Bytes;
    Seconds[S.Op] += S.Seconds;
  }
  for (const auto &[Op, Sec] : Pass)
    PassSeconds[Op].push_back(Sec);
}

double perfbench::profiledPass(ColdPath &P, bool Training, StepTotals &Steps,
                               size_t &Allocs) {
  P.Exec->setStepProfiling(true);
  P.Ws.resetAllocationCount();
  // A fresh result per pass, as Session::run does, so the traced pass and
  // the untraced session run differ only by profiling and spans.
  ExecResult R;
  Span S("runtime.profiled_pass");
  execute(*P.Exec, P, Training, P.Ws, R);
  double Wall = S.end();
  Allocs = P.Ws.allocationCount();
  {
    Span Book("bench.step_totals");
    Steps.add(R);
  }
  return Wall;
}

RegretResult perfbench::probeRegret(const ColdPath &P, bool Training,
                                    int Reps) {
  // The selector's search space: plans viable in this embedding-size
  // scenario (all plans when none is), times the format column.
  const std::vector<CompositionPlan> &Plans = P.Opt->promoted();
  DimBinding Binding = P.Params.inputs().binding(&Plans[P.Sel.PlanIndex]);
  bool ScenarioGe = Binding.KIn >= Binding.KOut;
  std::vector<size_t> Viable;
  for (size_t I = 0; I < Plans.size(); ++I)
    if (ScenarioGe ? Plans[I].ViableGe : Plans[I].ViableLt)
      Viable.push_back(I);
  if (Viable.empty())
    for (size_t I = 0; I < Plans.size(); ++I)
      Viable.push_back(I);
  std::vector<SparseFormat> Formats;
  if (P.Options.Format == SparseFormat::Auto)
    Formats = forwardSparseFormats();
  else
    Formats.push_back(P.Options.Format);

  RegretResult Result;
  Span Whole("bench.regret_probe");
  for (size_t Plan : Viable)
    for (SparseFormat Format : Formats) {
      // A fresh optimizer per candidate keeps one candidate's workspace
      // alive at a time.
      Optimizer Opt =
          Optimizer::fromCompiled(P.Model, P.Options, &P.Cost, Plans);
      Selection Sel = P.Sel;
      Sel.PlanIndex = Plan;
      Sel.Format = Format;
      Opt.execute(Sel, P.Params, Training); // warm-up: builds the workspace
      std::vector<double> Ms;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        Span S("bench.candidate");
        Opt.execute(Sel, P.Params, Training);
        Ms.push_back(S.end() * 1e3);
      }
      Candidate C;
      C.Plan = Plan;
      C.Format = Format;
      C.MedianMs = median(Ms);
      C.Chosen = Plan == P.Sel.PlanIndex && Format == P.Sel.Format;
      Result.Candidates.push_back(C);
    }
  Result.BestMs = Result.Candidates.front().MedianMs;
  for (const Candidate &C : Result.Candidates) {
    Result.BestMs = std::min(Result.BestMs, C.MedianMs);
    if (C.Chosen)
      Result.ChosenMs = C.MedianMs;
  }
  return Result;
}

std::string perfbench::regretJson(const RegretResult &R,
                                  const std::vector<CompositionPlan> &Plans) {
  std::string Out = "[";
  for (size_t I = 0; I < R.Candidates.size(); ++I) {
    const Candidate &C = R.Candidates[I];
    Out += std::string(I ? ", " : "") + "{\"plan\": " + std::to_string(C.Plan) +
           ", \"name\": " + jsonString(Plans[C.Plan].Name) +
           ", \"format\": " + jsonString(sparseFormatName(C.Format)) +
           ", \"median_ms\": " + jsonNumber(C.MedianMs) +
           ", \"chosen\": " + (C.Chosen ? "true" : "false") +
           ", \"best\": " + (C.MedianMs == R.BestMs ? "true" : "false") + "}";
  }
  return Out + "]";
}

const std::vector<std::string> &perfbench::reportedStepOps() {
  static const std::vector<std::string> Ops = {
      "gemm",       "spmm_w",     "spmm_u",     "scale_row",   "scale_col",
      "scale_both", "row_bcast",  "col_bcast",  "diag_diag",   "add",
      "scale",      "relu",       "degree_off", "inv_sqrt",    "inv_deg",
      "attn_gemv",  "edge_logits", "edge_lrelu", "edge_softmax"};
  return Ops;
}

const std::vector<std::string> &perfbench::reportedKernelOps() {
  static const std::vector<std::string> Ops = {
      "gemm",      "spmm_w",      "spmm_u",     "scale_both",
      "row_bcast", "relu",        "add",        "attn_gemv",
      "edge_logits", "edge_lrelu", "edge_softmax"};
  return Ops;
}

void perfbench::reportLayerMetrics(Report &Out, const ColdPathTimes &Cold,
                                   const StepTotals &Steps) {
  Out.metric("graph.load_s", Cold.LoadS, "s");
  Out.metric("graph.self_loops_s", Cold.SelfLoopsS, "s");
  Out.metric("ir.parse_s", Cold.ParseS, "s");
  Out.metric("ir.rewrite_s", Cold.RewriteS, "s");
  Out.metric("assoc.enumerate_s", Cold.EnumerateS, "s");
  Out.metric("assoc.prune_s", Cold.PruneS, "s");
  Out.metric("assoc.enumerated", static_cast<double>(Cold.Enumerated), "count");
  Out.metric("assoc.promoted", static_cast<double>(Cold.Promoted), "count");
  Out.metric("granii.params_s", Cold.ParamsS, "s");
  Out.metric("granii.select_s", Cold.SelectS, "s");
  Out.metric("runtime.setup_s", Cold.RuntimeSetupS, "s");
  Out.metric("shard.partition_s", Cold.PartitionS, "s");
  Out.metric("shard.build_s", Cold.ShardBuildS, "s");
  Out.metric("shard.cut_fraction", Cold.CutFraction, "ratio");
  Out.metric("shard.max_halo_rows", Cold.MaxHaloRows, "count");
  for (const std::string &Op : reportedStepOps()) {
    auto It = Steps.PassSeconds.find(Op);
    Out.metric("runtime.step." + Op + "_s",
               It == Steps.PassSeconds.end() ? 0.0 : median(It->second), "s");
  }
  for (const std::string &Op : reportedKernelOps()) {
    auto Sec = Steps.Seconds.find(Op);
    double S = Sec == Steps.Seconds.end() ? 0.0 : Sec->second;
    auto Get = [&](const std::map<std::string, double> &M) {
      auto It = M.find(Op);
      return It == M.end() || S <= 0.0 ? 0.0 : It->second / S / 1e9;
    };
    Out.metric("kernels." + Op + ".gflops", Get(Steps.Flops), "GFLOP/s");
    Out.metric("kernels." + Op + ".gbps", Get(Steps.Bytes), "GB/s");
  }
}

void perfbench::reportServeLayerZeros(Report &Out) {
  for (const char *Name :
       {"serve.warm_ms", "serve.cold_ms", "serve.rtt_overhead_ms"})
    Out.metric(Name, 0.0, "ms");
  Out.metric("serve.session_hit_ratio", 0.0, "ratio");
  Out.metric("serve.plan_cache_hit_ratio", 0.0, "ratio");
}

void perfbench::reportLayerSelfTimes(Report &Out) {
  // "bench" is the benchmark's own work (checks, bookkeeping, the regret
  // probe); the others are the library modules the spans wrap.
  for (const char *Layer : {"graph", "ir", "assoc", "granii", "shard",
                            "runtime", "serve", "bench"})
    Out.metric(std::string(Layer) + ".self_s",
               Tracer::get().selfSecondsPrefix(std::string(Layer) + "."), "s");
}
