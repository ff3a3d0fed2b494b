//===- Layers.h - Per-layer probes of the traced run ------------*- C++ -*-===//
///
/// \file
/// The traced run's view of one serving configuration, built only from the
/// library's public entry points: the cold path of Engine::session replayed
/// call by call (graph load, DSL parse, rewrite, enumerate, prune, layer
/// parameters, selection, first execution), a profiled warm pass, and the
/// regret probe that executes every candidate the selector could pick.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_PERFBENCH_LAYERS_H
#define GRANII_PERFBENCH_LAYERS_H

#include "Common.h"

#include "granii/Granii.h"
#include "serve/Engine.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds each cold-path call took, plus the offline-stage counts.
struct ColdPathTimes {
  double LoadS = 0, SelfLoopsS = 0, ParseS = 0, RewriteS = 0, EnumerateS = 0,
         PruneS = 0, ParamsS = 0, SelectS = 0, RuntimeSetupS = 0;
  double PartitionS = 0, ShardBuildS = 0, CutFraction = 0, MaxHaloRows = 0;
  size_t Enumerated = 0, Promoted = 0;
};

/// Everything the replayed cold path owns. Heap-allocated and pinned: the
/// optimizer keeps a pointer to Cost.
struct ColdPath {
  ColdPath() = default;
  ColdPath(const ColdPath &) = delete;
  ColdPath &operator=(const ColdPath &) = delete;

  granii::GnnModel Model;
  granii::OptimizerOptions Options;
  granii::AnalyticCostModel Cost{granii::HardwareModel::byName("cpu")};
  std::optional<granii::Optimizer> Opt;
  granii::LayerParams Params;
  granii::Selection Sel;
  std::optional<granii::Executor> Exec;
  granii::PlanWorkspace Ws;
  granii::ExecResult First; ///< the first execution (carries SetupSeconds)
  ColdPathTimes Times;
};

/// Replays \p Session's cold path for \p Req through the public functions,
/// timing each call inside a span, and checks that it reaches the
/// session's plan and format and an output bitwise equal to
/// \p SessionOutput (recorded as operations in \p Out). \returns null when
/// a call fails.
std::unique_ptr<ColdPath> replayColdPath(const granii::serve::JobRequest &Req,
                                         const granii::serve::Session &Session,
                                         const std::vector<float> &SessionOutput,
                                         Report &Out);

/// Per-op totals of profiled passes: step seconds per pass, and summed
/// modelled FLOPs, bytes and seconds for throughput.
struct StepTotals {
  std::map<std::string, std::vector<double>> PassSeconds;
  std::map<std::string, double> Flops, Bytes, Seconds;
  /// Adds one profiled pass (per-iteration steps only).
  void add(const granii::ExecResult &R);
};

/// One warm profiled pass of \p P with step profiling on; \returns its
/// wall seconds and adds its steps to \p Steps. \p Allocs receives the
/// workspace allocations of the pass.
double profiledPass(ColdPath &P, bool Training, StepTotals &Steps,
                    size_t &Allocs);

/// One candidate (plan x format) of the regret probe.
struct Candidate {
  size_t Plan = 0;
  granii::SparseFormat Format = granii::SparseFormat::Csr;
  double MedianMs = 0.0;
  bool Chosen = false;
};

struct RegretResult {
  std::vector<Candidate> Candidates;
  double ChosenMs = 0.0, BestMs = 0.0;
  double regret() const { return BestMs > 0 ? ChosenMs / BestMs : 0.0; }
};

/// Executes every candidate the selector could pick for \p P's input
/// through Optimizer::execute (\p Reps timed passes each after one warm-up)
/// and compares the chosen candidate's median with the best.
RegretResult probeRegret(const ColdPath &P, bool Training, int Reps);

/// JSON array describing \p R's candidates for the details line.
std::string regretJson(const RegretResult &R,
                       const std::vector<granii::CompositionPlan> &Plans);

/// Step ops and kernels reported per layer (fixed so every workload prints
/// the same metric set; ops a workload does not run report 0).
const std::vector<std::string> &reportedStepOps();
const std::vector<std::string> &reportedKernelOps();

/// Emits the per-layer metrics shared by every workload from the given
/// probes; layers a workload does not exercise report 0.
void reportLayerMetrics(Report &Out, const ColdPathTimes &Cold,
                        const StepTotals &Steps);

/// The serve layer's metrics, reported as 0 by the workloads that do not
/// exercise it so every traced run prints the same metric set.
void reportServeLayerZeros(Report &Out);

/// `<layer>.self_s` for every layer, from the recorded spans.
void reportLayerSelfTimes(Report &Out);

/// Model wrapper identical to the engine's: weight count and attention
/// flag derived from the IR leaves.
granii::GnnModel wrapModel(const std::string &Name,
                           const granii::IRNodeRef &Root);

} // namespace perfbench

#endif // GRANII_PERFBENCH_LAYERS_H
