//===- Executor.h - Composition plan execution ------------------*- C++ -*-===//
///
/// \file
/// Interprets CompositionPlans over concrete tensors through the kernel
/// library, charging time per primitive according to the target platform:
/// wall-clock on measured platforms (CPU), analytic latency on simulated
/// ones (A100/H100). Training mode appends a reverse-mode backward pass:
/// the step-local VJPs of CompositionPlan::backwardDescs(), which reach the
/// weights and attention vectors and, only on request, the features. The
/// same list prices training in the cost models, so selection in training
/// mode ranks plans on forward + backward cost.
///
/// Execution is destination-passing throughout: every forward step and
/// every backward VJP writes through the kernels' `...Into` forms into a
/// PlanWorkspace, whose BufferPlan-assigned slots and gradient accumulators
/// persist across calls so steady-state inference and training perform
/// zero heap allocations. There is one execution path: the
/// by-value run()/runTraining() are thin wrappers that run a temporary
/// workspace once cold and once warm, and every plan step executes exactly
/// once per run.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_RUNTIME_EXECUTOR_H
#define GRANII_RUNTIME_EXECUTOR_H

#include "assoc/Composition.h"
#include "graph/Graph.h"
#include "graph/Reorder.h"
#include "hw/HardwareModel.h"
#include "runtime/BufferPlan.h"
#include "shard/Shard.h"
#include "shard/ShardExec.h"
#include "support/FunctionRef.h"
#include "tensor/CscMatrix.h"
#include "tensor/CsrMatrix.h"
#include "tensor/DenseMatrix.h"
#include "tensor/SparseFormat.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace granii {

/// Tensors bound to a plan's input roles. Weight matrices are looked up by
/// leaf name ("W", or "W0".."Wk" for TAGCN).
struct LayerInputs {
  const CsrMatrix *Adjacency = nullptr; ///< self-loop-augmented adjacency
  const DenseMatrix *Features = nullptr;
  std::map<std::string, const DenseMatrix *> Weights;
  /// Attention vectors keyed by leaf name ("asrc", "as0", ...); multi-head
  /// GAT binds one source/destination pair per head.
  std::map<std::string, const std::vector<float> *> AttnVecs;

  /// Embedding sizes + graph sizes as a binding for cost evaluation.
  ///
  /// K_out is derived from \p Plan when given: the weight (or attention
  /// vector) leaf whose symbolic shape carries DimKind::KOut determines the
  /// output width. Without a plan the first weight's column count is used —
  /// correct only for single-weight layers, since std::map iterates in name
  /// order, which need not put the output-producing weight first (TAGCN-
  /// style multi-weight layers would mis-bind, skewing the K_in >= K_out
  /// scenario dispatch).
  DimBinding binding(const CompositionPlan *Plan) const;
  DimBinding binding() const { return binding(nullptr); }
};

/// Sharded-execution request for an arena run (docs/SHARDING.md). Shards
/// <= 1 executes whole-graph; > 1 partitions the bound adjacency and runs
/// every matching sparse aggregation through the shard pipeline —
/// bitwise identical to the whole-graph run. A non-empty StoreDir keeps
/// the shard blocks in an mmap-backed file under that directory (built on
/// first use, reused by content), so block structure pages in on demand
/// instead of occupying anonymous memory.
struct ShardSpec {
  int Shards = 0;
  std::string StoreDir;

  bool active() const { return Shards > 1; }
};

namespace detail {

/// Runtime binding of one plan value: inputs alias caller tensors, produced
/// values point into a PlanWorkspace slot. Exactly one pointer matching
/// Kind is set while a run executes.
struct RtValue {
  PlanValueKind Kind = PlanValueKind::Dense;
  const DenseMatrix *Dense = nullptr;
  const CsrMatrix *Sparse = nullptr;
  const std::vector<float> *Vec = nullptr; // diagonal or node vector

  const DenseMatrix &dense() const { return *Dense; }
  const CsrMatrix &sparse() const { return *Sparse; }
  const std::vector<float> &vec() const { return *Vec; }
};

/// Cached vertex-reordering state of a workspace: one (policy, graph) pair's
/// permutation, the relabeled adjacency PAP^T with its statistics, and the
/// two persistent staging buffers of the per-run row gathers. Building it is
/// setup (charged once, like degree normalizations); the steady state only
/// re-gathers features and scatters the output, reusing every buffer here.
struct ReorderState {
  ReorderPolicy Policy = ReorderPolicy::None;
  const CsrMatrix *SourceAdj = nullptr; ///< graph the cache was built for
  int64_t SourceNnz = 0;                ///< guards against pointer reuse
  Permutation Perm;
  CsrMatrix PermAdj;        ///< PAP^T
  GraphStats PermStats;     ///< its statistics (locality features differ)
  DenseMatrix PermFeatures; ///< features gathered into permuted row order
  DenseMatrix PermOutput;   ///< inverse-permutation staging buffer
};

/// Cached sparse-format state of a workspace: the lazily built CSC view of
/// the adjacency the backward pass walks instead of re-materializing S^T
/// every step. It holds structure only; edge values stay in the operands'
/// CSR-ordered arrays and gather through its CSR index map, so one build
/// per graph serves every sparse value of a plan (all share the
/// adjacency's pattern).
struct FormatState {
  CscMatrix Csc;
  const CsrMatrix *CscSource = nullptr; ///< graph the cache was built for
  int64_t CscSourceNnz = 0;             ///< guards against pointer reuse
};

/// Cached sharding state of a workspace: the partition and shard blocks of
/// one (shard count, graph) pair plus the persistent halo staging buffers.
/// Building (or mapping) the blocks is setup, charged once like the reorder
/// permutation; steady-state sharded runs only gather halos into
/// the staging high-water buffers and allocate nothing.
struct ShardState {
  int Shards = 0;                       ///< 0 = no cached partition
  const CsrMatrix *SourceAdj = nullptr; ///< graph the cache was built for
  int64_t SourceNnz = 0;                ///< guards against pointer reuse
  std::string StoreDir;                 ///< "" = heap-resident blocks
  shard::GraphPartition Part;
  shard::ShardSet Set;
  shard::ShardStaging Staging;
};

/// Backward-pass storage of a workspace, presized by configure() in
/// training mode. The schedule is the plan's backwardDescs() for the
/// configured gradient request. Each value the schedule reaches has one
/// gradient accumulator: dense values in Dense, node vectors and the
/// per-edge gradients of sparse values in Vec, both indexed by value id. A
/// VJP writes its first contribution straight into the accumulator; only
/// a later contribution goes through a scratch term (Scratch, EdgeScratch)
/// that is then added. Partials holds the per-chunk partial products of
/// the A^T * B weight-gradient GEMMs.
struct GradState {
  std::vector<VjpStep> Schedule;
  /// The plan ends in a relu whose all-ones seed gradient is never stored:
  /// its VJP is the relu's derivative mask.
  bool ImplicitSeed = false;
  std::vector<bool> Reached; ///< values that receive a gradient
  std::vector<DenseMatrix> Dense;
  std::vector<std::vector<float>> Vec;
  DenseMatrix Scratch;
  std::vector<float> EdgeScratch;
  std::vector<float> Partials;
};

} // namespace detail

/// Profiling record for one executed step, filled when the executor's step
/// profiling is enabled. Throughputs derive as Bytes/Seconds and
/// Flops/Seconds; Seconds is measured wall-clock on measured platforms and
/// the analytic estimate on simulated ones.
struct StepProfile {
  std::string Value; ///< result debug name (or "v<id>")
  std::string Op;    ///< stepOpName of the executed op
  std::string Shape; ///< result shape, e.g. "2048x64", "2048", "nnz=9854"
  bool Setup = false;
  double Seconds = 0.0;
  double Flops = 0.0; ///< modelled FLOPs of the step's primitive
  double Bytes = 0.0; ///< modelled bytes moved by the step's primitive
};

/// Outcome of executing a plan once.
struct ExecResult {
  DenseMatrix Output;
  /// Seconds charged to steps marked Setup (hoisted; paid once).
  double SetupSeconds = 0.0;
  /// Seconds charged to per-iteration steps (one forward pass).
  double ForwardSeconds = 0.0;
  /// Seconds charged to the backward pass (0 in inference mode).
  double BackwardSeconds = 0.0;
  /// Per-step profiles, parallel to Steps; empty unless the executor's
  /// step profiling is enabled (see Executor::setStepProfiling).
  std::vector<StepProfile> StepProfiles;
  /// Per-VJP profiles of the backward pass, parallel to the workspace's
  /// backward schedule (the plan's backwardDescs() for the run's gradient
  /// request); empty after run() and unless step profiling is enabled.
  /// Their Seconds sum to BackwardSeconds. Value names the gradient ("dW")
  /// and Op the VJP ("vjp:gemm"); StepProfiles stays forward-only.
  std::vector<StepProfile> BackwardProfiles;

  /// Gradients produced by runTraining (empty after run()): one entry per
  /// weight leaf, keyed by its name ("W", "W0", ...), and the feature
  /// gradient an upstream layer needs, computed only when runTraining is
  /// asked for it (empty otherwise). They are copy-assigned from the
  /// workspace's accumulators, so a result reused for the same plan reuses
  /// their storage (entries are overwritten, never erased, by training).
  std::map<std::string, DenseMatrix> WeightGrads;
  DenseMatrix FeatureGrad;
  std::map<std::string, std::vector<float>> AttnGrads;

  /// Total for \p Iterations iterations with setup amortized.
  double totalSeconds(int Iterations, bool Training) const {
    double PerIter = ForwardSeconds + (Training ? BackwardSeconds : 0.0);
    return SetupSeconds + PerIter * Iterations;
  }
};

/// Persistent execution state for one (plan, binding) pair: the BufferPlan,
/// its arena storage, the cached primitive descriptors, and interpreter
/// scratch. configure() is idempotent — re-configuring with the same plan,
/// binding, and mode keeps all storage — so callers simply configure before
/// every run and pay nothing in the steady state. The allocation counter
/// increments whenever any workspace-managed buffer has to grow, which is
/// how tests and the CLI assert the zero-allocation property.
class PlanWorkspace {
public:
  PlanWorkspace() = default;
  PlanWorkspace(const PlanWorkspace &) = delete;
  PlanWorkspace &operator=(const PlanWorkspace &) = delete;
  PlanWorkspace(PlanWorkspace &&) = default;
  PlanWorkspace &operator=(PlanWorkspace &&) = default;

  /// Prepares storage for \p Plan under \p Binding. A matching prior
  /// configuration is kept as-is; otherwise the BufferPlan is recomputed
  /// and every slot — in training mode every gradient accumulator, scratch
  /// term and partials buffer of the backward pass too — is presized to its
  /// planned capacity (growth events are not counted — they are the
  /// warm-up cost). \p FeatureGrad adds dL/dH to the training gradients.
  void configure(const CompositionPlan &Plan, const DimBinding &Binding,
                 bool Training, bool FeatureGrad = false);

  /// The buffer plan of the last configure() (null before any).
  const BufferPlan *bufferPlan() const {
    return Buffers ? &*Buffers : nullptr;
  }

  /// Workspace-managed buffer growth events since the last reset. Zero
  /// across a run means that run performed no heap allocations for plan
  /// values.
  size_t allocationCount() const { return Allocations; }
  void resetAllocationCount() { Allocations = 0; }

  /// \name Executor internals
  /// Slot accessors used by the interpreter; they reshape the backing
  /// store to the requested size and count any capacity growth.
  /// @{
  DenseMatrix &denseFor(int Id, int64_t Rows, int64_t Cols);
  std::vector<float> &vecFor(int Id, size_t Size);
  /// Reshapes a workspace-managed buffer to the requested size, counting
  /// any capacity growth.
  DenseMatrix &fit(DenseMatrix &M, int64_t Rows, int64_t Cols);
  std::vector<float> &fit(std::vector<float> &V, size_t Size);
  /// Persistent sparse value: adopts \p PatternSource's pattern (copied
  /// into place, reusing capacity) and exposes a value array of nnz floats.
  CsrMatrix &sparseFor(int Id, const CsrMatrix &PatternSource);
  const std::vector<PrimitiveDesc> &descs() const { return Descs; }
  std::vector<detail::RtValue> &scratch() { return Scratch; }
  /// The workspace's cached reordering state (empty until an executor run
  /// with a non-None policy populates it).
  detail::ReorderState &reorderState() { return Reorder; }
  /// The workspace's cached backward CSC transpose (empty until a training
  /// run needs it).
  detail::FormatState &formatState() { return Format; }
  /// The workspace's cached sharding state (partition + blocks + halo
  /// staging; empty until an executor run with an active ShardSpec).
  detail::ShardState &shardState() { return Shard; }
  /// The workspace's backward-pass storage (empty outside training mode).
  detail::GradState &gradState() { return Grads; }
  /// Records a growth of a workspace-managed buffer that lives outside the
  /// slot arrays (the shard halo staging).
  void countAllocation() { ++Allocations; }
  /// @}

private:
  const CompositionPlan *Plan = nullptr;
  DimBinding Binding{};
  bool Training = false;
  bool FeatureGrad = false;
  std::optional<BufferPlan> Buffers;
  std::vector<DenseMatrix> DenseSlots;
  std::vector<std::vector<float>> VecSlots;
  std::vector<CsrMatrix> SparseValues; ///< indexed by value id
  std::vector<PrimitiveDesc> Descs;
  std::vector<detail::RtValue> Scratch;
  detail::ReorderState Reorder;
  detail::FormatState Format;
  detail::ShardState Shard;
  detail::GradState Grads;
  size_t Allocations = 0;
};

/// Executes plans on one target platform.
class Executor {
public:
  /// \p NumThreads > 0 reconfigures the shared kernel thread pool before
  /// any kernel runs; 0 keeps the current configuration (GRANII_NUM_THREADS
  /// or the hardware concurrency). Measured timings and the CPU hardware
  /// model's NumCores both follow the pool size.
  explicit Executor(HardwareModel Hw, int NumThreads = 0);

  const HardwareModel &hardware() const { return Hw; }

  /// Enables per-step profiling: subsequent runs fill
  /// ExecResult::StepProfiles. Off by default; the profile records allocate
  /// label strings, so leave it off when asserting zero allocations.
  void setStepProfiling(bool Enabled) { StepProfiling = Enabled; }
  bool stepProfiling() const { return StepProfiling; }

  /// Runs the forward pass of \p Plan through a temporary workspace: once
  /// cold, then once warm. \returns the warm run — one iteration of an
  /// amortized loop — with SetupSeconds taken from the cold run.
  ExecResult run(const CompositionPlan &Plan, const LayerInputs &Inputs,
                 const GraphStats &Stats) const;

  /// Forward + backward with run()'s cold-then-warm accounting. Gradients
  /// are computed with respect to every weight and attention vector, and
  /// to the features when \p FeatureGrad is set, seeded with dL/dOut = 1.
  ExecResult runTraining(const CompositionPlan &Plan,
                         const LayerInputs &Inputs, const GraphStats &Stats,
                         bool FeatureGrad = false) const;

  /// Forward pass against \p Ws (configured on entry), writing into
  /// \p Result; both are reused across calls. After one warm-up call,
  /// repeated calls perform zero heap allocations for plan values.
  ///
  /// A non-None \p Policy runs the plan on a reordered copy of the graph:
  /// the workspace caches the permutation and relabeled adjacency per
  /// (policy, graph) — rebuilt state is charged as setup — and each run
  /// gathers the features into permuted order, executes, and scatters the
  /// output back to the caller's vertex order (both charged per iteration).
  /// The result equals the unreordered run's up to float summation order
  /// (each row's neighbors accumulate in a different sequence), which is
  /// why the differential tests compare it with a tolerance rather than
  /// bitwise. Steady-state runs still allocate nothing.
  ///
  /// \p Format must be Csr (Auto is resolved by the optimizer's selection
  /// and aborts here).
  ///
  /// An active \p Sharding partitions the bound adjacency into
  /// Sharding.Shards parts (cached per (count, graph); building or mapping
  /// the blocks is charged as setup) and runs every sparse aggregation
  /// through the sharded gather → compute pipeline. The shard blocks
  /// preserve each row's original CSR entry order, so sharded outputs are
  /// bitwise identical to the whole-graph run at any shard and thread count
  /// within one ISA level.
  void run(const CompositionPlan &Plan, const LayerInputs &Inputs,
           const GraphStats &Stats, PlanWorkspace &Ws, ExecResult &Result,
           ReorderPolicy Policy = ReorderPolicy::None,
           SparseFormat Format = SparseFormat::Csr,
           const ShardSpec &Sharding = ShardSpec()) const;

  /// Forward + backward against \p Ws. The backward pass runs the plan's
  /// backwardDescs(): gradients reach every weight and attention vector,
  /// and the features only when \p FeatureGrad is set. The forward
  /// activations (fully pinned in training mode), the gradient
  /// accumulators and the VJP scratch all live in \p Ws, and gradients are
  /// copy-assigned into \p Result's existing entries, so after one warm-up
  /// call repeated calls perform zero workspace allocations. Under a
  /// non-None \p Policy the feature gradient is scattered back alongside
  /// the output; weight and attention gradients are row-order invariant
  /// and need no correction. The one-time CSC build of a transposed SpMM
  /// VJP is charged as setup.
  void runTraining(const CompositionPlan &Plan, const LayerInputs &Inputs,
                   const GraphStats &Stats, PlanWorkspace &Ws,
                   ExecResult &Result,
                   ReorderPolicy Policy = ReorderPolicy::None,
                   SparseFormat Format = SparseFormat::Csr,
                   const ShardSpec &Sharding = ShardSpec(),
                   bool FeatureGrad = false) const;

  /// Executes \p Body once and returns the seconds to charge for it on
  /// this platform: its wall-clock time on measured platforms, the analytic
  /// estimate of \p Desc on simulated ones. The body reference is
  /// non-owning and invoked synchronously, never stored.
  double timeKernel(const PrimitiveDesc &Desc, const GraphStats &Stats,
                    FunctionRef<void()> Body) const;

private:
  /// The body of both arena entry points: reorder / shard set-up,
  /// the forward pass and, when \p Training, the backward pass.
  void execute(const CompositionPlan &Plan, const LayerInputs &Inputs,
               const GraphStats &Stats, PlanWorkspace &Ws, ExecResult &Result,
               ReorderPolicy Policy, SparseFormat Format,
               const ShardSpec &Sharding, bool Training,
               bool FeatureGrad) const;

  HardwareModel Hw;
  bool StepProfiling = false;
};

} // namespace granii

#endif // GRANII_RUNTIME_EXECUTOR_H
