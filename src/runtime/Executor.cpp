//===- Executor.cpp - Composition plan execution -----------------------------===//

#include "runtime/Executor.h"

#include "kernels/Kernels.h"
#include "support/Error.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cassert>
#include <cstdio>
#include <fstream>

using namespace granii;

DimBinding LayerInputs::binding(const CompositionPlan *Plan) const {
  GRANII_CHECK(Adjacency && Features && !Weights.empty(),
               "layer inputs incomplete");
  DimBinding B;
  B.N = Adjacency->rows();
  B.E = Adjacency->nnz();
  B.KIn = Features->cols();
  // K_out must come from the tensor bound to a leaf whose symbolic shape
  // carries KOut. Scanning Weights.begin() instead would pick the
  // alphabetically-first weight, whose width is unrelated to the output in
  // multi-weight plans (e.g. chained projections), and a wrong K_out flips
  // the K_in >= K_out scenario dispatch in the optimizer.
  if (Plan) {
    for (const PlanValue &Def : Plan->Values) {
      if (!Def.InputRole)
        continue;
      if (*Def.InputRole == LeafRole::Weight) {
        auto It = Weights.find(Def.DebugName);
        if (It == Weights.end())
          continue;
        if (Def.Shape.Cols.Kind == DimKind::KOut) {
          B.KOut = It->second->cols();
          return B;
        }
        if (Def.Shape.Rows.Kind == DimKind::KOut)
          B.KOut = It->second->rows();
      } else if (*Def.InputRole == LeafRole::AttnSrcVec ||
                 *Def.InputRole == LeafRole::AttnDstVec) {
        // Attention vectors are K_out x 1; use them when no weight column
        // carries KOut (e.g. precomputed-projection plans).
        auto It = AttnVecs.find(Def.DebugName);
        if (It != AttnVecs.end() && Def.Shape.Rows.Kind == DimKind::KOut &&
            B.KOut == 0)
          B.KOut = static_cast<int64_t>(It->second->size());
      }
    }
    if (B.KOut > 0)
      return B;
  }
  B.KOut = Weights.begin()->second->cols();
  return B;
}

//===----------------------------------------------------------------------===//
// PlanWorkspace
//===----------------------------------------------------------------------===//

namespace {

/// True for values the interpreter binds as plain float vectors (the
/// attention vectors are K_out x 1 leaves but bind as node vectors).
bool bindsAsVector(const PlanValue &Def) {
  if (Def.InputRole && (*Def.InputRole == LeafRole::AttnSrcVec ||
                        *Def.InputRole == LeafRole::AttnDstVec))
    return true;
  return Def.Kind == PlanValueKind::Diag || Def.Kind == PlanValueKind::NodeVec;
}

} // namespace

void PlanWorkspace::configure(const CompositionPlan &PlanIn,
                              const DimBinding &B, bool TrainingIn,
                              bool FeatureGradIn) {
  FeatureGradIn &= TrainingIn;
  if (Buffers && Plan == &PlanIn && Training == TrainingIn &&
      FeatureGrad == FeatureGradIn && Binding.N == B.N &&
      Binding.KIn == B.KIn && Binding.KOut == B.KOut && Binding.E == B.E)
    return;
  Plan = &PlanIn;
  Binding = B;
  Training = TrainingIn;
  FeatureGrad = FeatureGradIn;
  Buffers.emplace(PlanIn, B, TrainingIn);
  Descs = PlanIn.primitiveDescs(B);
  // Presize every slot to its planned capacity so the first run's resizes
  // already fit; growth from here on is a planning bug the counter exposes.
  const std::vector<ArenaSlot> &Sl = Buffers->slots();
  DenseSlots.resize(Sl.size());
  VecSlots.resize(Sl.size());
  for (size_t S = 0; S < Sl.size(); ++S) {
    size_t Cap = static_cast<size_t>(Sl[S].CapacityFloats);
    if (Sl[S].Class == BufferClass::DenseSlot)
      DenseSlots[S].reserveFloats(Cap);
    else
      VecSlots[S].reserve(Cap);
  }
  // Sparse patterns are copied from their runtime sources on first use;
  // value arrays can at least be reserved now.
  SparseValues.resize(PlanIn.Values.size());
  Scratch.resize(PlanIn.Values.size());
  if (!TrainingIn)
    return;

  // Backward storage: an accumulator for every value the schedule reaches
  // (and the stored seed), scratch terms only as large as the accumulating
  // VJPs need, and the largest weight-gradient GEMM's partials.
  const size_t NumValues = PlanIn.Values.size();
  Grads.Schedule = PlanIn.backwardDescs(B, FeatureGradIn);
  Grads.ImplicitSeed = !PlanIn.Steps.empty() &&
                       PlanIn.Steps.back().Result == PlanIn.OutputValue &&
                       PlanIn.Steps.back().Op == StepOp::Relu;
  Grads.Reached.assign(NumValues, false);
  Grads.Dense.resize(NumValues);
  Grads.Vec.resize(NumValues);
  auto Floats = [&](int Id) {
    const PlanValue &Def = PlanIn.Values[static_cast<size_t>(Id)];
    return static_cast<size_t>(B.eval(Def.Shape.Rows) *
                               B.eval(Def.Shape.Cols));
  };
  size_t ScratchCap = 0, EdgeScratchCap = 0, PartialsCap = 0;
  if (!Grads.Schedule.empty() && !Grads.ImplicitSeed)
    Grads.Dense[static_cast<size_t>(PlanIn.OutputValue)].reserveFloats(
        Floats(PlanIn.OutputValue));
  for (const VjpStep &V : Grads.Schedule) {
    const PlanStep &Step = PlanIn.Steps[static_cast<size_t>(V.Step)];
    const int Id = Step.Operands[static_cast<size_t>(V.Operand)];
    const PlanValue &Def = PlanIn.Values[static_cast<size_t>(Id)];
    Grads.Reached[static_cast<size_t>(Id)] = true;
    if (Def.Kind == PlanValueKind::Sparse) {
      Grads.Vec[static_cast<size_t>(Id)].reserve(static_cast<size_t>(B.E));
      if (V.Accumulates)
        EdgeScratchCap = static_cast<size_t>(B.E);
    } else if (bindsAsVector(Def)) {
      Grads.Vec[static_cast<size_t>(Id)].reserve(
          static_cast<size_t>(B.eval(Def.Shape.Rows)));
    } else {
      Grads.Dense[static_cast<size_t>(Id)].reserveFloats(Floats(Id));
      if (V.Accumulates)
        ScratchCap = std::max(ScratchCap, Floats(Id));
    }
    if (Step.Op == StepOp::Gemm && V.Operand == 1)
      PartialsCap = std::max(
          PartialsCap, kernels::gemmTransposedLhsPartialFloats(
                           V.Desc.Inner, V.Desc.Rows, V.Desc.Cols));
  }
  Grads.Scratch.reserveFloats(ScratchCap);
  Grads.EdgeScratch.reserve(EdgeScratchCap);
  Grads.Partials.reserve(PartialsCap);
}

DenseMatrix &PlanWorkspace::fit(DenseMatrix &M, int64_t Rows, int64_t Cols) {
  size_t Cap = M.capacityFloats();
  M.resize(Rows, Cols);
  if (M.capacityFloats() != Cap)
    ++Allocations;
  return M;
}

std::vector<float> &PlanWorkspace::fit(std::vector<float> &V, size_t Size) {
  size_t Cap = V.capacity();
  V.resize(Size);
  if (V.capacity() != Cap)
    ++Allocations;
  return V;
}

DenseMatrix &PlanWorkspace::denseFor(int Id, int64_t Rows, int64_t Cols) {
  assert(Buffers && "workspace not configured");
  const ValueBuffer &B = Buffers->values()[static_cast<size_t>(Id)];
  assert(B.Slot >= 0 && B.Class == BufferClass::DenseSlot &&
         "value has no dense slot");
  return fit(DenseSlots[static_cast<size_t>(B.Slot)], Rows, Cols);
}

std::vector<float> &PlanWorkspace::vecFor(int Id, size_t Size) {
  assert(Buffers && "workspace not configured");
  const ValueBuffer &B = Buffers->values()[static_cast<size_t>(Id)];
  assert(B.Slot >= 0 && B.Class == BufferClass::VecSlot &&
         "value has no vector slot");
  return fit(VecSlots[static_cast<size_t>(B.Slot)], Size);
}

CsrMatrix &PlanWorkspace::sparseFor(int Id, const CsrMatrix &Adj) {
  assert(Buffers && "workspace not configured");
  SparseSlot &Slot = SparseValues[static_cast<size_t>(Id)];
  CsrMatrix &S = Slot.M;
  size_t OffCap = S.rowOffsets().capacity();
  size_t ColCap = S.colIndices().capacity();
  size_t ValCap = S.values().capacity();
  if (Slot.Source != &Adj || Slot.SourceRows != Adj.rows() ||
      Slot.SourceNnz != Adj.nnz()) {
    S.assignPattern(Adj.rows(), Adj.cols(), Adj.rowOffsets(),
                    Adj.colIndices());
    Slot.Source = &Adj;
    Slot.SourceRows = Adj.rows();
    Slot.SourceNnz = Adj.nnz();
  } else {
    S.resizeValues(); // an unweighted LeakyReLU result cleared them
  }
  if (S.rowOffsets().capacity() != OffCap ||
      S.colIndices().capacity() != ColCap || S.values().capacity() != ValCap)
    ++Allocations;
  return S;
}

void PlanWorkspace::forgetAdjacency() {
  for (SparseSlot &Slot : SparseValues)
    Slot.Source = nullptr;
  Format.CscSource = nullptr;
  Shard.SourceAdj = nullptr;
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

Executor::Executor(HardwareModel Hw, int NumThreads) : Hw(std::move(Hw)) {
  if (NumThreads > 0)
    ThreadPool::get().setNumThreads(NumThreads);
}

double Executor::timeKernel(const PrimitiveDesc &Desc, const GraphStats &Stats,
                            FunctionRef<void()> Body) const {
  if (Hw.kind() == PlatformKind::Measured) {
    Timer T;
    Body();
    return T.seconds();
  }
  Body(); // Execute for correctness; charge analytic time.
  return Hw.estimateSeconds(Desc, &Stats);
}

namespace {

using detail::RtValue;

/// The edge values an aggregation step multiplies by: the sparse operand's
/// own for a weighted step, none (unit weights) for an unweighted one.
std::span<const float> edgeValuesOf(StepOp Op, const CsrMatrix &A) {
  if (Op == StepOp::SpmmWeighted)
    return A.values();
  return {};
}

/// The sparse operand of every aggregation step of one run, resolved once
/// before the first step from the workspace's shard state: the whole-graph
/// CSR kernels or the shard pipeline. Every sparse value a plan produces
/// carries the bound adjacency's pattern (PlanWorkspace::sparseFor copies
/// it), which is exactly what the cached CSC and shard blocks were built
/// from, so the shape/nnz guard against the adjacency is checked here once
/// rather than per step; edge values always come from the step's own
/// CSR-ordered operand. Both cases preserve CSR neighbor order and share
/// the dispatched inner loops, so they are bitwise identical.
class SparseOperand {
public:
  SparseOperand(const CsrMatrix &Adj, PlanWorkspace &Ws, bool Sharded)
      : Adj(Adj), Ws(Ws), FS(Ws.formatState()), SS(Ws.shardState()) {
    IsSharded = Sharded && SS.Shards > 1 && SS.Set.numNodes() == Adj.rows() &&
                SS.Set.nnz() == Adj.nnz() && Adj.rows() == Adj.cols();
  }

  /// Dst = A * B with edge values \p Vals (empty = unit weights).
  void spmmInto(const CsrMatrix &A, std::span<const float> Vals,
                const DenseMatrix &B, DenseMatrix &Dst) const {
    if (!IsSharded) {
      kernels::spmmInto(A, Vals, B, Dst);
      return;
    }
    // Cold-start staging growth counts against the workspace.
    size_t Grown = SS.Staging.ensureForward(SS.Set, B.cols());
    for (; Grown > 0; --Grown)
      Ws.countAllocation();
    shard::shardedSpmmInto(SS.Set, SS.Staging, Vals, B, Dst);
  }

  /// True when spmmTransposedInto needs no CSC build first: the shard
  /// blocks carry their own CSC slices, and the whole-graph CSC is cached
  /// per adjacency.
  bool transposeReady() const {
    return IsSharded ||
           (FS.CscSource == &Adj && FS.CscSourceNnz == Adj.nnz() &&
            FS.Csc.rows() == Adj.rows());
  }
  /// Builds the whole-graph CSC cache (structure only: values gather
  /// through its CSR index map, so one build serves every sparse value).
  void buildTranspose() {
    FS.Csc = CscMatrix::fromCsr(Adj);
    FS.CscSource = &Adj;
    FS.CscSourceNnz = Adj.nnz();
  }

  /// Dst = A^T * B with edge values \p Vals in A's CSR order (empty = unit
  /// weights); transposeReady() must hold. Both cases visit each output
  /// row's entries in ascending source-row order — the entry order of A^T's
  /// rows — so they are bitwise equal to each other and to the
  /// transpose-then-SpMM product.
  void spmmTransposedInto(std::span<const float> Vals, const DenseMatrix &B,
                          DenseMatrix &Dst) const {
    if (IsSharded) {
      SS.Staging.ensureBackward(SS.Set, B.cols());
      shard::shardedSpmmCscTransposedInto(SS.Set, SS.Staging, Vals, B, Dst);
      return;
    }
    kernels::spmmCscTransposedInto(FS.Csc, Vals, B, Dst);
  }

private:
  const CsrMatrix &Adj;
  PlanWorkspace &Ws;
  detail::FormatState &FS;
  detail::ShardState &SS;
  bool IsSharded = false;
};

/// The plan interpreter behind both arena entry points: binds the inputs,
/// executes every step once against the workspace's arena slots (zero
/// steady-state allocations) and, in training mode, runs the backward pass.
class PlanInterpreter {
public:
  PlanInterpreter(const Executor &Exec, const CompositionPlan &Plan,
                  const LayerInputs &Inputs, const GraphStats &Stats,
                  PlanWorkspace &Ws, SparseOperand &Sparse)
      : Exec(Exec), Plan(Plan), Inputs(Inputs), Stats(Stats), Ws(Ws),
        Values(Ws.scratch()), Sparse(Sparse) {}

  void forward(ExecResult &Result);
  /// Runs the workspace's backward schedule and exports the gradients into
  /// \p Result (the feature gradient only with \p FeatureGrad); a non-null
  /// \p FeaturePerm is the reordering the forward pass ran under.
  void backward(ExecResult &Result, bool FeatureGrad,
                const Permutation *FeaturePerm);

private:
  void bindInput(size_t Id, const PlanValue &Def);
  void execStep(size_t StepIdx, ExecResult &Result);

  RtValue &val(int Id) { return Values[static_cast<size_t>(Id)]; }

  /// Destination accessors: the workspace slot of value \p Id, reshaped to
  /// the requested size (operands of the current step are still live in
  /// the buffer plan, so a destination slot never aliases an operand's).
  DenseMatrix &dstDense(int Id, int64_t Rows, int64_t Cols) {
    DenseMatrix &M = Ws.denseFor(Id, Rows, Cols);
    val(Id).Dense = &M;
    return M;
  }
  std::vector<float> &dstVec(int Id, size_t Size) {
    std::vector<float> &V = Ws.vecFor(Id, Size);
    val(Id).Vec = &V;
    return V;
  }
  /// Destination of a sparse step over \p Operand, which carries the bound
  /// adjacency's pattern like every sparse value of the plan.
  CsrMatrix &dstSparse(int Id, const CsrMatrix &Operand) {
    const CsrMatrix &Adj = *Inputs.Adjacency;
    assert(Operand.rows() == Adj.rows() && Operand.nnz() == Adj.nnz() &&
           "sparse values share the adjacency's pattern");
    (void)Operand;
    CsrMatrix &S = Ws.sparseFor(Id, Adj);
    val(Id).Sparse = &S;
    return S;
  }

  double charge(size_t StepIdx, FunctionRef<void()> Body) {
    return Exec.timeKernel(Ws.descs()[StepIdx], Stats, Body);
  }

  /// Charges a backward primitive.
  double chargeDesc(const PrimitiveDesc &Desc, FunctionRef<void()> Body) {
    return Exec.timeKernel(Desc, Stats, Body);
  }

  /// Profile labels of value \p Id: its debug name (or "v<id>") and its
  /// current shape, e.g. "2048x64", "2048", "nnz=9854".
  std::string valueName(int Id) const {
    const PlanValue &Def = Plan.Values[static_cast<size_t>(Id)];
    return Def.DebugName.empty() ? "v" + std::to_string(Id) : Def.DebugName;
  }
  std::string shapeOf(int Id) const {
    const RtValue &V = Values[static_cast<size_t>(Id)];
    switch (V.Kind) {
    case PlanValueKind::Dense:
      return std::to_string(V.dense().rows()) + "x" +
             std::to_string(V.dense().cols());
    case PlanValueKind::Sparse:
      return "nnz=" + std::to_string(V.sparse().nnz());
    case PlanValueKind::Diag:
    case PlanValueKind::NodeVec:
      break;
    }
    return std::to_string(V.vec().size());
  }

  const Executor &Exec;
  const CompositionPlan &Plan;
  const LayerInputs &Inputs;
  const GraphStats &Stats;
  PlanWorkspace &Ws;
  std::vector<RtValue> &Values;
  SparseOperand &Sparse;
};

void PlanInterpreter::bindInput(size_t Id, const PlanValue &Def) {
  RtValue &V = Values[Id];
  V.Kind = Def.Kind;
  switch (*Def.InputRole) {
  case LeafRole::Adjacency:
    V.Sparse = Inputs.Adjacency;
    return;
  case LeafRole::Features:
    V.Dense = Inputs.Features;
    return;
  case LeafRole::Weight: {
    auto It = Inputs.Weights.find(Def.DebugName);
    if (It == Inputs.Weights.end())
      GRANII_FATAL("no weight bound for leaf '" + Def.DebugName + "'");
    V.Dense = It->second;
    return;
  }
  case LeafRole::AttnSrcVec:
  case LeafRole::AttnDstVec: {
    auto It = Inputs.AttnVecs.find(Def.DebugName);
    if (It == Inputs.AttnVecs.end())
      GRANII_FATAL("no attention vector bound for leaf '" + Def.DebugName +
                   "'");
    V.Vec = It->second;
    V.Kind = PlanValueKind::NodeVec;
    return;
  }
  case LeafRole::DegreeNorm:
  case LeafRole::DegreeInv:
    GRANII_FATAL("degree normalizations are derived, never direct inputs");
  }
}

void PlanInterpreter::execStep(size_t StepIdx, ExecResult &Result) {
  const PlanStep &Step = Plan.Steps[StepIdx];
  // One span per executed plan step, annotated with the StepProfile
  // counters below. Constructing the name allocates, so it is guarded: the
  // disabled-tracing path must stay allocation-free for the zero-steady-
  // state-allocation guarantee.
  TraceSpan Span;
  if (Trace::get().enabled())
    Span = TraceSpan(stepOpName(Step.Op), "executor");
  RtValue &Out = val(Step.Result);
  Out.Kind = Plan.Values[static_cast<size_t>(Step.Result)].Kind;
  auto Op = [&](int I) -> RtValue & { return val(Step.Operands[I]); };

  double Seconds = 0.0;
  // granii-noalloc-begin: the step dispatch is the steady-state hot path;
  // destination buffers come pre-planned from the workspace (dstDense /
  // dstSparse / dstVec), so nothing here may allocate.
  switch (Step.Op) {
  case StepOp::Gemm:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      const DenseMatrix &B = Op(1).dense();
      kernels::gemmInto(A, B, dstDense(Step.Result, A.rows(), B.cols()));
    });
    break;
  case StepOp::SpmmWeighted:
  case StepOp::SpmmUnweighted:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      const DenseMatrix &B = Op(1).dense();
      Sparse.spmmInto(A, edgeValuesOf(Step.Op, A), B,
                      dstDense(Step.Result, A.rows(), B.cols()));
    });
    break;
  case StepOp::SddmmScaleRow:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(1).sparse();
      kernels::scaleSparseRowsInto(A, Op(0).vec(),
                                   dstSparse(Step.Result, A).mutableValues());
    });
    break;
  case StepOp::SddmmScaleCol:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      kernels::scaleSparseColsInto(A, Op(1).vec(),
                                   dstSparse(Step.Result, A).mutableValues());
    });
    break;
  case StepOp::SddmmScaleBoth:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(1).sparse();
      kernels::scaleSparseBothInto(A, Op(0).vec(), Op(2).vec(),
                                   dstSparse(Step.Result, A).mutableValues());
    });
    break;
  case StepOp::RowBcast:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &H = Op(1).dense();
      kernels::rowBroadcastMulInto(Op(0).vec(), H,
                                   dstDense(Step.Result, H.rows(), H.cols()));
    });
    break;
  case StepOp::ColBcast:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &H = Op(0).dense();
      kernels::colBroadcastMulInto(H, Op(1).vec(),
                                   dstDense(Step.Result, H.rows(), H.cols()));
    });
    break;
  case StepOp::DiagDiag:
    Seconds = charge(StepIdx, [&] {
      const std::vector<float> &L = Op(0).vec();
      const std::vector<float> &R = Op(1).vec();
      std::vector<float> &O = dstVec(Step.Result, L.size());
      for (size_t I = 0; I < L.size(); ++I)
        O[I] = L[I] * R[I];
    });
    break;
  case StepOp::AddDense:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      kernels::addMatricesInto(A, Op(1).dense(),
                               dstDense(Step.Result, A.rows(), A.cols()));
    });
    break;
  case StepOp::ScaleDense:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      kernels::scaleMatrixInto(A, static_cast<float>(Step.Param),
                               dstDense(Step.Result, A.rows(), A.cols()));
    });
    break;
  case StepOp::Relu:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      kernels::reluInto(A, dstDense(Step.Result, A.rows(), A.cols()));
    });
    break;
  case StepOp::DegreeOffsets:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      kernels::degreeFromOffsetsInto(
          A, dstVec(Step.Result, static_cast<size_t>(A.rows())));
    });
    break;
  case StepOp::DegreeBinning:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      kernels::degreeByBinningInto(
          A, dstVec(Step.Result, static_cast<size_t>(A.rows())));
    });
    break;
  case StepOp::InvSqrtVec:
    Seconds = charge(StepIdx, [&] {
      const std::vector<float> &D = Op(0).vec();
      kernels::invSqrtInto(D, dstVec(Step.Result, D.size()));
    });
    break;
  case StepOp::InvVec:
    Seconds = charge(StepIdx, [&] {
      const std::vector<float> &D = Op(0).vec();
      kernels::invDegreeInto(D, dstVec(Step.Result, D.size()));
    });
    break;
  case StepOp::AttnGemv:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      kernels::gemvInto(A, Op(1).vec(),
                        dstVec(Step.Result, static_cast<size_t>(A.rows())));
    });
    break;
  case StepOp::EdgeLogits:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &Mask = Op(0).sparse();
      kernels::sddmmAddScalarsInto(
          Mask, Op(1).vec(), Op(2).vec(),
          dstSparse(Step.Result, Mask).mutableValues());
    });
    break;
  case StepOp::EdgeLeakyRelu:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &In = Op(0).sparse();
      CsrMatrix &O = dstSparse(Step.Result, In);
      if (In.isWeighted())
        kernels::leakyReluEdgesInto(In.values(),
                                    static_cast<float>(Step.Param),
                                    O.mutableValues());
      else
        O.clearValues(); // unweighted in, unweighted out (all-ones edges)
    });
    break;
  case StepOp::EdgeSoftmax:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &In = Op(0).sparse();
      kernels::edgeSoftmaxInto(In, In.values(),
                               dstSparse(Step.Result, In).mutableValues());
    });
    break;
  }
  // granii-noalloc-end

  if (Step.Setup)
    Result.SetupSeconds += Seconds;
  else
    Result.ForwardSeconds += Seconds;

  if (!Result.StepProfiles.empty() || Span.active()) {
    StepProfile Local;
    StepProfile &P =
        Result.StepProfiles.empty() ? Local : Result.StepProfiles[StepIdx];
    P.Value = valueName(Step.Result);
    P.Op = stepOpName(Step.Op);
    P.Shape = shapeOf(Step.Result);
    P.Setup = Step.Setup;
    P.Seconds = Seconds;
    P.Flops = Ws.descs()[StepIdx].flops();
    P.Bytes = Ws.descs()[StepIdx].bytes();
    if (Span.active()) {
      Span.setArg("value", P.Value);
      Span.setArg("shape", P.Shape);
      Span.setArg("charged_seconds", P.Seconds);
      Span.setArg("flops", P.Flops);
      Span.setArg("bytes", P.Bytes);
      if (P.Setup)
        Span.setArg("setup", 1.0);
    }
  }
}

void PlanInterpreter::forward(ExecResult &Result) {
  TraceSpan Span("forward", "executor");
  Result.SetupSeconds = 0.0;
  Result.ForwardSeconds = 0.0;
  Result.BackwardSeconds = 0.0;
  if (Exec.stepProfiling())
    Result.StepProfiles.resize(Plan.Steps.size());
  else
    Result.StepProfiles.clear();

  for (size_t V = 0; V < Plan.Values.size(); ++V) {
    Values[V] = RtValue();
    if (Plan.Values[V].InputRole)
      bindInput(V, Plan.Values[V]);
  }
  for (size_t S = 0; S < Plan.Steps.size(); ++S)
    execStep(S, Result);
  const RtValue &Out = val(Plan.OutputValue);
  assert(Out.Kind == PlanValueKind::Dense && "layer output must be dense");
  Result.Output = Out.dense();
}

void PlanInterpreter::backward(ExecResult &Result, bool FeatureGrad,
                               const Permutation *FeaturePerm) {
  TraceSpan Span("backward", "executor");
  detail::GradState &GS = Ws.gradState();

  // The gradient of value Id, shaped like the value.
  auto GradDense = [&](int Id) -> DenseMatrix & {
    const DenseMatrix &Val = Values[static_cast<size_t>(Id)].dense();
    return Ws.fit(GS.Dense[static_cast<size_t>(Id)], Val.rows(), Val.cols());
  };
  auto GradVec = [&](int Id) -> std::vector<float> & {
    const RtValue &Val = Values[static_cast<size_t>(Id)];
    size_t Size = Val.Kind == PlanValueKind::Sparse
                      ? static_cast<size_t>(Val.sparse().nnz())
                      : Val.vec().size();
    return Ws.fit(GS.Vec[static_cast<size_t>(Id)], Size);
  };
  // Runs a dense VJP kernel into the gradient of Id: straight into the
  // accumulator on its first contribution, else through the scratch term.
  auto IntoGrad = [&](int Id, bool Accumulates, auto &&Kernel) {
    DenseMatrix &G = GradDense(Id);
    if (!Accumulates) {
      Kernel(G);
      return;
    }
    DenseMatrix &Term = Ws.fit(GS.Scratch, G.rows(), G.cols());
    Kernel(Term);
    kernels::axpyInto(1.0f, Term, G);
  };

  // Seed dL/dOut = 1, unless the output relu's VJP reads it implicitly.
  if (!GS.Schedule.empty() && !GS.ImplicitSeed)
    GradDense(Plan.OutputValue).fill(1.0f);

  if (Exec.stepProfiling())
    Result.BackwardProfiles.resize(GS.Schedule.size());
  else
    Result.BackwardProfiles.clear();

  double Backward = 0.0;
  for (size_t VjpIdx = 0; VjpIdx < GS.Schedule.size(); ++VjpIdx) {
    const VjpStep &V = GS.Schedule[VjpIdx];
    const PlanStep &Step = Plan.Steps[static_cast<size_t>(V.Step)];
    // One span per VJP, named apart from the forward ops ("vjp:gemm");
    // guarded like the forward step spans, since the name allocates.
    TraceSpan Span;
    if (Trace::get().enabled())
      Span = TraceSpan("vjp:" + stepOpName(Step.Op), "executor");
    const auto Res = static_cast<size_t>(Step.Result);
    const int Id = Step.Operands[static_cast<size_t>(V.Operand)];
    const bool Acc = V.Accumulates;
    const DenseMatrix &DY = GS.Dense[Res];      // dense results
    const std::vector<float> &DYv = GS.Vec[Res]; // vector and edge results
    auto OpVal = [&](int I) -> const RtValue & {
      return Values[static_cast<size_t>(Step.Operands[I])];
    };
    double Seconds = 0.0;

    switch (Step.Op) {
    case StepOp::Gemm: {
      const DenseMatrix &A = OpVal(0).dense();
      const DenseMatrix &B = OpVal(1).dense();
      Seconds = chargeDesc(V.Desc, [&] {
        if (V.Operand == 0) {
          IntoGrad(Id, Acc, [&](DenseMatrix &DA) {
            kernels::gemmTransposedRhsInto(DY, B, DA);
          });
          return;
        }
        std::vector<float> &Partials = Ws.fit(
            GS.Partials, kernels::gemmTransposedLhsPartialFloats(
                             A.rows(), A.cols(), DY.cols()));
        IntoGrad(Id, Acc, [&](DenseMatrix &DB) {
          kernels::gemmTransposedLhsInto(A, DY, DB, Partials);
        });
      });
      break;
    }
    case StepOp::SpmmWeighted:
    case StepOp::SpmmUnweighted: {
      const CsrMatrix &S = OpVal(0).sparse();
      const DenseMatrix &X = OpVal(1).dense();
      if (V.Operand == 0) {
        // dS_ij = dY_i . X_j (SDDMM at the sparse pattern).
        Seconds = chargeDesc(V.Desc, [&] {
          std::vector<float> &DS = GradVec(Id);
          if (!Acc) {
            kernels::sddmmInto(S, DY, X, DS);
            return;
          }
          std::vector<float> &Term = Ws.fit(GS.EdgeScratch, DS.size());
          kernels::sddmmInto(S, DY, X, Term);
          for (size_t I = 0; I < DS.size(); ++I)
            DS[I] += Term[I];
        });
        break;
      }
      // dX = S^T dY, walked through a CSC view of S (the shard blocks' CSC
      // slices when sharded) instead of re-materializing a transposed CSR
      // every step. The CSC build is a one-time O(E) edge map: setup.
      if (!Sparse.transposeReady()) {
        Result.SetupSeconds += chargeDesc(cscBuildDesc(S.rows(), S.nnz()),
                                          [&] { Sparse.buildTranspose(); });
      }
      Seconds = chargeDesc(V.Desc, [&] {
        IntoGrad(Id, Acc, [&](DenseMatrix &DX) {
          Sparse.spmmTransposedInto(edgeValuesOf(Step.Op, S), DY, DX);
        });
      });
      break;
    }
    case StepOp::RowBcast: {
      const std::vector<float> &Dv = OpVal(0).vec();
      Seconds = chargeDesc(V.Desc, [&] {
        IntoGrad(Id, Acc, [&](DenseMatrix &DH) {
          kernels::rowBroadcastMulInto(Dv, DY, DH);
        });
      });
      break;
    }
    case StepOp::ColBcast: {
      const std::vector<float> &Dv = OpVal(1).vec();
      Seconds = chargeDesc(V.Desc, [&] {
        IntoGrad(Id, Acc, [&](DenseMatrix &DH) {
          kernels::colBroadcastMulInto(DY, Dv, DH);
        });
      });
      break;
    }
    case StepOp::AddDense:
    case StepOp::ScaleDense: {
      const float Alpha =
          Step.Op == StepOp::AddDense ? 1.0f : static_cast<float>(Step.Param);
      Seconds = chargeDesc(V.Desc, [&] {
        DenseMatrix &G = GradDense(Id);
        if (Acc)
          kernels::axpyInto(Alpha, DY, G);
        else
          kernels::scaleMatrixInto(DY, Alpha, G);
      });
      break;
    }
    case StepOp::Relu: {
      const DenseMatrix &Pre = OpVal(0).dense();
      const bool Seed = GS.ImplicitSeed && Step.Result == Plan.OutputValue;
      Seconds = chargeDesc(V.Desc, [&] {
        IntoGrad(Id, Acc, [&](DenseMatrix &DI) {
          if (Seed)
            kernels::reluMaskInto(Pre, DI);
          else
            kernels::reluBackwardInto(Pre, DY, DI);
        });
      });
      break;
    }
    case StepOp::AttnGemv: {
      const DenseMatrix &Theta = OpVal(0).dense();
      const std::vector<float> &AVec = OpVal(1).vec();
      if (V.Operand == 0) {
        // dTheta_rc = dy_r * a_c.
        Seconds = chargeDesc(V.Desc, [&] {
          DenseMatrix &DTheta = GradDense(Id);
          for (int64_t R = 0; R < Theta.rows(); ++R) {
            float G = DYv[static_cast<size_t>(R)];
            float *Row = DTheta.rowPtr(R);
            if (!Acc && G == 0.0f)
              std::fill(Row, Row + Theta.cols(), 0.0f);
            else if (!Acc)
              for (int64_t C = 0; C < Theta.cols(); ++C)
                Row[C] = G * AVec[static_cast<size_t>(C)];
            else if (G != 0.0f)
              for (int64_t C = 0; C < Theta.cols(); ++C)
                Row[C] += G * AVec[static_cast<size_t>(C)];
          }
        });
        break;
      }
      // da_c = sum_r dy_r * Theta_rc.
      Seconds = chargeDesc(V.Desc, [&] {
        std::vector<float> &DA = GradVec(Id);
        if (!Acc)
          std::fill(DA.begin(), DA.end(), 0.0f);
        for (int64_t R = 0; R < Theta.rows(); ++R) {
          float G = DYv[static_cast<size_t>(R)];
          const float *Row = Theta.rowPtr(R);
          for (int64_t C = 0; C < Theta.cols(); ++C)
            DA[static_cast<size_t>(C)] += G * Row[C];
        }
      });
      break;
    }
    case StepOp::EdgeLogits: {
      const CsrMatrix &Mask = OpVal(0).sparse();
      const auto &Offsets = Mask.rowOffsets();
      const auto &Cols = Mask.colIndices();
      Seconds = chargeDesc(V.Desc, [&] {
        std::vector<float> &D = GradVec(Id);
        if (V.Operand == 1) {
          // dsrc_i = sum of row i's edge gradients.
          for (int64_t R = 0; R < Mask.rows(); ++R) {
            float Sum = Acc ? D[static_cast<size_t>(R)] : 0.0f;
            for (int64_t K = Offsets[static_cast<size_t>(R)];
                 K < Offsets[static_cast<size_t>(R) + 1]; ++K)
              Sum += DYv[static_cast<size_t>(K)];
            D[static_cast<size_t>(R)] = Sum;
          }
          return;
        }
        // ddst_j = sum of column j's edge gradients.
        if (!Acc)
          std::fill(D.begin(), D.end(), 0.0f);
        for (int64_t K = 0; K < Mask.nnz(); ++K)
          D[static_cast<size_t>(Cols[static_cast<size_t>(K)])] +=
              DYv[static_cast<size_t>(K)];
      });
      break;
    }
    case StepOp::EdgeLeakyRelu: {
      const AlignedVector<float> &Pre = OpVal(0).sparse().values();
      const float Slope = static_cast<float>(Step.Param);
      Seconds = chargeDesc(V.Desc, [&] {
        std::vector<float> &DIn = GradVec(Id);
        for (size_t I = 0; I < Pre.size(); ++I) {
          float G = DYv[I] * (Pre[I] > 0.0f ? 1.0f : Slope);
          DIn[I] = Acc ? DIn[I] + G : G;
        }
      });
      break;
    }
    case StepOp::EdgeSoftmax: {
      const CsrMatrix &Alpha = Values[Res].sparse();
      Seconds = chargeDesc(V.Desc, [&] {
        std::vector<float> &DIn = GradVec(Id);
        const auto &Offsets = Alpha.rowOffsets();
        const auto &AVals = Alpha.values();
        for (int64_t R = 0; R < Alpha.rows(); ++R) {
          int64_t Begin = Offsets[static_cast<size_t>(R)];
          int64_t End = Offsets[static_cast<size_t>(R) + 1];
          float Dot = 0.0f;
          for (int64_t K = Begin; K < End; ++K)
            Dot += AVals[static_cast<size_t>(K)] *
                   DYv[static_cast<size_t>(K)];
          for (int64_t K = Begin; K < End; ++K) {
            const auto E = static_cast<size_t>(K);
            float G = AVals[E] * (DYv[E] - Dot);
            DIn[E] = Acc ? DIn[E] + G : G;
          }
        }
      });
      break;
    }
    case StepOp::SddmmScaleRow:
    case StepOp::SddmmScaleCol:
    case StepOp::SddmmScaleBoth:
    case StepOp::DiagDiag:
    case StepOp::DegreeOffsets:
    case StepOp::DegreeBinning:
    case StepOp::InvSqrtVec:
    case StepOp::InvVec:
      graniiUnreachable("graph-only step in the backward schedule");
    }
    Backward += Seconds;

    if (!Result.BackwardProfiles.empty() || Span.active()) {
      StepProfile Local;
      StepProfile &P = Result.BackwardProfiles.empty()
                           ? Local
                           : Result.BackwardProfiles[VjpIdx];
      P.Value = "d" + valueName(Id);
      P.Op = "vjp:" + stepOpName(Step.Op);
      P.Shape = shapeOf(Id);
      P.Seconds = Seconds;
      P.Flops = V.Desc.flops();
      P.Bytes = V.Desc.bytes();
      if (Span.active()) {
        Span.setArg("value", P.Value);
        Span.setArg("shape", P.Shape);
        Span.setArg("charged_seconds", P.Seconds);
        Span.setArg("flops", P.Flops);
        Span.setArg("bytes", P.Bytes);
      }
    }
  }
  Result.BackwardSeconds = Backward;

  // Export parameter gradients for callers (optimizer steps, grad checks)
  // by copy-assignment into the result's existing entries. The feature
  // gradient of a reordered run scatters straight back to the caller's
  // vertex order; weight and attention gradients reduce over nodes and are
  // row-order independent.
  if (!FeatureGrad)
    Result.FeatureGrad = DenseMatrix();
  for (size_t V = 0; V < Plan.Values.size(); ++V) {
    const PlanValue &Val = Plan.Values[V];
    if (!Val.InputRole || !GS.Reached[V])
      continue;
    switch (*Val.InputRole) {
    case LeafRole::Weight:
      Result.WeightGrads[Val.DebugName] = GS.Dense[V];
      break;
    case LeafRole::Features:
      if (FeaturePerm) {
        Result.FeatureGrad.resize(GS.Dense[V].rows(), GS.Dense[V].cols());
        inversePermuteRowsInto(GS.Dense[V], *FeaturePerm, Result.FeatureGrad);
      } else {
        Result.FeatureGrad = GS.Dense[V];
      }
      break;
    case LeafRole::AttnSrcVec:
    case LeafRole::AttnDstVec:
      Result.AttnGrads[Val.DebugName] = GS.Vec[V];
      break;
    case LeafRole::Adjacency:
    case LeafRole::DegreeNorm:
    case LeafRole::DegreeInv:
      break;
    }
  }
}

/// Rebuilds \p Ws's reorder state for (Policy, Adj) if it is stale;
/// returns the setup seconds to charge (0 when the cache was already
/// valid). The rebuilt PAP^T lives at the old one's address with the same
/// size, so every cache keyed to it is dropped.
double reorderSetup(const Executor &Exec, PlanWorkspace &Ws,
                    const CsrMatrix &Adj, const GraphStats &Stats,
                    ReorderPolicy Policy) {
  detail::ReorderState &RS = Ws.reorderState();
  if (RS.Policy == Policy && RS.SourceAdj == &Adj &&
      RS.SourceNnz == Adj.nnz() && RS.PermAdj.rows() == Adj.rows())
    return 0.0;
  Ws.forgetAdjacency();
  // Per-(policy, graph) preprocessing, hoisted like degree normalizations.
  // Charged as an edge-traversal primitive: the permutation build and the
  // PAP^T rewrite are both O(E)-dominated passes over the structure.
  TraceSpan Span("reorder-setup", "executor");
  PrimitiveDesc Desc{PrimitiveKind::EdgeElementwise, Adj.rows(), 0, 0,
                     Adj.nnz()};
  return Exec.timeKernel(Desc, Stats, [&] {
    RS.Policy = Policy;
    RS.SourceAdj = &Adj;
    RS.SourceNnz = Adj.nnz();
    RS.Perm = makeReorderPermutation(Policy, Adj);
    RS.PermAdj = permuteSymmetric(Adj, RS.Perm);
    RS.PermStats = computeGraphStats(RS.PermAdj);
  });
}

/// Content hash of a CSR structure, naming the on-disk shard store so a
/// store built for one graph is never adopted for another. O(E), paid only
/// on the store path where the block build itself is O(E log E).
uint64_t csrStructureHash(const CsrMatrix &Adj) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  Mix(static_cast<uint64_t>(Adj.rows()));
  Mix(static_cast<uint64_t>(Adj.nnz()));
  for (int64_t Off : Adj.rowOffsets())
    Mix(static_cast<uint64_t>(Off));
  for (int32_t Col : Adj.colIndices())
    Mix(static_cast<uint64_t>(static_cast<uint32_t>(Col)));
  return H;
}

/// Rebuilds (or maps from \p Spec's store) \p SS's partition and blocks
/// for (Spec.Shards, Adj) if they are stale; returns the setup seconds to
/// charge (0 when already valid).
double shardSetup(const Executor &Exec, detail::ShardState &SS,
                  const CsrMatrix &Adj, const GraphStats &Stats,
                  const ShardSpec &Spec) {
  if (SS.Shards == Spec.Shards && SS.SourceAdj == &Adj &&
      SS.SourceNnz == Adj.nnz() && SS.StoreDir == Spec.StoreDir &&
      SS.Set.numNodes() == Adj.rows())
    return 0.0;
  // Per-(shard count, graph) preprocessing, hoisted like the reorder
  // permutation: the partition and the block build are both
  // O(E)-dominated passes over the structure.
  TraceSpan Span("shard-setup", "executor");
  PrimitiveDesc Desc{PrimitiveKind::EdgeElementwise, Adj.rows(), 0, 0,
                     Adj.nnz()};
  return Exec.timeKernel(Desc, Stats, [&] {
    SS.Shards = Spec.Shards;
    SS.SourceAdj = &Adj;
    SS.SourceNnz = Adj.nnz();
    SS.StoreDir = Spec.StoreDir;
    SS.Part = shard::partitionGraph(Adj, Spec.Shards);
    if (Spec.StoreDir.empty()) {
      SS.Set = shard::ShardSet::build(Adj, SS.Part);
    } else {
      // mmap-backed store: build once per (graph structure, shard count),
      // then adopt the read-only mapping so block structure pages in on
      // demand. Keyed by content hash — a stale or foreign file never
      // matches, and a damaged one aborts in load()'s validation.
      char Name[64];
      std::snprintf(Name, sizeof(Name), "/granii-g%016llx-s%d.grshard",
                    static_cast<unsigned long long>(csrStructureHash(Adj)),
                    Spec.Shards);
      const std::string Path = Spec.StoreDir + Name;
      std::ifstream Probe(Path, std::ios::binary);
      const bool Exists = Probe.good();
      Probe.close();
      if (!Exists) {
        std::string Err;
        GRANII_CHECK(shard::ShardSet::build(Adj, SS.Part).save(Path, &Err),
                     "cannot write shard store: " + Err);
      }
      SS.Set = shard::ShardSet::load(Path);
    }
    // Fresh blocks invalidate any staged halo capacities sized for the
    // previous graph.
    SS.Staging = shard::ShardStaging();
  });
}

/// Gathers the caller's features into permuted order and returns inputs
/// rebound to the cached reordered graph; \p PermSeconds receives the
/// per-iteration gather cost.
LayerInputs permuteInputs(const Executor &Exec, detail::ReorderState &RS,
                          const LayerInputs &Inputs, PlanWorkspace &Ws,
                          double &PermSeconds) {
  const DenseMatrix &H = *Inputs.Features;
  Ws.fit(RS.PermFeatures, H.rows(), H.cols());
  // The gather runs every iteration (features may change between calls
  // even when the graph does not), so it is charged per iteration as a
  // dense row map — its real cost on measured platforms.
  TraceSpan Span("permute-features", "executor");
  PrimitiveDesc Desc{PrimitiveKind::DenseMap, H.rows(), H.cols(), 0, 0};
  PermSeconds += Exec.timeKernel(Desc, RS.PermStats, [&] {
    permuteRowsInto(H, RS.Perm, RS.PermFeatures);
  });

  LayerInputs Permuted = Inputs;
  Permuted.Adjacency = &RS.PermAdj;
  Permuted.Features = &RS.PermFeatures;
  return Permuted;
}

/// Scatters \p M (rows in permuted order) back to the caller's vertex
/// order through \p Staging and returns the seconds charged.
double unpermuteRows(const Executor &Exec, detail::ReorderState &RS,
                     DenseMatrix &M, DenseMatrix &Staging, PlanWorkspace &Ws) {
  Ws.fit(Staging, M.rows(), M.cols());
  TraceSpan Span("unpermute-output", "executor");
  PrimitiveDesc Desc{PrimitiveKind::DenseMap, M.rows(), M.cols(), 0, 0};
  double Seconds = Exec.timeKernel(Desc, RS.PermStats, [&] {
    inversePermuteRowsInto(M, RS.Perm, Staging);
  });
  std::swap(M, Staging); // Both buffers persist; no allocation.
  return Seconds;
}

/// One amortized iteration through a temporary workspace: \p Run executes
/// once cold (paying every one-time set-up) and once warm; the warm result
/// is returned with the cold run's SetupSeconds.
template <typename RunFn> ExecResult coldThenWarm(RunFn Run) {
  PlanWorkspace Ws;
  ExecResult Cold, Warm;
  Run(Ws, Cold);
  Run(Ws, Warm);
  Warm.SetupSeconds = Cold.SetupSeconds;
  return Warm;
}

} // namespace

ExecResult Executor::run(const CompositionPlan &Plan, const LayerInputs &Inputs,
                         const GraphStats &Stats) const {
  return coldThenWarm([&](PlanWorkspace &Ws, ExecResult &R) {
    run(Plan, Inputs, Stats, Ws, R);
  });
}

ExecResult Executor::runTraining(const CompositionPlan &Plan,
                                 const LayerInputs &Inputs,
                                 const GraphStats &Stats,
                                 bool FeatureGrad) const {
  return coldThenWarm([&](PlanWorkspace &Ws, ExecResult &R) {
    runTraining(Plan, Inputs, Stats, Ws, R, ReorderPolicy::None,
                SparseFormat::Csr, ShardSpec(), FeatureGrad);
  });
}

void Executor::run(const CompositionPlan &Plan, const LayerInputs &Inputs,
                   const GraphStats &Stats, PlanWorkspace &Ws,
                   ExecResult &Result, ReorderPolicy Policy,
                   SparseFormat Format, const ShardSpec &Sharding) const {
  execute(Plan, Inputs, Stats, Ws, Result, Policy, Format, Sharding,
          /*Training=*/false, /*FeatureGrad=*/false);
}

void Executor::runTraining(const CompositionPlan &Plan,
                           const LayerInputs &Inputs, const GraphStats &Stats,
                           PlanWorkspace &Ws, ExecResult &Result,
                           ReorderPolicy Policy, SparseFormat Format,
                           const ShardSpec &Sharding, bool FeatureGrad) const {
  execute(Plan, Inputs, Stats, Ws, Result, Policy, Format, Sharding,
          /*Training=*/true, FeatureGrad);
}

void Executor::execute(const CompositionPlan &Plan, const LayerInputs &Inputs,
                       const GraphStats &Stats, PlanWorkspace &Ws,
                       ExecResult &Result, ReorderPolicy Policy,
                       SparseFormat Format, const ShardSpec &Sharding,
                       bool Training, bool FeatureGrad) const {
  GRANII_CHECK(Format == SparseFormat::Csr,
               "Executor: format must be csr (resolve auto by selection)");
  const LayerInputs *Bound = &Inputs;
  const GraphStats *BoundStats = &Stats;
  detail::ReorderState &RS = Ws.reorderState();
  double SetupSeconds = 0.0;
  double PermSeconds = 0.0;
  LayerInputs Permuted;
  if (Policy != ReorderPolicy::None) {
    SetupSeconds += reorderSetup(*this, Ws, *Inputs.Adjacency, Stats, Policy);
    Permuted = permuteInputs(*this, RS, Inputs, Ws, PermSeconds);
    Bound = &Permuted;
    BoundStats = &RS.PermStats;
  }
  const CsrMatrix &Adj = *Bound->Adjacency;
  if (Sharding.active())
    SetupSeconds +=
        shardSetup(*this, Ws.shardState(), Adj, *BoundStats, Sharding);
  Ws.configure(Plan, Bound->binding(&Plan), Training, FeatureGrad);
  SparseOperand Sparse(Adj, Ws, Sharding.active());
  PlanInterpreter Interp(*this, Plan, *Bound, *BoundStats, Ws, Sparse);
  Interp.forward(Result);
  if (Training) {
    Interp.backward(Result, FeatureGrad,
                    Policy != ReorderPolicy::None ? &RS.Perm : nullptr);
  } else {
    Result.WeightGrads.clear();
    Result.AttnGrads.clear();
    Result.FeatureGrad = DenseMatrix();
    Result.BackwardProfiles.clear();
  }
  if (Policy != ReorderPolicy::None)
    PermSeconds += unpermuteRows(*this, RS, Result.Output, RS.PermOutput, Ws);
  Result.SetupSeconds += SetupSeconds;
  Result.ForwardSeconds += PermSeconds;
}
