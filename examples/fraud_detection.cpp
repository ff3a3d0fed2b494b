//===- fraud_detection.cpp - Training a GCN on a transaction graph -----------===//
//
// Domain example from the paper's introduction: financial fraud detection.
// A bipartite-flavored community graph stands in for an account/merchant
// transaction network; a two-layer GCN is trained (forward + backward) with
// plain gradient descent on a synthetic fraud-score objective. GRANII picks
// the composition per layer once and the decision is reused across all
// training iterations (the amortization the paper's 100-iteration setup
// models).
//
//   $ ./examples/fraud_detection
//
//===----------------------------------------------------------------------===//

#include "granii/Granii.h"

#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "support/Timer.h"

#include <cstdio>

using namespace granii;

int main() {
  // Account communities with cross-community transaction edges.
  Graph G = makeCommunityGraph(/*NumCommunities=*/120, /*CommunitySize=*/12,
                               /*IntraProbability=*/0.5, /*InterEdges=*/2000,
                               /*Seed=*/7, "transactions");
  std::printf("transaction graph: %lld accounts, %lld edges\n",
              static_cast<long long>(G.numNodes()),
              static_cast<long long>(G.numEdges()));

  const int64_t FeatureDim = 32, HiddenDim = 16;
  GnnModel Model = makeModel(ModelKind::GCN);

  OptimizerOptions Options;
  Options.Hw = HardwareModel::byName("cpu");
  Options.Iterations = 50; // Training horizon to amortize over.
  Options.Training = true; // Price forward + backward when selecting.
  AnalyticCostModel Cost(Options.Hw);
  Optimizer Granii(Model, Options, &Cost);

  // One selection per layer configuration, reused for every epoch.
  Selection Sel1 = Granii.select(G, FeatureDim, HiddenDim);
  Selection Sel2 = Granii.select(G, HiddenDim, HiddenDim);
  std::printf("layer 1 composition: #%zu, layer 2 composition: #%zu\n",
              Sel1.PlanIndex, Sel2.PlanIndex);

  LayerParams Layer1 = makeLayerParams(Model, G, FeatureDim, HiddenDim, 3);
  LayerParams Layer2 = makeLayerParams(Model, G, HiddenDim, HiddenDim, 4);

  // Gradient descent on L = sum(output): runTraining seeds dL/dOut = 1 and
  // returns dW, which we apply with a small step. (A real pipeline would
  // use a task loss; the execution path GRANII optimizes is identical.)
  const float LearningRate = 1e-3f;
  Timer Wall;
  double FirstLoss = 0.0, LastLoss = 0.0;
  for (int Epoch = 0; Epoch < 20; ++Epoch) {
    ExecResult R1 = Granii.execute(Sel1, Layer1, /*Training=*/true);
    Layer2.Features = R1.Output;
    ExecResult R2 = Granii.execute(Sel2, Layer2, /*Training=*/true);

    LastLoss = R2.Output.sum();
    if (Epoch == 0)
      FirstLoss = LastLoss;

    // SGD step: descend on every learned weight of both layers.
    for (auto &[Name, W] : Layer1.Weights)
      if (R1.WeightGrads.count(Name))
        kernels::axpyInto(-LearningRate, R1.WeightGrads.at(Name), W);
    for (auto &[Name, W] : Layer2.Weights)
      if (R2.WeightGrads.count(Name))
        kernels::axpyInto(-LearningRate, R2.WeightGrads.at(Name), W);
  }

  std::printf("trained 20 epochs in %.1f ms wall time\n", Wall.millis());
  std::printf("objective sum(H'): %.2f -> %.2f (decreasing => gradients "
              "flow through the selected compositions)\n",
              FirstLoss, LastLoss);
  return LastLoss < FirstLoss ? 0 : 1;
}
