//===- Inputs.cpp - Seeded workload inputs --------------------------------===//

#include "Inputs.h"

#include "graph/Generators.h"
#include "graph/MatrixMarket.h"
#include "support/Error.h"

using namespace granii;
using namespace perfbench;

namespace {

void writeGraph(const Graph &G, const std::string &Path) {
  std::string Err;
  if (!writeMatrixMarket(G, Path, &Err))
    GRANII_FATAL("cannot write " + Path + ": " + Err);
}

} // namespace

std::string perfbench::trainGraphPath(const std::string &Dir) {
  return Dir + "/train-rmat.mtx";
}

std::string perfbench::inferGraphPath(const std::string &Dir) {
  return Dir + "/infer-community.mtx";
}

void perfbench::generateInputs(const std::string &Workload, uint64_t Seed,
                               bool Tiny, const std::string &Dir) {
  if (Workload == "train-rmat") {
    // Power-law R-MAT with the quadrant weights of synth:rmat.
    int64_t Nodes = Tiny ? 2048 : 65536;
    int64_t Edges = Tiny ? 16384 : 1048576;
    writeGraph(makeRmat(Nodes, Edges, 0.57, 0.19, 0.19, Seed, "train-rmat"),
               trainGraphPath(Dir));
  } else if (Workload == "infer-gat-sharded") {
    // 1024 communities of 128 (intra p = 0.12) plus 150k inter edges:
    // 131072 nodes, about 2.3M stored edges.
    Graph G = Tiny ? makeCommunityGraph(64, 32, 0.2, 600, Seed, "infer-community")
                   : makeCommunityGraph(1024, 128, 0.12, 150000, Seed,
                                        "infer-community");
    writeGraph(G, inferGraphPath(Dir));
  } else {
    GRANII_FATAL("unknown workload '" + Workload + "'");
  }
}
