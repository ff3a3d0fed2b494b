//===- MatrixMarketFuzz.cpp - Fuzz target for the Matrix Market reader ----===//
///
/// \file
/// libFuzzer entry point for parseMatrixMarket, the parser behind every
/// graph file a `serve` request names. The invariant: every input either
/// yields a verified graph or returns std::nullopt with a "line <n>: ..."
/// message; nothing aborts. It runs at the reader's own limits, so a size
/// line that declares a huge node count is rejected here as it is in
/// production, and each execution's memory stays proportional to its
/// input. Builds with clang's -fsanitize=fuzzer, or with FuzzDriver.cpp
/// where libFuzzer is not available.
///
//===----------------------------------------------------------------------===//

#include "graph/MatrixMarket.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

using namespace granii;

namespace {

[[noreturn]] void violated(const char *What, const std::string &Detail) {
  std::fprintf(stderr, "mtx fuzz invariant violated: %s: %s\n", What,
               Detail.c_str());
  std::abort();
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::string_view Text(reinterpret_cast<const char *>(Data), Size);
  std::string Error;
  std::optional<Graph> G = parseMatrixMarket(Text, "fuzz", &Error);
  if (!G) {
    if (Error.rfind("line ", 0) != 0)
      violated("rejection without a line number", Error);
    return 0;
  }
  if (!Error.empty())
    violated("accepted input with an error message", Error);
  // The reader's node budget: at most one node per input byte.
  if (G->numNodes() < 1 || static_cast<size_t>(G->numNodes()) > Size)
    violated("node count outside the reader's budget",
             std::to_string(G->numNodes()));
  G->adjacency().verify(); // aborts on a malformed CSR
  return 0;
}
