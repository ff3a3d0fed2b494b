//===- PlanFuzz.cpp - Fuzz target for plan files --------------------------===//
///
/// \file
/// libFuzzer entry point for the plan-cache disk tier's reader: the plan
/// text goes through deserializePlans and, when it parses, through
/// verifyPromotedSet, the checks a set passes before the Optimizer takes
/// it. The invariant: every input is either rejected with a message or
/// parsed and checked; nothing aborts. Builds with
/// clang's -fsanitize=fuzzer, or with FuzzDriver.cpp where libFuzzer is not
/// available.
///
//===----------------------------------------------------------------------===//

#include "assoc/PlanSerialize.h"
#include "verify/VerifyPlan.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace granii;

namespace {

[[noreturn]] void violated(const char *What) {
  std::fprintf(stderr, "plan fuzz invariant violated: %s\n", What);
  std::abort();
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::string Text(reinterpret_cast<const char *>(Data), Size);
  std::string Error;
  std::optional<std::vector<CompositionPlan>> Plans =
      deserializePlans(Text, &Error, "fuzz");
  if (!Plans) {
    if (Error.empty())
      violated("rejection without a message");
    return 0;
  }
  DiagEngine Diags;
  verifyPromotedSet(*Plans, Diags); // must return on any parsed set
  return 0;
}
