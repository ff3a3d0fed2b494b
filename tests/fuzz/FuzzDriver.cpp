//===- FuzzDriver.cpp - Deterministic mutation driver for fuzz targets ----===//
///
/// \file
/// Runs a libFuzzer-style target (LLVMFuzzerTestOneInput) without libFuzzer,
/// so the fuzz targets build and run with gcc. It loads seed inputs, then
/// feeds the target a seeded stream of mutants: bit flips, byte
/// substitutions, truncation, chunk erase and duplication, insertion of
/// boundary numbers, and splices of two seeds. There is no coverage
/// feedback; this is a smoke run that the target survives many malformed
/// inputs (under ASan/UBSan in the sanitizer CI leg), not a replacement for
/// coverage-guided fuzzing. The stream depends only on --seed, so a failing
/// run replays exactly by running the same command again.
///
///   <target> [--runs N] [--seed S] [--max-len L] <seed file or dir>...
///
//===----------------------------------------------------------------------===//

#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size);

namespace {

using Input = std::string;

/// Bytes that steer a text parser into its edge cases.
constexpr std::string_view InterestingBytes = " \t\r\n%-+.0123456789eExX";

/// Tokens at numeric and format boundaries, separated by '|'.
constexpr std::string_view InterestingTokens =
    "0|-1|2147483647|2147483648|9223372036854775807|99999999999999999999|"
    "1e308|1e-400|nan|inf|0x1p+3|%%MatrixMarket matrix coordinate |pattern|"
    "real|symmetric|\n|\r\n";

/// One of InterestingTokens, uniformly.
std::string_view interestingToken(granii::Rng &R) {
  static const std::vector<std::string_view> Tokens = [] {
    std::vector<std::string_view> Out;
    for (size_t Begin = 0;;) {
      size_t Bar = InterestingTokens.find('|', Begin);
      Out.push_back(InterestingTokens.substr(Begin, Bar - Begin));
      if (Bar == std::string_view::npos)
        return Out;
      Begin = Bar + 1;
    }
  }();
  return Tokens[R.nextBelow(Tokens.size())];
}

/// A uniform draw in [0, Bound); 0 when Bound is 0.
size_t below(granii::Rng &R, size_t Bound) {
  return Bound == 0 ? 0 : static_cast<size_t>(R.nextBelow(Bound));
}

/// A position in [0, size] of \p In. Half the draws skip the first line:
/// text formats open with a fixed banner, and mutants that break it only
/// ever reach the banner check.
size_t position(const Input &In, granii::Rng &R) {
  size_t Body = std::min(In.find('\n'), In.size());
  if (R.nextBelow(2) == 0 && Body < In.size())
    return Body + 1 + below(R, In.size() - Body);
  return below(R, In.size() + 1);
}

void mutateOnce(Input &In, const std::vector<Input> &Seeds, granii::Rng &R) {
  size_t At = position(In, R);
  switch (R.nextBelow(7)) {
  case 0: // flip one bit
    if (At < In.size())
      In[At] ^= static_cast<char>(1u << R.nextBelow(8));
    break;
  case 1: // substitute an interesting or random byte
    if (At < In.size())
      In[At] = R.nextBelow(4) == 0
                   ? static_cast<char>(R.nextBelow(256))
                   : InterestingBytes[R.nextBelow(InterestingBytes.size())];
    break;
  case 2: // truncate
    In.resize(At);
    break;
  case 3: // erase a chunk
    In.erase(At, below(R, In.size() - At + 1));
    break;
  case 4: { // duplicate a chunk (repeated lines, runs of digits)
    Input Chunk = In.substr(At, below(R, In.size() - At + 1));
    In.insert(position(In, R), Chunk);
    break;
  }
  case 5: // insert a boundary token
    In.insert(At, interestingToken(R));
    break;
  case 6: { // splice: a prefix of this input, a suffix of a seed
    const Input &Other = Seeds[below(R, Seeds.size())];
    In = In.substr(0, At) + Other.substr(position(Other, R));
    break;
  }
  }
}

bool loadSeeds(const std::string &Path, std::vector<Input> &Seeds) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  std::error_code Ec;
  if (fs::is_directory(Path, Ec)) {
    for (const fs::directory_entry &E : fs::directory_iterator(Path, Ec))
      if (E.is_regular_file())
        Files.push_back(E.path());
    std::sort(Files.begin(), Files.end()); // directory order is unspecified
  } else {
    Files.push_back(Path);
  }
  for (const fs::path &F : Files) {
    std::ifstream In(F, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "error: cannot read seed %s\n", F.c_str());
      return false;
    }
    std::ostringstream Text;
    Text << In.rdbuf();
    Seeds.push_back(Text.str());
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  long long Runs = 100000;
  uint64_t Seed = 1;
  size_t MaxLen = 4096;
  std::vector<Input> Seeds;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if ((Arg == "--runs" || Arg == "--seed" || Arg == "--max-len") &&
        I + 1 < Argc) {
      long long V = std::atoll(Argv[++I]);
      if (Arg == "--runs")
        Runs = V;
      else if (Arg == "--seed")
        Seed = static_cast<uint64_t>(V);
      else
        MaxLen = static_cast<size_t>(std::max(1LL, V));
      continue;
    }
    if (!loadSeeds(Arg, Seeds))
      return 2;
  }
  if (Seeds.empty()) {
    std::fprintf(stderr, "usage: %s [--runs N] [--seed S] [--max-len L] "
                         "<seed file or dir>...\n",
                 Argv[0]);
    return 2;
  }

  auto Start = std::chrono::steady_clock::now();
  auto Feed = [](const Input &In) {
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t *>(In.data()),
                           In.size());
  };
  for (const Input &S : Seeds) // every seed once, unmutated
    Feed(S);
  granii::Rng R(Seed);
  for (long long Run = 0; Run < Runs; ++Run) {
    Input In = Seeds[R.nextBelow(Seeds.size())];
    for (uint64_t M = 1 + R.nextBelow(3); M > 0; --M)
      mutateOnce(In, Seeds, R);
    if (In.size() > MaxLen)
      In.resize(MaxLen);
    Feed(In);
  }
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  std::printf("fuzz: %lld mutated runs + %zu seeds, seed %llu, %.2f s\n",
              Runs, Seeds.size(), static_cast<unsigned long long>(Seed),
              Seconds);
  return 0;
}
