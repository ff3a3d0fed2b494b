//===- main.cpp - granii-perfbench entry point ----------------------------===//
//
// Subcommands (perfbench/run.py drives gen and run):
//   gen    --workload W --seed N --dir D [--tiny]
//          writes the workload's Matrix Market graph under D.
//   run    --workload W --dir D --cache-dir C --seconds S --trace 0|1
//          --model-file F [--setups N] [--trace-out P] [--tiny]
//          [--plant wrong-output|steady-alloc]
//          measures the workload; the last stdout line is the result JSON.
//   daemon --socket P
//          the serve daemon of the traced run's serve probe (spawned by
//          `run`).
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Inputs.h"
#include "Workloads.h"

#include "kernels/Dispatch.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: granii-perfbench gen|run|daemon [options] (see "
               "perfbench/README.md)\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  std::map<std::string, std::string> Opt;
  for (int I = 2; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key.rfind("--", 0) != 0)
      return usage();
    Key = Key.substr(2);
    if (Key == "tiny")
      Opt[Key] = "1";
    else if (I + 1 < Argc)
      Opt[Key] = Argv[++I];
    else
      return usage();
  }
  auto Get = [&](const char *Key, const char *Default = "") {
    auto It = Opt.find(Key);
    return It == Opt.end() ? std::string(Default) : It->second;
  };

  if (Cmd == "daemon")
    return Get("socket").empty() ? usage() : runDaemon(Get("socket"));

  if (Cmd == "gen") {
    std::filesystem::create_directories(Get("dir"));
    generateInputs(Get("workload"), std::stoull(Get("seed", "1")),
                   Opt.count("tiny") != 0, Get("dir"));
    return 0;
  }
  if (Cmd != "run")
    return usage();

  RunConfig Cfg;
  Cfg.Workload = Get("workload");
  Cfg.Dir = Get("dir");
  Cfg.CacheDir = Get("cache-dir");
  Cfg.ModelFile = Get("model-file");
  Cfg.TraceOut = Get("trace-out");
  Cfg.Seconds = std::stod(Get("seconds", "10"));
  Cfg.Traced = Get("trace", "0") == "1";
  Cfg.Tiny = Opt.count("tiny") != 0;
  Cfg.Setups = std::stoi(Get("setups", "3"));
  std::string PlantName = Get("plant", "none");
  Cfg.Planted = PlantName == "wrong-output"   ? Plant::WrongOutput
                : PlantName == "steady-alloc" ? Plant::SteadyAlloc
                                              : Plant::None;
  char Self[4096];
  ssize_t Len = readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  if (Len <= 0)
    return 1;
  Self[Len] = '\0';
  Cfg.SelfExe = Self;
  if (Cfg.Dir.empty() || Cfg.CacheDir.empty())
    return usage();

  if (Cfg.Traced)
    Tracer::get().enable();
  Report Out;
  Out.detailText("workload", Cfg.Workload);
  Out.detailText("isa", granii::kernels::isaLevelName(
                            granii::kernels::activeIsaLevel()));
  if (Cfg.Workload == "train-rmat")
    runTrainRmat(Cfg, Out);
  else if (Cfg.Workload == "infer-gat-sharded")
    runInferGatSharded(Cfg, Out);
  else
    return usage();

  if (!Cfg.Traced)
    Out.metric("success_ratio", Out.successRatio(), "ratio");
  if (Cfg.Traced && !Cfg.TraceOut.empty() &&
      !Tracer::get().writeChromeTrace(Cfg.TraceOut))
    std::fprintf(stderr, "cannot write %s\n", Cfg.TraceOut.c_str());
  Out.print();
  return 0;
}
