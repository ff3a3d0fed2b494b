//===- ServeProbe.cpp - The serve layer's probe and daemon ----------------===//
//
// A serve::Server daemon runs in its own process (spawned from this binary)
// with default engine options and a fresh GRANII_CACHE_DIR. The traced run
// of infer-gat-sharded sends it the workload's own request over a real Unix
// socket: once cold, then warm, then reseeded, which is a session miss
// that hits the plan cache.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "Layers.h"
#include "Workloads.h"

#include "serve/Server.h"

#include <sys/prctl.h>
#include <unistd.h>

using namespace granii;
using namespace granii::serve;
using namespace perfbench;

void perfbench::probeServeLayer(const RunConfig &Cfg, const JobRequest &Req,
                                const std::vector<float> &SessionOutput,
                                Report &Out) {
  Daemon D(Cfg, Cfg.Dir + "/d.sock", Cfg.CacheDir + "/serve-probe");
  Client C;
  if (!D.spawned() || !D.connect(C)) {
    Out.check(false, "serve probe: daemon did not start");
    reportServeLayerZeros(Out);
    return;
  }
  std::vector<double> Warm, Cold, Overhead;
  double Hits = 0.0, Lookups = 0.0;
  auto Send = [&](const JobRequest &R) {
    Span S("serve.request", static_cast<int64_t>(Lookups));
    RunResponse Resp;
    std::string Err;
    bool Ok = C.run(R, Resp, &Err) && Resp.Status.Ok;
    double Rtt = S.end() * 1e3;
    Out.op(Ok && !(Resp.SessionCacheHit && Resp.SteadyAllocations != 0),
           "serve probe: " + Err + Resp.Status.Error);
    Lookups += 1.0;
    if (!Resp.SessionCacheHit) {
      Cold.push_back(Rtt);
      return;
    }
    Hits += 1.0;
    Warm.push_back(Rtt);
    Overhead.push_back(Rtt - (Resp.SetupSeconds + Resp.ForwardSeconds +
                              Resp.BackwardSeconds) *
                                 1e3);
  };
  Send(Req); // cold: full compile
  for (int I = 0; I < (Cfg.Tiny ? 3 : 10); ++I)
    Send(Req);
  JobRequest Reseeded = Req;
  ++Reseeded.Seed; // new session, same plan-cache key
  Send(Reseeded);
  Out.check(Hits == Lookups - 2.0 && Cold.size() == 2,
            "serve probe: expected 2 session misses, got " +
                std::to_string(Cold.size()));

  // The daemon's answer must equal the in-process session's bit for bit.
  // Untimed: the output alone is tens of MB on the socket.
  JobRequest WithOutput = Req;
  WithOutput.WantOutput = true;
  RunResponse Remote;
  std::string Err;
  Out.check(C.run(WithOutput, Remote, &Err) && Remote.Status.Ok &&
                Remote.Output == SessionOutput,
            "serve probe: daemon answer differs from the in-process session " +
                Err + Remote.Status.Error);

  StatsResponse Stats;
  bool StatsOk = C.stats(Stats) && Stats.Status.Ok;
  C.close();
  Out.check(StatsOk, "serve probe: stats verb failed");
  Out.check(D.stop(), "serve probe: daemon did not drain cleanly");

  double PlanLookups =
      static_cast<double>(Stats.PlanCacheHits + Stats.PlanCacheMisses);
  Out.metric("serve.warm_ms", median(Warm), "ms");
  Out.metric("serve.cold_ms", median(Cold), "ms");
  Out.metric("serve.rtt_overhead_ms", median(Overhead), "ms");
  Out.metric("serve.session_hit_ratio", Hits / Lookups, "ratio");
  Out.metric("serve.plan_cache_hit_ratio",
             PlanLookups > 0 ? Stats.PlanCacheHits / PlanLookups : 0.0,
             "ratio");
  // The bases of the two ratios; the probe's script fixes them.
  Out.detail("serve_session_lookups", Lookups);
  Out.detail("serve_plan_cache_lookups", PlanLookups);
}

int perfbench::runDaemon(const std::string &Socket) {
  // Never outlive the load process, even if it is killed.
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (getppid() == 1)
    return 1;
  ServerOptions Opts;
  Opts.SocketPath = Socket;
  Server S(Opts);
  std::string Err;
  if (!S.start(&Err)) {
    std::fprintf(stderr, "daemon: %s\n", Err.c_str());
    return 1;
  }
  S.wait();
  return 0;
}
