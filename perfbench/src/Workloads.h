//===- Workloads.h - The benchmark's workloads ------------------*- C++ -*-===//

#ifndef GRANII_PERFBENCH_WORKLOADS_H
#define GRANII_PERFBENCH_WORKLOADS_H

#include "Common.h"

#include "serve/Protocol.h"

#include <string>
#include <vector>

namespace perfbench {

/// train-rmat: GCN forward+backward, format=auto, one warm session.
void runTrainRmat(const RunConfig &Cfg, Report &Out);
/// infer-gat-sharded: GAT inference over 4 shards, one warm session.
void runInferGatSharded(const RunConfig &Cfg, Report &Out);

/// The serve layer's per-layer metrics for one whole-graph request: a
/// daemon process serves \p Req cold, then warm, then reseeded (a session
/// miss that hits the plan cache), over a real Unix socket. Also checks
/// that the daemon's answer equals \p SessionOutput, the in-process
/// session's output for \p Req, bit for bit.
void probeServeLayer(const RunConfig &Cfg, const granii::serve::JobRequest &Req,
                     const std::vector<float> &SessionOutput, Report &Out);

/// The serve daemon subcommand: a serve::Server with default engine
/// options on \p Socket until the shutdown verb arrives.
int runDaemon(const std::string &Socket);

} // namespace perfbench

#endif // GRANII_PERFBENCH_WORKLOADS_H
