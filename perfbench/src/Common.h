//===- Common.h - Shared pieces of the end-to-end benchmark -----*- C++ -*-===//
///
/// \file
/// Sample statistics, the metric sink every workload reports into, the
/// benchmark's own span tracer, and the run configuration parsed from the
/// command line. The tracer lives here, in the benchmark, on purpose: spans
/// are recorded around the benchmark's calls into each GRANII module, so the
/// library itself is measured from outside and stays unmodified.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_PERFBENCH_COMMON_H
#define GRANII_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p Start.
inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// CPU seconds this process has used so far, summed over its threads. On a
/// virtual machine the kernel leaves out the time the hypervisor gave to
/// other guests (steal), which wall time includes.
double processCpuSeconds();

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated percentile \p P (0..100) of \p Samples; 0 if empty.
double percentile(std::vector<double> Samples, double P);
inline double median(const std::vector<double> &Samples) {
  return percentile(Samples, 50.0);
}

/// This process's peak resident set in MB (getrusage).
double peakRssMb();

//===----------------------------------------------------------------------===//
// Run configuration and results
//===----------------------------------------------------------------------===//

/// Faults the self-test plants to prove the checks catch them.
enum class Plant { None, WrongOutput, SteadyAlloc };

struct RunConfig {
  std::string Workload;
  std::string Dir;       ///< generated inputs (graph files)
  std::string CacheDir;  ///< fresh per run; sub-directories per engine
  std::string ModelFile; ///< examples/gcn.gnn of the checkout
  std::string TraceOut;  ///< Chrome trace destination (traced runs)
  std::string SelfExe;   ///< this binary, for spawning the serve daemon
  double Seconds = 10.0;
  bool Traced = false;
  bool Tiny = false;
  int Setups = 3;        ///< cold set-ups per run (median reported)
  Plant Planted = Plant::None;
};

/// What one run reports: the operation and check tallies, the named
/// metrics, and free form details (sample counts, the regret table,
/// environment).
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  void detail(const std::string &Key, const std::string &JsonValue);
  void detail(const std::string &Key, double Value);
  void detailText(const std::string &Key, const std::string &Text);

  /// Counts one operation (a warm iteration or a probe request); \p Ok
  /// false counts it as failed and records \p Why (the first few reasons
  /// are kept for the details line).
  void op(bool Ok, const std::string &Why = "");
  /// Counts one correctness check, which is also an operation. Whatever
  /// an operation can get wrong is also covered by a check, so one failed
  /// check among the 12 or 13 of an untraced run moves successRatio() by
  /// 0.07 or more, however many iterations the run made.
  void check(bool Ok, const std::string &Why = "");

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  bool correct() const { return Failed == 0; }
  /// Share of the run's checks that passed (0 when none ran).
  double successRatio() const;

  /// The details line and the final result line (the last stdout line).
  void print() const;

private:
  std::mutex M;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Checks = 0;
  uint64_t FailedChecks = 0;
  std::vector<std::string> Problems;
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::map<std::string, std::string> Details;
};

std::string jsonString(const std::string &S);
std::string jsonNumber(double V);
std::string jsonArray(const std::vector<double> &Values);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Disabled (the untraced runs) it records
/// nothing and Span costs one branch. Spans nest per thread; a span's
/// parent is the innermost open span of the same thread.
class Tracer {
public:
  struct SpanRec {
    std::string Name;
    double Start = 0.0; ///< seconds since the tracer's epoch
    double End = 0.0;
    int64_t Parent = -1;
    int64_t Request = -1;
    int Thread = 0;
  };

  static Tracer &get();
  void enable() { Enabled = true; }
  bool enabled() const { return Enabled; }

  int64_t open(const std::string &Name, int64_t Request);
  void close(int64_t Id);

  /// Summed self time of every span whose name starts with \p Prefix: a
  /// span's duration minus the part of it its child spans cover.
  double selfSecondsPrefix(const std::string &Prefix) const;

  bool writeChromeTrace(const std::string &Path) const;

private:
  Tracer();

  bool Enabled = false;
  Clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<SpanRec> Spans;
};

/// RAII span around one call into a module ("graph.load", "serve.request").
class Span {
public:
  explicit Span(const std::string &Name, int64_t Request = -1);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  /// Closes early; seconds the span covered.
  double end();

private:
  int64_t Id = -1;
  Clock::time_point Start;
  double Seconds = -1.0;
};

} // namespace perfbench

#endif // GRANII_PERFBENCH_COMMON_H
