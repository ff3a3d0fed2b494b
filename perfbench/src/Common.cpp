//===- Common.cpp - Shared pieces of the end-to-end benchmark -------------===//

#include "Common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <time.h>

using namespace perfbench;

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = P / 100.0 * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

double perfbench::processCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

double perfbench::peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

std::string perfbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string perfbench::jsonArray(const std::vector<double> &Values) {
  std::string Out = "[";
  for (size_t I = 0; I < Values.size(); ++I)
    Out += (I ? ", " : "") + jsonNumber(Values[I]);
  return Out + "]";
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  std::lock_guard<std::mutex> Lock(M);
  Metrics[Name] = {Value, Unit};
}

void Report::detail(const std::string &Key, const std::string &JsonValue) {
  std::lock_guard<std::mutex> Lock(M);
  Details[Key] = JsonValue;
}

void Report::detail(const std::string &Key, double Value) {
  detail(Key, jsonNumber(Value));
}

void Report::detailText(const std::string &Key, const std::string &Text) {
  detail(Key, jsonString(Text));
}

void Report::op(bool Ok, const std::string &Why) {
  std::lock_guard<std::mutex> Lock(M);
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Problems.size() < 8)
      Problems.push_back(Why);
  }
}

void Report::check(bool Ok, const std::string &Why) {
  op(Ok, Why);
  std::lock_guard<std::mutex> Lock(M);
  ++Checks;
  FailedChecks += Ok ? 0 : 1;
}

double Report::successRatio() const {
  return Checks ? 1.0 - static_cast<double>(FailedChecks) /
                            static_cast<double>(Checks)
                : 0.0;
}

void Report::print() const {
  std::string Det = "{";
  bool First = true;
  for (const auto &[Key, Value] : Details) {
    Det += (First ? "" : ", ") + jsonString(Key) + ": " + Value;
    First = false;
  }
  Det += std::string(First ? "" : ", ") + "\"problems\": [";
  for (size_t I = 0; I < Problems.size(); ++I)
    Det += (I ? ", " : "") + jsonString(Problems[I]);
  Det += "]}";
  std::printf("perfbench-details %s\n", Det.c_str());

  std::string Out = "{\"correct\": ";
  Out += correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  First = true;
  for (const auto &[Name, VU] : Metrics) {
    Out += (First ? "" : ", ") + jsonString(Name) +
           ": {\"value\": " + jsonNumber(VU.first) +
           ", \"unit\": " + jsonString(VU.second) + "}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int64_t> OpenStack;
thread_local int ThreadIndex = -1;
std::atomic<int> NextThreadIndex{0};
} // namespace

Tracer::Tracer() : Epoch(Clock::now()) {}

Tracer &Tracer::get() {
  static Tracer Instance;
  return Instance;
}

int64_t Tracer::open(const std::string &Name, int64_t Request) {
  if (ThreadIndex < 0)
    ThreadIndex = NextThreadIndex++;
  SpanRec Rec;
  Rec.Name = Name;
  Rec.Start = secondsSince(Epoch);
  Rec.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  Rec.Thread = ThreadIndex;
  Rec.Request = Request;
  if (Request < 0 && Rec.Parent >= 0) {
    std::lock_guard<std::mutex> Lock(M);
    Rec.Request = Spans[static_cast<size_t>(Rec.Parent)].Request;
  }
  int64_t Id;
  {
    std::lock_guard<std::mutex> Lock(M);
    Id = static_cast<int64_t>(Spans.size());
    Spans.push_back(std::move(Rec));
  }
  OpenStack.push_back(Id);
  return Id;
}

void Tracer::close(int64_t Id) {
  double Now = secondsSince(Epoch);
  if (!OpenStack.empty() && OpenStack.back() == Id)
    OpenStack.pop_back();
  std::lock_guard<std::mutex> Lock(M);
  Spans[static_cast<size_t>(Id)].End = Now;
}

double Tracer::selfSecondsPrefix(const std::string &Prefix) const {
  std::lock_guard<std::mutex> Lock(M);
  // Children of one span run on its thread one after another, so the part
  // of it they cover is the sum of their durations.
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.End - S.Start;
  double Sum = 0.0;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Name.rfind(Prefix, 0) == 0)
      Sum += Self[I];
  return Sum;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(M);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\": [\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    Out << (I ? ",\n" : "") << "{\"name\": " << jsonString(S.Name)
        << ", \"cat\": " << jsonString(S.Name.substr(0, S.Name.find('.')))
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << S.Thread
        << ", \"ts\": " << jsonNumber(S.Start * 1e6)
        << ", \"dur\": " << jsonNumber((S.End - S.Start) * 1e6)
        << ", \"args\": {\"id\": " << I << ", \"parent\": " << S.Parent
        << ", \"request\": " << S.Request << "}}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

Span::Span(const std::string &Name, int64_t Request) : Start(Clock::now()) {
  if (Tracer::get().enabled())
    Id = Tracer::get().open(Name, Request);
}

double Span::end() {
  if (Seconds < 0.0) {
    Seconds = secondsSince(Start);
    if (Id >= 0)
      Tracer::get().close(Id);
  }
  return Seconds;
}

Span::~Span() { end(); }
