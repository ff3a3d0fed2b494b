//===- BenchDiff.cpp - Benchmark regression comparison ----------------------===//

#include "BenchDiff.h"

#include "support/Json.h"
#include "support/Str.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

using namespace granii;
using namespace granii::benchdiff;

namespace {

/// One benchmark entry as loaded from a granii-bench-v1 report.
struct DiffRecord {
  std::string Id;
  double MedianSeconds = 0.0;
  double P10Seconds = 0.0;
  double P90Seconds = 0.0;
  /// SIMD level the record was measured at (empty in pre-SIMD reports).
  std::string Isa;
  /// Baseline-only overrides.
  std::optional<double> Threshold;
  bool Gate = true;

  /// Relative measurement spread, the noise floor for the gate.
  double spread() const {
    if (MedianSeconds <= 0.0)
      return 0.0;
    return (P90Seconds - P10Seconds) / MedianSeconds;
  }
};

/// A parsed report: records in file order plus an id index.
struct DiffReport {
  std::vector<DiffRecord> Records;
  std::map<std::string, size_t> Index;
  /// SIMD levels the producing host supports ("isa_levels" header). Empty
  /// for reports predating the field, in which case no ISA-based skipping
  /// happens.
  std::vector<std::string> IsaLevels;

  bool supportsIsa(const std::string &Isa) const {
    return std::find(IsaLevels.begin(), IsaLevels.end(), Isa) !=
           IsaLevels.end();
  }

  void add(DiffRecord Record) {
    auto It = Index.find(Record.Id);
    if (It != Index.end()) {
      Records[It->second] = std::move(Record);
      return;
    }
    Index.emplace(Record.Id, Records.size());
    Records.push_back(std::move(Record));
  }

  const DiffRecord *find(const std::string &Id) const {
    auto It = Index.find(Id);
    return It == Index.end() ? nullptr : &Records[It->second];
  }
};

bool loadReportFile(const std::string &Path, DiffReport &Report,
                    std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err += "error: cannot open '" + Path + "'\n";
    return false;
  }
  std::ostringstream Contents;
  Contents << In.rdbuf();
  std::string ParseError;
  std::optional<JsonValue> Doc = parseJson(Contents.str(), &ParseError);
  if (!Doc) {
    Err += "error: " + Path + ": " + ParseError + "\n";
    return false;
  }
  std::string Schema = Doc->stringOr("schema", "");
  if (Schema != "granii-bench-v1") {
    Err += "error: " + Path + ": unsupported schema '" + Schema +
           "' (expected granii-bench-v1)\n";
    return false;
  }
  if (const JsonValue *IsaLevels = Doc->find("isa_levels"))
    if (IsaLevels->kind() == JsonValue::Kind::Array)
      for (const JsonValue &Level : IsaLevels->array())
        if (Level.kind() == JsonValue::Kind::String)
          Report.IsaLevels.push_back(Level.str());
  const JsonValue *Benchmarks = Doc->find("benchmarks");
  if (!Benchmarks || Benchmarks->kind() != JsonValue::Kind::Array) {
    Err += "error: " + Path + ": missing \"benchmarks\" array\n";
    return false;
  }
  for (const JsonValue &Entry : Benchmarks->array()) {
    DiffRecord Record;
    Record.Id = Entry.stringOr("id", "");
    if (Record.Id.empty()) {
      Err += "error: " + Path + ": benchmark entry without an \"id\"\n";
      return false;
    }
    Record.MedianSeconds = Entry.numberOr("median_seconds", 0.0);
    Record.P10Seconds = Entry.numberOr("p10_seconds", 0.0);
    Record.P90Seconds = Entry.numberOr("p90_seconds", 0.0);
    Record.Isa = Entry.stringOr("isa", "");
    if (const JsonValue *Threshold = Entry.find("threshold"))
      if (Threshold->kind() == JsonValue::Kind::Number)
        Record.Threshold = Threshold->number();
    Record.Gate = Entry.boolOr("gate", true);
    Report.add(std::move(Record));
  }
  return true;
}

std::string formatPercent(double Fraction) {
  std::string Sign = Fraction >= 0.0 ? "+" : "";
  return Sign + formatDouble(Fraction * 100.0, 1) + "%";
}

} // namespace

int granii::benchdiff::runBenchDiff(const std::vector<std::string> &Args,
                                    std::string &Out, std::string &Err) {
  double GlobalThreshold = 0.10;
  std::vector<std::string> Paths;
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg.rfind("--threshold=", 0) == 0) {
      if (!parseDouble(Arg.substr(12), GlobalThreshold)) {
        Err += "error: malformed --threshold value '" + Arg.substr(12) + "'\n";
        return 2;
      }
    } else if (Arg == "--threshold" && I + 1 < Args.size()) {
      if (!parseDouble(Args[++I], GlobalThreshold)) {
        Err += "error: malformed --threshold value '" + Args[I] + "'\n";
        return 2;
      }
    } else if (Arg.rfind("--", 0) == 0) {
      Err += "error: unknown option '" + Arg + "'\n";
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.size() < 2) {
    Err += "usage: granii-bench-diff <baseline.json> <head.json> "
           "[head2.json ...] [--threshold FRAC]\n";
    return 2;
  }
  if (GlobalThreshold <= 0.0) {
    Err += "error: --threshold expects a positive fraction (e.g. 0.10)\n";
    return 2;
  }

  DiffReport Baseline, Head;
  if (!loadReportFile(Paths[0], Baseline, Err))
    return 2;
  for (size_t I = 1; I < Paths.size(); ++I)
    if (!loadReportFile(Paths[I], Head, Err))
      return 2;

  std::vector<std::string> Header = {"benchmark", "base",      "head",
                                     "delta",     "threshold", "status"};
  std::vector<std::vector<std::string>> Table;
  size_t Regressions = 0, Improvements = 0, Compared = 0;

  /// Baseline records measured at a SIMD level the head host cannot
  /// execute: reported as skipped, never counted as missing or regressed.
  auto IsaUnavailable = [&](const DiffRecord &Base) {
    return !Base.Isa.empty() && !Head.IsaLevels.empty() &&
           !Head.supportsIsa(Base.Isa);
  };

  for (const DiffRecord &Base : Baseline.Records) {
    const DiffRecord *New = Head.find(Base.Id);
    if (!New) {
      if (IsaUnavailable(Base))
        Table.push_back({Base.Id, formatDouble(Base.MedianSeconds * 1e3, 4),
                         "-", "-", "-",
                         "skipped (isa " + Base.Isa + " unavailable)"});
      continue;
    }
    ++Compared;
    std::string Status = "ok";
    double Delta = 0.0;
    double Effective =
        std::max(Base.Threshold.value_or(GlobalThreshold),
                 std::max(Base.spread(), New->spread()));
    if (Base.MedianSeconds <= 0.0) {
      Status = "no-base";
    } else {
      Delta = (New->MedianSeconds - Base.MedianSeconds) / Base.MedianSeconds;
      if (Delta > Effective) {
        if (Base.Gate) {
          Status = "REGRESSED";
          ++Regressions;
        } else {
          Status = "regressed (ungated)";
        }
      } else if (Delta < -Effective) {
        Status = "improved";
        ++Improvements;
      }
    }
    Table.push_back({Base.Id, formatDouble(Base.MedianSeconds * 1e3, 4),
                     formatDouble(New->MedianSeconds * 1e3, 4),
                     formatPercent(Delta), formatPercent(Effective),
                     Status});
  }

  Out += "benchmark medians in ms; threshold is noise-aware: "
         "max(threshold, p10-p90 spread)\n";
  Out += renderTable(Header, Table);
  Out += "compared " + std::to_string(Compared) + " benchmark(s): " +
         std::to_string(Regressions) + " regression(s), " +
         std::to_string(Improvements) + " improvement(s)\n";

  // Mismatched sets are reported (a renamed or dropped benchmark should be
  // visible in review) but only regressions fail the gate. Baseline
  // records whose SIMD level the head host lacks already appear as skipped
  // rows and are expected to be absent.
  for (const DiffRecord &Base : Baseline.Records)
    if (!Head.find(Base.Id) && !IsaUnavailable(Base))
      Err += "warning: benchmark '" + Base.Id +
             "' in baseline but missing from head\n";
  for (const DiffRecord &New : Head.Records)
    if (!Baseline.find(New.Id))
      Err += "warning: benchmark '" + New.Id +
             "' in head but missing from baseline\n";

  if (Regressions > 0) {
    Err += "error: " + std::to_string(Regressions) +
           " benchmark(s) regressed beyond the threshold\n";
    return 1;
  }
  return 0;
}
