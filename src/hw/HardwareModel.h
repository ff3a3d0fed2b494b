//===- HardwareModel.h - Target hardware latency models ---------*- C++ -*-===//
///
/// \file
/// Hardware abstraction for the three evaluation platforms of the paper
/// (CPU, NVIDIA A100, NVIDIA H100). The CPU platform measures real
/// wall-clock time of the kernel library; the GPU platforms are *analytic
/// simulators*: a roofline latency model (compute vs bandwidth bound) with
/// kernel-launch overhead, an irregularity penalty for sparse gathers, and
/// an atomic-contention penalty for edge-binning scatter kernels. The
/// relative regimes follow the paper's observations: dense throughput
/// improves CPU -> A100 -> H100, and A100 suffers most from binned atomic
/// updates on dense graphs (paper §VI-C1).
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_HW_HARDWAREMODEL_H
#define GRANII_HW_HARDWAREMODEL_H

#include "graph/Graph.h"
#include "kernels/Primitive.h"

#include <memory>
#include <string>
#include <vector>

namespace granii {

/// Analytic device parameters for a simulated platform.
struct DeviceParams {
  std::string Name;
  /// SIMD level the throughput figures describe ("scalar", "avx2",
  /// "avx512"). cpu() stamps the kernel library's active dispatch level and
  /// scales DenseGflops/SparseGflops by that level's measured throughput
  /// ratios, so analytic estimates and the measured-cost-model cache key
  /// both track GRANII_ISA. Empty for the GPU presets, whose figures are
  /// whole-device to begin with.
  std::string Isa;
  double DenseGflops = 10.0;    ///< peak effective dense throughput
  double SparseGflops = 2.0;    ///< peak effective sparse throughput
  double BandwidthGBs = 20.0;   ///< memory bandwidth
  double LaunchMicros = 0.0;    ///< fixed per-kernel overhead
  double SaturationMflops = 1.0;///< work needed to reach ~50% of peak
  double AtomicCoef = 0.0;      ///< binning contention ~ coef * avg degree
  double IrregularityCoef = 0.0;///< sparse penalty ~ coef * degree CV
  /// Cores the compute side scales over. The GPU presets keep 1 because
  /// their Gflops figures already describe the whole device; cpu() reads
  /// the thread-pool size so estimates track --threads/GRANII_NUM_THREADS.
  int NumCores = 1;
  /// Fraction of ideal speedup each extra core contributes (Amdahl-style
  /// serial residue + memory contention). Compute time is divided by
  /// 1 + (NumCores-1)*ParallelEfficiency; bandwidth is not scaled — the
  /// memory-bound side is shared across cores.
  double ParallelEfficiency = 0.85;

  /// Parameter presets for the paper's three testbeds.
  static DeviceParams cpu();
  static DeviceParams a100();
  static DeviceParams h100();
};

/// How a platform produces timings.
enum class PlatformKind {
  Measured, ///< run the kernel and report wall-clock time
  Simulated ///< run the kernel for correctness, report analytic time
};

/// A target platform: identity, timing mode, and analytic parameters.
class HardwareModel {
public:
  HardwareModel(PlatformKind Kind, DeviceParams Params)
      : Kind(Kind), Params(std::move(Params)) {}

  const std::string &name() const { return Params.Name; }
  PlatformKind kind() const { return Kind; }
  bool isSimulated() const { return Kind == PlatformKind::Simulated; }
  const DeviceParams &params() const { return Params; }

  /// Analytic latency (seconds) of one primitive execution. \p Stats may be
  /// null for primitives whose cost does not depend on sparse structure.
  double estimateSeconds(const PrimitiveDesc &Desc,
                         const GraphStats *Stats) const;

  /// The three paper platforms, in the order {H100, A100, CPU} used by
  /// Table III. CPU is Measured; the GPUs are Simulated.
  static std::vector<HardwareModel> paperPlatforms();

  /// Look up one of the paper platforms by name ("cpu", "a100", "h100").
  static HardwareModel byName(const std::string &Name);

private:
  PlatformKind Kind;
  DeviceParams Params;
};

} // namespace granii

#endif // GRANII_HW_HARDWAREMODEL_H
