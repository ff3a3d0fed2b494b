//===- Inputs.h - Seeded workload inputs ------------------------*- C++ -*-===//
///
/// \file
/// The inputs of the workloads, generated from the workload seed with the
/// library's public graph generators and handed to the program only as
/// Matrix Market files. The generator runs in its own process so its memory
/// never shows in the measured process's peak resident set.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_PERFBENCH_INPUTS_H
#define GRANII_PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>

namespace perfbench {

/// Matrix Market files of the whole-graph workloads.
std::string trainGraphPath(const std::string &Dir);
std::string inferGraphPath(const std::string &Dir);

/// Writes every input of \p Workload under \p Dir.
void generateInputs(const std::string &Workload, uint64_t Seed, bool Tiny,
                    const std::string &Dir);

} // namespace perfbench

#endif // GRANII_PERFBENCH_INPUTS_H
