//===- CodeGen.h - Conditional dispatch code generation ---------*- C++ -*-===//
///
/// \file
/// GRANII's final offline stage (paper §IV-D, Fig. 7): emit the promoted
/// candidates as conditionally executed code. Candidates viable in only
/// one embedding-size scenario dispatch on a pure `K_in >= K_out` test;
/// the rest compare learned cost-model sums at runtime. The emitted text
/// is compilable C++-styled pseudocode against this library's kernel API —
/// it documents exactly what the runtime's interpreter executes, and is
/// what a standalone deployment would paste into its build.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_RUNTIME_CODEGEN_H
#define GRANII_RUNTIME_CODEGEN_H

#include "assoc/Composition.h"
#include "runtime/BufferPlan.h"

#include <string>
#include <vector>

namespace granii {

/// Emits the kernel-call sequence of one plan, destination-passing against
/// a preplanned workspace struct exactly like the runtime's interpreter: a
/// `<name>_Workspace` declaration sized from \p Buffers, `...Into` kernel
/// calls writing into its slots, and a reuse comment wherever a slot serves
/// its second (or later) value. Setup steps are separated into a
/// `<name>_setup` function that the iteration loop does not re-execute.
std::string generatePlanCode(const CompositionPlan &Plan,
                             const std::string &FunctionName,
                             const BufferPlan &Buffers);

/// Emits the full conditional dispatcher over \p Promoted (paper Fig. 7):
/// one emitted function per candidate, each with a buffer arena planned
/// under the reference \p Binding, then embedding-size conditions first and
/// cost-model comparisons for the rest. Sizes in the emitted comments are
/// for that binding; the structure — slot sharing and call sequence — is
/// binding-independent for a fixed scenario.
std::string generateDispatchCode(const std::string &ModelName,
                                 const std::vector<CompositionPlan> &Promoted,
                                 const DimBinding &Binding);

} // namespace granii

#endif // GRANII_RUNTIME_CODEGEN_H
