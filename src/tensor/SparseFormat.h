//===- SparseFormat.h - Sparse storage format tags --------------*- C++ -*-===//
///
/// \file
/// The sparse storage format vocabulary. Forward aggregations run over CSR
/// and the backward pass walks a cached CSC view of the same adjacency
/// (runtime/Executor.h), so CSR is the one selectable format; Auto is a
/// selection directive that resolves to it. ELL, sliced-ELL and hybrid
/// storage were measured against CSR on every evaluation graph and never
/// won (docs/FORMATS.md), so their names are rejected like any unknown one.
/// Optimizer options, selections, the serve request and its session key
/// still carry the tag.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_TENSOR_SPARSEFORMAT_H
#define GRANII_TENSOR_SPARSEFORMAT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace granii {

/// Storage format for a sparse adjacency/attention matrix.
enum class SparseFormat : uint8_t {
  Csr,  ///< compressed sparse row
  Auto, ///< let the selector pick (always Csr)
};

/// Stable lowercase name ("csr", "auto") used by requests, cache keys and
/// reports.
const char *sparseFormatName(SparseFormat F);

/// Parses a format name; nullopt for unknown strings.
std::optional<SparseFormat> parseSparseFormat(const std::string &Name);

/// The formats a forward-pass g-SpMM/g-SDDMM executor can run under.
const std::vector<SparseFormat> &forwardSparseFormats();

} // namespace granii

#endif // GRANII_TENSOR_SPARSEFORMAT_H
