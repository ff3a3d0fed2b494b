//===- MatrixMarket.h - Matrix Market (.mtx) reader/writer ------*- C++ -*-===//
///
/// \file
/// Reader and writer for the NIST Matrix Market coordinate format, the
/// interchange format of the SuiteSparse collection the paper sources its
/// graphs from. Supports `pattern` (unweighted) and `real` (weighted)
/// matrices with `general` or `symmetric` storage.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_GRAPH_MATRIXMARKET_H
#define GRANII_GRAPH_MATRIXMARKET_H

#include "graph/Graph.h"

#include <optional>
#include <string>
#include <string_view>

namespace granii {

/// Parses a Matrix Market file at \p Path into a graph. The file is read
/// into memory in one read and parsed from that buffer, so peak transient
/// memory is the file plus 12 bytes per stored entry (a symmetric file
/// stores two per off-diagonal line). On failure returns std::nullopt and
/// stores a message in \p ErrorMessage if non-null.
std::optional<Graph> readMatrixMarket(const std::string &Path,
                                      std::string *ErrorMessage = nullptr);

/// Parses Matrix Market text held in memory, in one pass over \p Text.
/// Every byte is treated as untrusted: on failure returns std::nullopt and
/// stores "line <n>: <reason>" (1-based) in \p ErrorMessage if non-null.
/// A size line may declare at most one node per byte of \p Text, and at
/// most INT32_MAX (node ids are int32), so every array sized from the node
/// count stays proportional to the input; a larger declaration is rejected
/// at that line, before anything is allocated.
std::optional<Graph> parseMatrixMarket(std::string_view Text,
                                       const std::string &Name,
                                       std::string *ErrorMessage = nullptr);

/// Writes \p G to \p Path in symmetric pattern coordinate format.
/// \returns false (with \p ErrorMessage set) if the file cannot be written.
bool writeMatrixMarket(const Graph &G, const std::string &Path,
                       std::string *ErrorMessage = nullptr);

} // namespace granii

#endif // GRANII_GRAPH_MATRIXMARKET_H
