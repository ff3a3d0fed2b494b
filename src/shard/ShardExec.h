//===- ShardExec.h - Sharded aggregation kernels ----------------*- C++ -*-===//
///
/// \file
/// The execution half of the sharding subsystem: a gather → compute
/// pipeline over ShardSet blocks, one ThreadPool chunk per shard, so the
/// memory-bound halo gather of one shard overlaps the compute of another
/// ("Architectural Implications of GNNs": aggregation is memory-bound,
/// combination compute-bound — pipelining shards overlaps the phases).
///
/// Bitwise contract: the forward kernel issues the dispatch table's
/// SpmmRowRange over each owned row with the row's neighbors in original
/// CSR entry order (halo rows are exact float copies), and the backward
/// kernel issues the same routine over each owned column of the shard's
/// slice of the global CSC transpose, entries in the whole-graph kernel's
/// order and weights gathered through the same CSR index map. Outputs are
/// therefore bitwise identical to the whole-graph kernels at any shard
/// count and any thread count within one ISA level.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SHARD_SHARDEXEC_H
#define GRANII_SHARD_SHARDEXEC_H

#include "shard/Shard.h"
#include "tensor/DenseMatrix.h"

#include <span>
#include <vector>

namespace granii {
namespace shard {

/// Persistent per-shard halo staging buffers. Capacities only grow
/// (high-water marks per buffer), so once a workspace has warmed up across
/// a plan's widest step, ensure* report zero growth and the executor's
/// zero-steady-state-allocation guarantee holds under sharding too.
struct ShardStaging {
  std::vector<DenseMatrix> LocalB;  ///< forward halo operand per shard
  std::vector<DenseMatrix> LocalDY; ///< backward gradient halo per shard
  std::vector<int64_t> CapB;        ///< element high-water marks
  std::vector<int64_t> CapDY;

  /// Sizes the forward (backward) staging for \p Cols feature columns.
  /// \returns the number of buffers that had to grow.
  size_t ensureForward(const ShardSet &Set, int64_t Cols);
  size_t ensureBackward(const ShardSet &Set, int64_t Cols);
};

/// Sharded SpMM forward: Dst = A * B where A is the graph \p Set was built
/// from and \p Vals its CSR-ordered edge values (empty = unit weights), the
/// contract of kernels::spmmInto. Output rows land at their original
/// positions in \p Dst.
void shardedSpmmInto(const ShardSet &Set, ShardStaging &Stage,
                     std::span<const float> Vals, const DenseMatrix &B,
                     DenseMatrix &Dst);

/// Sharded backward transposed SpMM: Dst = A^T * DY walked column-wise over
/// the shard blocks' CSC slices, with the edge-value contract above.
void shardedSpmmCscTransposedInto(const ShardSet &Set, ShardStaging &Stage,
                                  std::span<const float> Vals,
                                  const DenseMatrix &DY, DenseMatrix &Dst);

} // namespace shard
} // namespace granii

#endif // GRANII_SHARD_SHARDEXEC_H
