//===- ShardExec.cpp - Sharded aggregation kernels -------------------------===//

#include "shard/ShardExec.h"

#include "kernels/Dispatch.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <cstring>

using namespace granii;
using namespace granii::shard;
using kernels::SimdOps;

namespace {

size_t ensureStaging(std::vector<DenseMatrix> &Buffers,
                     std::vector<int64_t> &Caps, const ShardSet &Set,
                     int64_t Cols, bool Backward) {
  const size_t NumShards = static_cast<size_t>(Set.numShards());
  size_t Grown = 0;
  if (Buffers.size() != NumShards) {
    Buffers.assign(NumShards, DenseMatrix());
    Caps.assign(NumShards, 0);
    ++Grown;
  }
  for (size_t Shard = 0; Shard < NumShards; ++Shard) {
    const ShardBlockView &Blk = Set.blocks()[Shard];
    const int64_t Rows = static_cast<int64_t>(
        Backward ? Blk.GradReferenced.size() : Blk.Referenced.size());
    const int64_t Need = Rows * Cols;
    if (Need > Caps[Shard]) {
      Caps[Shard] = Need;
      ++Grown;
    }
    Buffers[Shard].resize(Rows, Cols);
  }
  return Grown;
}

} // namespace

size_t ShardStaging::ensureForward(const ShardSet &Set, int64_t Cols) {
  return ensureStaging(LocalB, CapB, Set, Cols, /*Backward=*/false);
}

size_t ShardStaging::ensureBackward(const ShardSet &Set, int64_t Cols) {
  return ensureStaging(LocalDY, CapDY, Set, Cols, /*Backward=*/true);
}

void granii::shard::shardedSpmmInto(const ShardSet &Set, ShardStaging &Stage,
                                    std::span<const float> Vals,
                                    const DenseMatrix &B, DenseMatrix &Dst) {
  const int64_t K = B.cols();
  GRANII_CHECK(B.rows() == Set.numNodes() && Dst.rows() == Set.numNodes() &&
                   Dst.cols() == K,
               "sharded spmm shape mismatch");
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == Set.nnz(),
               "sharded spmm value array mismatch");
  Stage.ensureForward(Set, K); // no-op once warmed to this width
  const SimdOps &Ops = kernels::simdOps();
  const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
  const size_t RowBytes = static_cast<size_t>(K) * sizeof(float);

  // One chunk per shard: gather then compute inside the chunk, so with
  // several shards in flight one shard's halo gather (memory-bound)
  // overlaps another's row reductions. Nested kernel calls run inline per
  // the ThreadPool contract — no pool re-entry from inside a chunk.
  ThreadPool::get().parallelForChunks(
      Set.numShards(), [&](int64_t Shard) {
        const ShardBlockView &Blk = Set.blocks()[static_cast<size_t>(Shard)];
        DenseMatrix &LB = Stage.LocalB[static_cast<size_t>(Shard)];
        for (size_t Slot = 0; Slot < Blk.Referenced.size(); ++Slot)
          std::memcpy(LB.rowPtr(static_cast<int64_t>(Slot)),
                      B.rowPtr(Blk.Referenced[Slot]), RowBytes);
        const int64_t Owned = static_cast<int64_t>(Blk.OwnedRows.size());
        for (int64_t R = 0; R < Owned; ++R) {
          // The block's value window of row R is the row's contiguous
          // global segment; offsetting the base pointer lets the dispatch
          // kernel index it with the local offsets. Same trick lands the
          // destination row at its global position.
          const float *RowVals =
              ValsPtr ? ValsPtr + (Blk.ValBase[static_cast<size_t>(R)] -
                                   Blk.RowOffsets[static_cast<size_t>(R)])
                      : nullptr;
          float *DstBase =
              Dst.data() +
              (static_cast<int64_t>(Blk.OwnedRows[static_cast<size_t>(R)]) -
               R) *
                  K;
          Ops.SpmmRowRange(Blk.RowOffsets.data(), Blk.LocalCols.data(),
                           RowVals, nullptr, LB.data(), K, DstBase, K, K, R,
                           R + 1);
        }
      });
}

void granii::shard::shardedSpmmCscTransposedInto(
    const ShardSet &Set, ShardStaging &Stage, std::span<const float> Vals,
    const DenseMatrix &DY, DenseMatrix &Dst) {
  const int64_t K = DY.cols();
  GRANII_CHECK(DY.rows() == Set.numNodes() && Dst.rows() == Set.numNodes() &&
                   Dst.cols() == K,
               "sharded spmm_csc_t shape mismatch");
  GRANII_CHECK(Vals.empty() || static_cast<int64_t>(Vals.size()) == Set.nnz(),
               "sharded spmm_csc_t value array mismatch");
  Stage.ensureBackward(Set, K); // no-op once warmed to this width
  const SimdOps &Ops = kernels::simdOps();
  const float *ValsPtr = Vals.empty() ? nullptr : Vals.data();
  const size_t RowBytes = static_cast<size_t>(K) * sizeof(float);

  ThreadPool::get().parallelForChunks(
      Set.numShards(), [&](int64_t Shard) {
        const ShardBlockView &Blk = Set.blocks()[static_cast<size_t>(Shard)];
        DenseMatrix &LDY = Stage.LocalDY[static_cast<size_t>(Shard)];
        for (size_t Slot = 0; Slot < Blk.GradReferenced.size(); ++Slot)
          std::memcpy(LDY.rowPtr(static_cast<int64_t>(Slot)),
                      DY.rowPtr(Blk.GradReferenced[Slot]), RowBytes);
        const int64_t Owned = static_cast<int64_t>(Blk.OwnedCols.size());
        for (int64_t C = 0; C < Owned; ++C) {
          // Entries of this column arrive in ascending global-row order —
          // the exact entry order of the whole-graph CSC kernel — and gather
          // their values through the same global CSR index map, so the
          // shared row routine replays it bitwise. The destination trick of
          // the forward kernel lands local column C at its global row.
          float *DstBase =
              Dst.data() +
              (static_cast<int64_t>(Blk.OwnedCols[static_cast<size_t>(C)]) -
               C) *
                  K;
          Ops.SpmmRowRange(Blk.ColOffsets.data(), Blk.RowSlots.data(),
                           ValsPtr, Blk.CsrIdx.data(), LDY.data(), K, DstBase,
                           K, K, C, C + 1);
        }
      });
}
