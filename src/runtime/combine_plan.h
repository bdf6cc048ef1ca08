#ifndef SURFER_RUNTIME_COMBINE_PLAN_H_
#define SURFER_RUNTIME_COMBINE_PLAN_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace surfer {
namespace runtime {

/// Scratch state of the sort-free combine regroup: a stable counting scatter
/// over the partition-local vertex range that replaces the per-partition
/// `stable_sort` of (target, Message) pairs.
///
/// Protocol per combine stage:
///   1. BeginRange(meta.begin, meta.end) — zero counts + frontier (pooled
///      storage, no allocation after warm-up);
///   2. Count(target) once per record, in any order (counts and the frontier
///      bitmap are order-independent, so the concurrent executor counts
///      incrementally as chunks arrive off the wire);
///   3. FinishCounts() — exclusive prefix sum into per-vertex run offsets;
///   4. PlaceIndex(target) once per record *in sequential stream order*: the
///      returned positions reproduce, byte for byte, the permutation a
///      stable_sort by target would produce (equal keys keep input order —
///      the defining property of a stable counting sort);
///   5. read runs via RunBegin/RunEnd and the frontier via Received /
///      NextReceived, then Reset() for the next stage.
///
/// The scatter is O(M + range) against the legacy sort's O(M log M), and the
/// frontier bitmap it builds for free is what lets SilentVertexSkippableApp
/// combine loops visit only vertices that actually received messages.
class CombineScratch {
 public:
  /// Arms the scratch for the dense key range [begin, end). O(range).
  void BeginRange(VertexId begin, VertexId end);

  /// True between BeginRange and Reset.
  bool active() const { return active_; }
  VertexId range_begin() const { return begin_; }
  size_t range_size() const { return static_cast<size_t>(end_ - begin_); }
  uint64_t total() const { return total_; }

  /// Tallies one record and marks its vertex in the frontier bitmap.
  void Count(VertexId target) {
    const size_t i = static_cast<size_t>(target - begin_);
    ++counts_[i];
    frontier_[i >> 6] |= uint64_t{1} << (i & 63);
    ++total_;
  }

  /// Exclusive prefix sum: after this, PlaceIndex hands out final positions
  /// and RunBegin/RunEnd bound each vertex's grouped run.
  void FinishCounts();

  /// Final position of the next record targeting `target`; records placed in
  /// stream order land in stable-sorted order.
  size_t PlaceIndex(VertexId target) {
    return cursor_[static_cast<size_t>(target - begin_)]++;
  }

  /// Grouped-run bounds of local vertex index i (valid after FinishCounts).
  size_t RunBegin(size_t i) const { return offsets_[i]; }
  size_t RunEnd(size_t i) const { return offsets_[i + 1]; }

  /// True when local vertex index i received at least one message.
  bool Received(size_t i) const {
    return (frontier_[i >> 6] >> (i & 63)) & 1;
  }

  /// Index of the first receiving vertex at or after `from`; range_size()
  /// when none remain. Word-skipping, so a sparse frontier is traversed in
  /// O(set bits + words).
  size_t NextReceived(size_t from) const;

  /// Number of distinct vertices that received messages this stage.
  uint64_t ReceivedCount() const;

  /// Disarms the scratch; pooled storage keeps its capacity.
  void Reset() {
    active_ = false;
    total_ = 0;
  }

 private:
  std::vector<uint32_t> counts_;
  std::vector<size_t> offsets_;  ///< range_size() + 1 exclusive prefix sums
  std::vector<size_t> cursor_;   ///< running placement cursors
  std::vector<uint64_t> frontier_;
  VertexId begin_ = 0;
  VertexId end_ = 0;
  uint64_t total_ = 0;
  bool active_ = false;
};

/// Scratch of the virtual-vertex regroup. Virtual IDs are arbitrary 64-bit
/// values (VDD uses the degree), so there is no dense range to count over;
/// instead the distinct IDs are ranked (only K distinct keys are sorted, not
/// all M records) and the same stable counting scatter runs over the ranks.
struct VirtualGroupScratch {
  std::vector<uint64_t> ids;       ///< distinct ids, ascending
  std::vector<uint32_t> counts;    ///< per distinct id
  std::vector<size_t> offsets;     ///< ids.size() + 1 group bounds
  std::vector<size_t> cursor;
  std::unordered_map<uint64_t, uint32_t> rank;

  void Clear();
};

/// Mutex-guarded freelist of CombineScratch objects for engines that run
/// combine tasks on pool threads (the sequential runner's ParallelFor);
/// the partition kernel instead keeps one scratch per partition so it can
/// count incrementally at chunk arrival.
class CombineScratchPool {
 public:
  CombineScratch Acquire();
  void Release(CombineScratch scratch);

 private:
  std::mutex mu_;
  std::vector<CombineScratch> free_;
};

/// Groups a flat record vector (already in sequential stream order) by
/// target: `grouped` ends up byte-identical to sorting `records` with a
/// stable_sort on `.first` and projecting out the messages, and `scratch`
/// holds the per-vertex run offsets plus the received-message frontier.
/// Messages are moved out of `records`.
template <typename Message>
void GroupMessagesByVertex(CombineScratch& scratch, VertexId begin,
                           VertexId end,
                           std::vector<std::pair<VertexId, Message>>& records,
                           std::vector<Message>& grouped) {
  scratch.BeginRange(begin, end);
  for (const auto& record : records) {
    scratch.Count(record.first);
  }
  scratch.FinishCounts();
  grouped.clear();
  grouped.resize(records.size());
  for (auto& [target, message] : records) {
    grouped[scratch.PlaceIndex(target)] = std::move(message);
  }
}

/// Virtual-vertex regroup: ranks the distinct IDs of `records` (ascending),
/// then stable-scatters the messages into groups. `scratch.ids[i]`'s group
/// is `grouped[scratch.offsets[i], scratch.offsets[i + 1])`; group contents
/// match the legacy stable_sort-by-id regroup byte for byte.
template <typename Message>
void GroupVirtualMessages(VirtualGroupScratch& scratch,
                          std::vector<std::pair<uint64_t, Message>>& records,
                          std::vector<Message>& grouped) {
  scratch.Clear();
  for (const auto& record : records) {
    if (scratch.rank.emplace(record.first, 0).second) {
      scratch.ids.push_back(record.first);
    }
  }
  std::sort(scratch.ids.begin(), scratch.ids.end());
  for (uint32_t i = 0; i < scratch.ids.size(); ++i) {
    scratch.rank[scratch.ids[i]] = i;
  }
  scratch.counts.assign(scratch.ids.size(), 0);
  for (const auto& record : records) {
    ++scratch.counts[scratch.rank.find(record.first)->second];
  }
  scratch.offsets.assign(scratch.ids.size() + 1, 0);
  for (size_t i = 0; i < scratch.counts.size(); ++i) {
    scratch.offsets[i + 1] = scratch.offsets[i] + scratch.counts[i];
  }
  scratch.cursor.assign(scratch.offsets.begin(), scratch.offsets.end() - 1);
  grouped.clear();
  grouped.resize(records.size());
  for (auto& [id, message] : records) {
    grouped[scratch.cursor[scratch.rank.find(id)->second]++] =
        std::move(message);
  }
}

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_COMBINE_PLAN_H_
