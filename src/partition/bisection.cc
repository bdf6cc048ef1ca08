#include "partition/bisection.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace surfer {

namespace {

/// Below this many vertices the sharded paths fall back to sequential: the
/// submit/wait overhead dwarfs the work. Purely a performance gate — the
/// parallel paths produce identical output at any size.
constexpr VertexId kIntraParallelMinVertices = 4096;

/// Bounded FM: a pass ends once max(kFmStallMinMoves, n / kFmStallDivisor)
/// applied moves have gone by since its best prefix. The Metis-style
/// clamp(n / 100, 15, 100) gave up several percent of cut on the benchmark
/// graphs; n / 4 stays within ~1.5% of the unbounded pass's cut for most of
/// the speed-up (DESIGN.md Section 10). The floor keeps tiny graphs on full
/// passes.
constexpr size_t kFmStallMinMoves = 50;
constexpr VertexId kFmStallDivisor = 4;

/// FM passes each GGGP trial gets before the best trial is picked; only the
/// winner goes on to the full `refine_passes` (DESIGN.md Section 10).
constexpr uint32_t kTrialRefinePasses = 2;

int64_t CutWeightRange(const WeightedGraph& graph,
                       const std::vector<uint8_t>& side, VertexId begin,
                       VertexId end) {
  int64_t cut = 0;
  for (VertexId u = begin; u < end; ++u) {
    const auto nbrs = graph.Neighbors(u);
    const auto weights = graph.EdgeWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (side[u] != side[nbrs[i]]) {
        cut += weights[i];
      }
    }
  }
  return cut;
}

}  // namespace

int64_t ComputeCutWeight(const WeightedGraph& graph,
                         const std::vector<uint8_t>& side, ThreadPool* pool) {
  const VertexId n = graph.num_vertices();
  if (pool == nullptr || n < kIntraParallelMinVertices) {
    return CutWeightRange(graph, side, 0, n) / 2;
  }
  // Shard into fixed chunks; each writes its own slot, and the slots sum in
  // chunk order. Integer addition is exact under regrouping, so the total
  // matches the sequential scan bit-for-bit.
  const size_t num_chunks = pool->num_threads() * 4;
  const size_t chunk = (static_cast<size_t>(n) + num_chunks - 1) / num_chunks;
  std::vector<int64_t> partial(num_chunks, 0);
  TaskGroup group(pool);
  size_t slot = 0;
  for (size_t begin = 0; begin < n; begin += chunk, ++slot) {
    const VertexId range_begin = static_cast<VertexId>(begin);
    const VertexId range_end =
        static_cast<VertexId>(std::min<size_t>(n, begin + chunk));
    int64_t* out = &partial[slot];
    group.Submit([&graph, &side, range_begin, range_end, out] {
      *out = CutWeightRange(graph, side, range_begin, range_end);
    });
  }
  group.Wait();
  int64_t cut = 0;
  for (int64_t p : partial) {
    cut += p;
  }
  return cut / 2;  // every undirected edge counted from both endpoints
}

namespace internal {

WeightedGraph CoarsenOnce(const WeightedGraph& graph, uint64_t seed,
                          std::vector<VertexId>* fine_to_coarse,
                          ThreadPool* pool) {
  const VertexId n = graph.num_vertices();
  std::vector<VertexId> match(n, kInvalidVertex);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  // Heavy-edge matching: each unmatched vertex grabs its heaviest unmatched
  // neighbor.
  for (VertexId u : order) {
    if (match[u] != kInvalidVertex) {
      continue;
    }
    const auto nbrs = graph.Neighbors(u);
    const auto weights = graph.EdgeWeights(u);
    VertexId best = kInvalidVertex;
    int64_t best_weight = -1;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v != u && match[v] == kInvalidVertex && weights[i] > best_weight) {
        best = v;
        best_weight = weights[i];
      }
    }
    if (best != kInvalidVertex) {
      match[u] = best;
      match[best] = u;
    } else {
      match[u] = u;  // stays single
    }
  }

  // Two-hop matching (LaSalle et al., IA3 2015): a vertex left single has
  // only matched neighbors, so heavy-edge matching can never pair it. Pair
  // singles that share a neighbor instead (leaves of one hub, twins,
  // relatives): each single claims the first neighbor whose `waiting` slot
  // holds a live single, or else parks itself in every neighbor's slot for a
  // later single to find. Only singles' adjacencies are scanned.
  std::vector<VertexId> waiting(n, kInvalidVertex);
  for (VertexId u : order) {
    if (match[u] != u) {
      continue;
    }
    const auto nbrs = graph.Neighbors(u);
    VertexId mate = kInvalidVertex;
    for (VertexId h : nbrs) {
      const VertexId w = waiting[h];
      if (w != kInvalidVertex && match[w] == w) {
        mate = w;
        break;
      }
    }
    if (mate != kInvalidVertex) {
      match[u] = mate;
      match[mate] = u;
      continue;
    }
    for (VertexId h : nbrs) {
      waiting[h] = u;
    }
  }

  // Isolated vertices, still single, share no neighbor either: pair them
  // with each other, which costs no cut and keeps them from stalling the
  // coarsening.
  VertexId isolated = kInvalidVertex;
  for (VertexId u : order) {
    if (graph.offsets[u] != graph.offsets[u + 1]) {
      continue;
    }
    if (isolated == kInvalidVertex) {
      isolated = u;
    } else {
      match[u] = isolated;
      match[isolated] = u;
      isolated = kInvalidVertex;
    }
  }

  // Assign coarse IDs (pair representative = smaller fine ID) and bucket the
  // fine vertices by coarse vertex in one flat CSR: members[member_begin[c],
  // member_begin[c + 1]) in ascending fine-ID order. A vertex still
  // unassigned when the scan reaches it is smaller than its mate (a smaller
  // mate would have assigned it already), so appending v then its mate is
  // exactly the ascending order a counting sort by coarse ID would give.
  fine_to_coarse->assign(n, kInvalidVertex);
  std::vector<VertexId> members;
  members.reserve(n);
  std::vector<size_t> member_begin;
  member_begin.reserve(static_cast<size_t>(n) + 1);
  VertexId next_coarse = 0;
  for (VertexId v = 0; v < n; ++v) {
    if ((*fine_to_coarse)[v] != kInvalidVertex) {
      continue;
    }
    member_begin.push_back(members.size());
    (*fine_to_coarse)[v] = next_coarse;
    members.push_back(v);
    const VertexId mate = match[v];
    if (mate != v && mate != kInvalidVertex) {
      (*fine_to_coarse)[mate] = next_coarse;
      members.push_back(mate);
    }
    ++next_coarse;
  }
  member_begin.push_back(members.size());

  // Build the coarse graph by accumulating edges per coarse vertex.
  WeightedGraph coarse;
  coarse.vertex_weights.assign(next_coarse, 0);
  for (VertexId v = 0; v < n; ++v) {
    coarse.vertex_weights[(*fine_to_coarse)[v]] += graph.vertex_weights[v];
  }
  coarse.offsets.assign(next_coarse + 1, 0);
  // Merges one coarse vertex's adjacency: accumulate edge weights from all
  // members into `accumulator` (dense, 64-bit, reset after use), emit
  // neighbors in first-touch order (members in ascending fine ID, each in
  // its CSR order). Sorting the lists by coarse ID cost three times the rest
  // of the coarsening and nothing reads them in order. Each coarse vertex is
  // independent of the others, which is what the sharded build below
  // exploits.
  auto merge_adjacency = [&graph, &members, &member_begin, fine_to_coarse](
                             VertexId c, std::vector<int64_t>& accumulator,
                             std::vector<VertexId>& touched,
                             std::vector<VertexId>& out_neighbors,
                             std::vector<int32_t>& out_weights) {
    touched.clear();
    for (size_t m = member_begin[c]; m < member_begin[c + 1]; ++m) {
      const VertexId v = members[m];
      const auto nbrs = graph.Neighbors(v);
      const auto weights = graph.EdgeWeights(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId cn = (*fine_to_coarse)[nbrs[i]];
        if (cn == c) {
          continue;  // intra-pair edge collapses
        }
        if (accumulator[cn] == 0) {
          touched.push_back(cn);
        }
        accumulator[cn] += weights[i];
      }
    }
    for (VertexId cn : touched) {
      SURFER_CHECK(accumulator[cn] <= kMaxEdgeWeight)
          << "merged edge weight " << accumulator[cn]
          << " exceeds the 32-bit edge-weight bound " << kMaxEdgeWeight;
      out_neighbors.push_back(cn);
      out_weights.push_back(static_cast<int32_t>(accumulator[cn]));
      accumulator[cn] = 0;
    }
  };

  if (pool == nullptr || n < kIntraParallelMinVertices) {
    // Merging never adds half-edges, so the fine count bounds the coarse
    // one: one allocation instead of push_back doubling and its copies.
    coarse.neighbors.reserve(graph.num_half_edges());
    coarse.edge_weights.reserve(graph.num_half_edges());
    std::vector<int64_t> accumulator(next_coarse, 0);
    std::vector<VertexId> touched;
    for (VertexId c = 0; c < next_coarse; ++c) {
      merge_adjacency(c, accumulator, touched, coarse.neighbors,
                      coarse.edge_weights);
      coarse.offsets[c + 1] = coarse.neighbors.size();
    }
    return coarse;
  }

  // Sharded build: each chunk of coarse vertices merges into its own buffer
  // (with its own dense accumulator), and buffers concatenate in chunk order
  // afterwards. Chunk boundaries only group the same per-vertex lists, so
  // the stitched CSR is identical to the sequential build.
  struct ChunkBuffer {
    std::vector<VertexId> neighbors;
    std::vector<int32_t> weights;
    std::vector<EdgeIndex> degrees;  // per coarse vertex in the chunk
  };
  const size_t num_chunks =
      std::min<size_t>(pool->num_threads() * 4, next_coarse);
  const VertexId chunk =
      static_cast<VertexId>((next_coarse + num_chunks - 1) / num_chunks);
  std::vector<ChunkBuffer> buffers(num_chunks);
  TaskGroup group(pool);
  for (size_t ci = 0; ci < num_chunks; ++ci) {
    group.Submit([&, ci] {
      const VertexId begin = static_cast<VertexId>(ci) * chunk;
      const VertexId end = std::min<VertexId>(next_coarse, begin + chunk);
      ChunkBuffer& buffer = buffers[ci];
      std::vector<int64_t> accumulator(next_coarse, 0);
      std::vector<VertexId> touched;
      for (VertexId c = begin; c < end; ++c) {
        const size_t before = buffer.neighbors.size();
        merge_adjacency(c, accumulator, touched, buffer.neighbors,
                        buffer.weights);
        buffer.degrees.push_back(buffer.neighbors.size() - before);
      }
    });
  }
  group.Wait();
  size_t total = 0;
  for (const ChunkBuffer& buffer : buffers) {
    total += buffer.neighbors.size();
  }
  coarse.neighbors.reserve(total);
  coarse.edge_weights.reserve(total);
  VertexId c = 0;
  for (const ChunkBuffer& buffer : buffers) {
    coarse.neighbors.insert(coarse.neighbors.end(), buffer.neighbors.begin(),
                            buffer.neighbors.end());
    coarse.edge_weights.insert(coarse.edge_weights.end(),
                               buffer.weights.begin(), buffer.weights.end());
    for (EdgeIndex degree : buffer.degrees) {
      coarse.offsets[c + 1] = coarse.offsets[c] + degree;
      ++c;
    }
  }
  return coarse;
}

namespace {

/// Weight of edges from v into each side, given the current assignment.
struct SideWeights {
  int64_t same = 0;
  int64_t other = 0;
};

SideWeights ComputeSideWeights(const WeightedGraph& graph, VertexId v,
                               const std::vector<uint8_t>& side) {
  SideWeights sw;
  const auto nbrs = graph.Neighbors(v);
  const auto weights = graph.EdgeWeights(v);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (side[nbrs[i]] == side[v]) {
      sw.same += weights[i];
    } else {
      sw.other += weights[i];
    }
  }
  return sw;
}

/// The move queue of FM and the frontier of GGGP: a binary max-heap of
/// vertices ordered by (gain, vertex ID), with each vertex's heap slot
/// tracked, so a gain update sifts the vertex's one entry in place instead
/// of pushing a fresh entry and leaving the old one to be skipped as stale.
/// (gain, ID) pairs are distinct, so the pop sequence depends only on the
/// gains, never on the heap's layout.
class GainHeap {
 public:
  explicit GainHeap(const std::vector<int64_t>& gain)
      : gain_(gain), slot_(gain.size(), kAbsent) {
    vertices_.reserve(gain.size());
  }

  bool empty() const { return vertices_.empty(); }

  /// Holds every vertex, ordered by the current gains, after an O(n) build.
  void Fill() {
    const VertexId n = static_cast<VertexId>(gain_.size());
    vertices_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      vertices_[v] = v;
      slot_[v] = v;
    }
    for (VertexId i = n / 2; i-- > 0;) {
      SiftDown(i);
    }
  }

  VertexId PopMax() {
    const VertexId top = vertices_.front();
    slot_[top] = kAbsent;
    const VertexId last = vertices_.back();
    vertices_.pop_back();
    if (!vertices_.empty()) {
      Place(last, 0);
      SiftDown(0);
    }
    return top;
  }

  /// Restores the order after gain_[v] changed, inserting v if a pop took it
  /// out.
  void Update(VertexId v) {
    if (slot_[v] == kAbsent) {
      vertices_.push_back(v);
      slot_[v] = static_cast<VertexId>(vertices_.size() - 1);
    }
    SiftUp(slot_[v]);
    SiftDown(slot_[v]);
  }

  void Clear() {
    for (VertexId v : vertices_) {
      slot_[v] = kAbsent;
    }
    vertices_.clear();
  }

 private:
  static constexpr VertexId kAbsent = kInvalidVertex;

  bool Above(VertexId a, VertexId b) const {
    return gain_[a] > gain_[b] || (gain_[a] == gain_[b] && a > b);
  }
  void Place(VertexId v, VertexId i) {
    vertices_[i] = v;
    slot_[v] = i;
  }
  void SiftUp(VertexId i) {
    const VertexId v = vertices_[i];
    while (i > 0) {
      const VertexId parent = (i - 1) / 2;
      if (!Above(v, vertices_[parent])) {
        break;
      }
      Place(vertices_[parent], i);
      i = parent;
    }
    Place(v, i);
  }
  void SiftDown(VertexId i) {
    const VertexId size = static_cast<VertexId>(vertices_.size());
    const VertexId v = vertices_[i];
    while (true) {
      VertexId child = 2 * i + 1;
      if (child >= size) {
        break;
      }
      if (child + 1 < size && Above(vertices_[child + 1], vertices_[child])) {
        ++child;
      }
      if (!Above(vertices_[child], v)) {
        break;
      }
      Place(vertices_[child], i);
      i = child;
    }
    Place(v, i);
  }

  const std::vector<int64_t>& gain_;
  std::vector<VertexId> vertices_;
  std::vector<VertexId> slot_;
};

void FillResult(const WeightedGraph& graph, BisectionResult* result,
                ThreadPool* pool) {
  result->cut_weight = ComputeCutWeight(graph, result->side, pool);
  result->side_weight[0] = 0;
  result->side_weight[1] = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    result->side_weight[result->side[v]] += graph.vertex_weights[v];
  }
}

}  // namespace

BisectionResult InitialBisection(const WeightedGraph& graph,
                                 const BisectionOptions& options) {
  const VertexId n = graph.num_vertices();
  BisectionResult best;
  best.cut_weight = std::numeric_limits<int64_t>::max();
  if (n == 0) {
    best.cut_weight = 0;
    return best;
  }
  const int64_t total = graph.TotalVertexWeight();
  const int64_t target = total / 2;
  Rng rng(options.seed);

  // Every trial gets a short FM polish, enough to rank the trials; only the
  // winner is refined for the rest of `refine_passes`.
  BisectionOptions trial_options = options;
  trial_options.refine_passes =
      std::min(kTrialRefinePasses, options.refine_passes);
  bool best_converged = true;
  const uint32_t trials = std::max<uint32_t>(1, options.gggp_trials);
  for (uint32_t trial = 0; trial < trials; ++trial) {
    std::vector<uint8_t> side(n, 1);  // grow region "0" out of side 1
    const VertexId seed_vertex = static_cast<VertexId>(rng.Uniform(n));
    // gain[v] = (edges into region) - (edges out of region), kept for the
    // frontier: the vertices outside the region with a neighbor inside.
    std::vector<int64_t> gain(n, std::numeric_limits<int64_t>::min());
    GainHeap frontier(gain);
    int64_t region_weight = 0;
    VertexId first_unassigned = 0;

    auto add_to_region = [&](VertexId v) {
      side[v] = 0;
      region_weight += graph.vertex_weights[v];
      const auto nbrs = graph.Neighbors(v);
      const auto weights = graph.EdgeWeights(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        if (side[u] != 0) {
          // u's pull toward the region grows by 2w (w moves from "out" to
          // "in" as v joined the region).
          if (gain[u] == std::numeric_limits<int64_t>::min()) {
            const SideWeights sw = ComputeSideWeights(graph, u, side);
            // u on side 1: edges to region = sw.other, out = sw.same.
            gain[u] = sw.other - sw.same;
          } else {
            gain[u] += 2 * int64_t{weights[i]};
          }
          frontier.Update(u);
        }
      }
    };

    add_to_region(seed_vertex);
    while (region_weight < target) {
      VertexId pick = frontier.empty() ? kInvalidVertex : frontier.PopMax();
      if (pick == kInvalidVertex) {
        // Disconnected remainder: jump to the first vertex still on side 1.
        // Vertices never leave the region, so the cursor is monotone across
        // picks and the whole trial's rescans cost O(n) total — a fresh scan
        // per pick degraded edgeless graphs to O(n^2).
        while (first_unassigned < n && side[first_unassigned] == 0) {
          ++first_unassigned;
        }
        if (first_unassigned == n) {
          break;
        }
        pick = first_unassigned;
      }
      add_to_region(pick);
    }

    BisectionResult candidate;
    candidate.side = std::move(side);
    FillResult(graph, &candidate, options.pool);
    // FmRefine stops early on a pass that finds no improvement, so fewer
    // improving passes than allowed means it has converged.
    const bool converged = FmRefine(graph, trial_options, &candidate) <
                           trial_options.refine_passes;
    if (candidate.cut_weight < best.cut_weight ||
        (candidate.cut_weight == best.cut_weight &&
         candidate.Imbalance() < best.Imbalance())) {
      best = std::move(candidate);
      best_converged = converged;
    }
  }
  if (!best_converged) {
    // Each FmRefine pass starts from the sides alone, so a second call
    // continues the winner's refinement exactly where its trial stopped.
    BisectionOptions winner_options = options;
    winner_options.refine_passes =
        options.refine_passes - trial_options.refine_passes;
    FmRefine(graph, winner_options, &best);
  }
  return best;
}

uint32_t FmRefine(const WeightedGraph& graph, const BisectionOptions& options,
                  BisectionResult* result) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return 0;
  }
  const int64_t total = graph.TotalVertexWeight();
  const int64_t max_side = static_cast<int64_t>(
      (1.0 + options.balance_epsilon) * static_cast<double>(total) / 2.0);

  std::vector<uint8_t>& side = result->side;
  uint32_t improving_passes = 0;
  const size_t stall_limit =
      std::max<size_t>(kFmStallMinMoves, n / kFmStallDivisor);
  // Prefer feasible (balanced) states; among feasible states, the lowest
  // cut; among infeasible ones, the least imbalanced. This lets a pass
  // repair an infeasible starting point even at the cost of a worse cut.
  auto score = [max_side](int64_t cut, int64_t w0, int64_t w1) {
    const int64_t heavier = std::max(w0, w1);
    const int64_t overweight = std::max<int64_t>(0, heavier - max_side);
    // Lexicographic: feasibility first, then imbalance, then cut.
    return std::make_tuple(overweight > 0 ? 1 : 0, overweight, cut);
  };

  // Pass state, allocated once and reset by every pass.
  std::vector<int64_t> gain(n);
  std::vector<uint8_t> moved(n, 0);
  GainHeap heap(gain);
  std::vector<VertexId> move_sequence;
  move_sequence.reserve(n);

  for (uint32_t pass = 0; pass < options.refine_passes; ++pass) {
    // gain[v] = cut reduction from moving v to the other side. Computing the
    // initial gains is the pass's only O(E) scan, and each vertex's gain is
    // independent, so it shards over the pool; the heap is then built over
    // all of them in one shot.
    ParallelForChunked(n < kIntraParallelMinVertices ? nullptr : options.pool,
                       n, /*grain=*/1024, [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           const VertexId v = static_cast<VertexId>(i);
                           const SideWeights sw =
                               ComputeSideWeights(graph, v, side);
                           gain[v] = sw.other - sw.same;
                         }
                       });
    heap.Fill();

    int64_t side_weight[2] = {result->side_weight[0], result->side_weight[1]};
    int64_t current_cut = result->cut_weight;
    auto best_score = score(current_cut, side_weight[0], side_weight[1]);
    // The cut and side weights of the best prefix, kept as it is recorded:
    // the gains are exact, so these equal a rescan of the rolled-back sides.
    int64_t best_cut = current_cut;
    int64_t best_side_weight[2] = {side_weight[0], side_weight[1]};
    size_t moves_to_best = 0;

    while (!heap.empty()) {
      const VertexId v = heap.PopMax();
      const int64_t g = gain[v];
      const uint8_t from = side[v];
      const uint8_t to = 1 - from;
      // Classic FM balance rule: a move may overshoot the budget by at most
      // the moved vertex itself (side already over budget rejects), unless
      // it drains the heavier side. A rejected vertex stays out of the heap
      // until a neighbor's move changes its gain.
      if (side_weight[to] > max_side && side_weight[to] >= side_weight[from]) {
        continue;
      }
      moved[v] = 1;
      side[v] = to;
      side_weight[from] -= graph.vertex_weights[v];
      side_weight[to] += graph.vertex_weights[v];
      current_cut -= g;
      move_sequence.push_back(v);
      const auto s = score(current_cut, side_weight[0], side_weight[1]);
      if (s < best_score) {
        best_score = s;
        best_cut = current_cut;
        best_side_weight[0] = side_weight[0];
        best_side_weight[1] = side_weight[1];
        moves_to_best = move_sequence.size();
      }
      // Update neighbor gains.
      const auto nbrs = graph.Neighbors(v);
      const auto weights = graph.EdgeWeights(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        if (moved[u]) {
          continue;
        }
        // v joined u's side: that edge's contribution flips by 2w either way.
        if (side[u] == to) {
          gain[u] -= 2 * int64_t{weights[i]};
        } else {
          gain[u] += 2 * int64_t{weights[i]};
        }
        heap.Update(u);
      }
      // Bound pass length: after n moves everything flipped once, and a
      // pass stall_limit moves past its best prefix rarely climbs back.
      if (move_sequence.size() >= n ||
          move_sequence.size() - moves_to_best >= stall_limit) {
        break;
      }
    }

    // Roll back to the best prefix, and reset the pass state for the next.
    for (size_t i = move_sequence.size(); i-- > moves_to_best;) {
      const VertexId v = move_sequence[i];
      side[v] = 1 - side[v];
    }
    for (VertexId v : move_sequence) {
      moved[v] = 0;
    }
    move_sequence.clear();
    heap.Clear();
    result->cut_weight = best_cut;
    result->side_weight[0] = best_side_weight[0];
    result->side_weight[1] = best_side_weight[1];
    if (moves_to_best == 0) {
      break;  // pass found no improvement
    }
    ++improving_passes;
  }
  return improving_passes;
}

}  // namespace internal

namespace {

BisectionResult BisectRecursive(const WeightedGraph& graph,
                                const BisectionOptions& options,
                                uint32_t depth) {
  const VertexId n = graph.num_vertices();
  if (n <= options.coarsen_target || depth > 64) {
    return internal::InitialBisection(graph, options);
  }
  std::vector<VertexId> fine_to_coarse;
  const WeightedGraph coarse = internal::CoarsenOnce(
      graph, MixSeed(options.seed, depth), &fine_to_coarse, options.pool);
  if (coarse.num_vertices() >=
      static_cast<VertexId>(0.95 * static_cast<double>(n))) {
    // Matching stalled (e.g. star graphs); stop coarsening here.
    return internal::InitialBisection(graph, options);
  }
  const BisectionResult coarse_result =
      BisectRecursive(coarse, options, depth + 1);

  // Project to the finer graph and refine.
  BisectionResult result;
  result.side.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    result.side[v] = coarse_result.side[fine_to_coarse[v]];
  }
  result.cut_weight = ComputeCutWeight(graph, result.side, options.pool);
  result.side_weight[0] = 0;
  result.side_weight[1] = 0;
  for (VertexId v = 0; v < n; ++v) {
    result.side_weight[result.side[v]] += graph.vertex_weights[v];
  }
  internal::FmRefine(graph, options, &result);
  return result;
}

}  // namespace

BisectionResult Bisect(const WeightedGraph& graph,
                       const BisectionOptions& options) {
  return BisectRecursive(graph, options, 0);
}

}  // namespace surfer
