#ifndef SURFER_OBS_BENCH_GATE_H_
#define SURFER_OBS_BENCH_GATE_H_

#include <string>
#include <vector>

#include "obs/json.h"

namespace surfer {
namespace obs {

/// Version of the BENCH_*.json baseline envelope shared by every benchmark
/// (see bench/bench_common.h for the writer). The envelope carries `name`,
/// `smoke`, `host_cores` and a `points` array; benchmarks add their own
/// workload fields next to them.
inline constexpr int kBenchBaselineSchemaVersion = 1;

/// Tolerances of CheckBenchBaseline. Timing comparisons are relative; the
/// widenings stack, because a 1-core CI container comparing against a
/// different recording host deserves both kinds of slack.
struct BenchCheckOptions {
  /// Base slack for wall-clock fields between same-shaped runs.
  double rel_tolerance = 0.35;
  /// Extra slack when current.host_cores != baseline.host_cores.
  double cross_host_extra = 1.0;
  /// Extra slack when either side ran on <= 2 cores, where scheduler noise
  /// dominates short timings.
  double small_host_extra = 0.65;
  /// Escalates nonzero observability drop counters (trace_events_dropped,
  /// telemetry_samples_dropped) from advisory notes to hard failures. Off
  /// by default because drops mean the *recording* is partial, not that the
  /// run misbehaved; CI smoke runs turn it on, where a drop means the ring
  /// capacities are undersized for even the smallest workload.
  bool strict_drops = false;
};

/// Verdict of one baseline check: hard failures (regressions, broken
/// invariants) and advisory notes (skipped comparisons, improvements).
struct BenchCheckResult {
  bool ok = true;
  std::vector<std::string> failures;
  std::vector<std::string> notes;

  void Fail(std::string what) {
    ok = false;
    failures.push_back(std::move(what));
  }
  void Note(std::string what) { notes.push_back(std::move(what)); }
};

/// Compares a freshly produced BENCH_*.json against a committed baseline.
///
/// Hard failures:
///   - mismatched benchmark `name`;
///   - any current point with `bit_identical` == false (correctness, never
///     subject to tolerance);
///   - any current point whose `wire_segments_sent` is below 5x its
///     `wire_batches_sent` (wire batching collapsed), or whose
///     `scatter_speedup` is below 2;
///   - `network_bytes` differing where both sides record it (byte counts
///     are deterministic, so equality is exact);
///   - wall-clock fields (`sequential_wall_s`, points' `wall_s`) regressing
///     beyond the host-aware tolerance;
///   - points' `peak_rss_bytes` regressing, or `scatter_msgs_per_sec`
///     falling, beyond the same host-aware tolerance (memory and
///     throughput vary with allocator and host like time does);
///   - nonzero drop counters when options.strict_drops is set (an advisory
///     note otherwise); a run report's also include the registry counters
///     named `*_trace_events_dropped` / `*_telemetry_samples_dropped`.
///
/// Timing comparisons are skipped (with a note) when the two files describe
/// different workloads — different smoke flags or any differing numeric
/// workload field (num_vertices, num_partitions, ...) — since comparing
/// timings across workloads is meaningless. Points are matched by their
/// `threads` or `workers` key when present, by position otherwise; points
/// present on only one side produce notes, not failures.
BenchCheckResult CheckBenchBaseline(const JsonValue& current,
                                    const JsonValue& baseline,
                                    const BenchCheckOptions& options = {});

/// One numeric leaf that differs between two JSON documents.
struct JsonDelta {
  std::string path;  ///< dotted, with [i] for array indices
  double before = 0.0;
  double after = 0.0;
};

/// Recursively collects every numeric leaf present in both documents whose
/// values differ (`a` is "before", `b` is "after"), in `a`'s document
/// order. Keys or indices present on only one side are skipped: the diff is
/// about shared quantities.
std::vector<JsonDelta> DiffNumbers(const JsonValue& a, const JsonValue& b);

}  // namespace obs
}  // namespace surfer

#endif  // SURFER_OBS_BENCH_GATE_H_
