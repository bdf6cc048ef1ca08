#ifndef SURFER_RUNTIME_REPORT_H_
#define SURFER_RUNTIME_REPORT_H_

#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "runtime/stats.h"

namespace surfer {
namespace runtime {

/// Serializes RuntimeStats into the run-report `runtime` block (see
/// obs::ValidateRunReport for the schema contract). Built here rather than
/// in obs/ so the observability layer stays independent of the runtime.
obs::JsonValue RuntimeStatsToJson(const RuntimeStats& stats);

/// Exports one run into `metrics` (no-op when null). Every listed counter
/// becomes the series runtime_<report key>: a counter when it is a uint64_t,
/// a gauge when it is a double. The run-level series that are not listed
/// counters (run count, barrier generations, network bytes, wall time,
/// per-worker barrier wait, memory, the channel-depth and barrier-wait
/// histograms, trace drops, critical-path busy time) follow. Both real
/// engines call it once per run.
void ExportRuntimeStats(const RuntimeStats& stats,
                        obs::MetricsRegistry* metrics);

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_REPORT_H_
