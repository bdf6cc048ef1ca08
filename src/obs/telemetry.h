#ifndef SURFER_OBS_TELEMETRY_H_
#define SURFER_OBS_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace surfer {
namespace obs {

/// Process memory occupancy read from /proc/self/status (Linux). When the
/// file is missing or carries no Vm lines (non-Linux platforms, restrictive
/// sandboxes), `available` is false and the counters are zero — consumers
/// must suppress RSS gauges and report fields rather than export zeros that
/// read as measurements.
struct MemoryUsage {
  bool available = false;       ///< the probe actually measured something
  uint64_t rss_bytes = 0;       ///< VmRSS: current resident set
  uint64_t peak_rss_bytes = 0;  ///< VmHWM: resident high-water mark
};

/// One read of /proc/self/status. Costs one small file read (~10us); cheap
/// enough for end-of-run metrics, too slow for a 1ms sampling tick — the
/// flight recorder registers it with a period multiple instead. Logs one
/// warning per process the first time the probe comes back unavailable.
MemoryUsage ReadMemoryUsage();

/// Path-parameterized probe for tests: reads a /proc/self/status-shaped
/// file from `path`. Does not log.
MemoryUsage ReadMemoryUsageFrom(const std::string& path);

/// One point-in-time sample of a gauge series.
struct TelemetrySample {
  double t_us = 0.0;  ///< microseconds since the recorder's origin
  double value = 0.0;
};

/// Snapshot of one recorded time series, oldest retained sample first.
struct TelemetrySeries {
  std::string name;
  std::string unit;          ///< "bytes", "items", "workers", ... (free-form)
  double ceiling = 0.0;      ///< saturation level (channel window, ring
                             ///< capacity, barrier membership); 0 = none
  uint64_t samples_taken = 0;    ///< every sample ever taken for this series
  uint64_t samples_dropped = 0;  ///< overwritten by ring wrap-around
  std::vector<TelemetrySample> samples;
};

/// Knobs of the flight recorder. Embedded in runtime::RuntimeOptions so one
/// flag turns time-resolved telemetry on for a run.
struct TelemetryOptions {
  /// Master switch: when false the recorder never starts a thread, providers
  /// are never called, and every recording entry point is a no-op.
  bool enabled = false;
  /// Sampling period of the background thread. ~1ms resolves superstep-scale
  /// dynamics; the sampler costs well under 2% of one core at this rate
  /// (pinned by the telemetry_sample microbenchmark).
  double period_seconds = 0.001;
  /// Retained samples per series, rounded up to a power of two. When a run
  /// outlives the ring the oldest samples are overwritten and counted in
  /// samples_dropped — flight-recorder semantics: the newest window
  /// survives, and the drop counter says the view is partial.
  size_t ring_capacity = 4096;
};

/// A low-overhead flight recorder for runtime gauges.
///
/// Registration (cold path, before Start) attaches named *providers* —
/// callables that read lock-free state such as atomics mirrored next to the
/// runtime's mutex-protected structures. A background thread then samples
/// every provider at a fixed period into per-series ring buffers. The
/// instrumented hot paths never see a lock or an allocation from telemetry:
/// they only update atomics they already own, and the sampler reads those
/// atomics from its own thread.
///
/// Disabled (options.enabled == false, or Start never called), the recorder
/// is fully inert: no thread, no provider calls, empty snapshots.
///
/// Thread contract: RegisterGauge is for setup code. Start/Stop bracket the
/// sampled region. Snapshot/ToJson/ExportCounterEvents may run while the
/// sampler is live (they synchronize with it) but are meant for after Stop.
class TelemetryRecorder {
 public:
  using Provider = std::function<double()>;
  using Clock = std::chrono::steady_clock;

  explicit TelemetryRecorder(TelemetryOptions options = {});
  ~TelemetryRecorder();  ///< stops the sampler if still running

  TelemetryRecorder(const TelemetryRecorder&) = delete;
  TelemetryRecorder& operator=(const TelemetryRecorder&) = delete;

  /// Registers one gauge series. `ceiling`, when nonzero, records the
  /// value's saturation level (a channel's byte window, a pool's high-water,
  /// a barrier's membership) so exporters can report occupancy fractions.
  /// `period_multiple` samples the series every Nth tick — for providers
  /// like the /proc memory probe that are too costly at the base period.
  /// Returns the series index.
  size_t RegisterGauge(std::string name, std::string unit, Provider provider,
                       double ceiling = 0.0, uint32_t period_multiple = 1);

  /// Starts the background sampler (no-op when disabled or no series are
  /// registered). `origin` anchors sample timestamps: pass the run's start
  /// instant so telemetry time aligns with the run's other clocks. A started
  /// recorder holds at least two ticks once stopped, its start edge and its
  /// stop edge, however soon Stop follows.
  void Start(Clock::time_point origin = Clock::now());

  /// Stops and joins the sampler. Idempotent.
  void Stop();

  bool enabled() const { return options_.enabled; }
  bool running() const { return thread_.joinable(); }
  const TelemetryOptions& options() const { return options_; }

  /// Takes one synchronous sampling tick on the caller's thread. This is
  /// the same code path the background thread runs; exposed so the overhead
  /// microbenchmark can price a tick and tests can sample deterministically
  /// (without Start, the first tick anchors the timestamp origin itself).
  void SampleNow();

  /// Microseconds since `origin` (0 before Start).
  double NowUs() const;

  /// Sampling ticks completed so far.
  uint64_t samples_taken() const;
  /// Samples lost to ring wrap-around, summed across series.
  uint64_t total_dropped() const;

  std::vector<TelemetrySeries> Snapshot() const;

  /// The run report's "telemetry" block (schema v3): sampling parameters,
  /// drop counters, and per-series metadata + summary + retained samples.
  /// Series whose every retained sample is zero carry summary only (no
  /// "samples" array) — with M^2 channel series most are idle and the
  /// elision keeps reports proportional to what actually happened.
  JsonValue ToJson() const;

  /// Merges every retained sample into `tracer` as Chrome counter events
  /// ("ph":"C") so the series chart under the spans in chrome://tracing.
  /// `offset_us` maps recorder time onto the tracer's origin: pass the
  /// tracer's WallNowUs() captured at the recorder's origin instant.
  void ExportCounterEvents(Tracer* tracer, double offset_us) const;

 private:
  /// One registered series: the provider plus its sample ring. `head` counts
  /// every sample ever written; the ring keeps the last capacity of them.
  struct Series {
    std::string name;
    std::string unit;
    double ceiling = 0.0;
    uint32_t period_multiple = 1;
    Provider provider;
    std::vector<TelemetrySample> ring;  ///< power-of-two slots
    uint64_t head = 0;
  };

  void SamplerMain();
  void SampleLocked(double t_us);
  TelemetrySeries SnapshotSeriesLocked(const Series& series) const;

  const TelemetryOptions options_;
  Clock::time_point origin_;
  bool origin_set_ = false;

  /// Guards series_ and the rings: taken by the sampler once per tick, by
  /// registration, and by snapshots — never by instrumented runtime code.
  mutable std::mutex mu_;
  std::vector<Series> series_;
  uint64_t ticks_ = 0;

  std::thread thread_;
  std::atomic<bool> stop_{false};
};

/// Summarizes a series' retained samples: min/mean/max, exact p99 over the
/// window, and the timestamp of the peak. Used by ToJson and by tests.
struct TelemetrySeriesSummary {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double p99 = 0.0;
  double peak_t_us = 0.0;  ///< timestamp of the first maximal sample
};

TelemetrySeriesSummary SummarizeTelemetrySeries(
    const std::vector<TelemetrySample>& samples);

}  // namespace obs
}  // namespace surfer

#endif  // SURFER_OBS_TELEMETRY_H_
