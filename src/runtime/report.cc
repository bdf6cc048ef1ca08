#include "runtime/report.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace surfer {
namespace runtime {

namespace {

obs::JsonValue HistogramToJson(const Histogram& h) {
  obs::JsonValue out = obs::JsonValue::MakeObject();
  out.Set("count", static_cast<uint64_t>(h.count()));
  out.Set("mean", h.Mean());
  out.Set("max", h.max());
  out.Set("p50", h.Percentile(50.0));
  out.Set("p99", h.Percentile(99.0));
  return out;
}

}  // namespace

obs::JsonValue RuntimeStatsToJson(const RuntimeStats& stats) {
  obs::JsonValue block = obs::JsonValue::MakeObject();
  block.Set("num_workers", static_cast<uint64_t>(stats.num_workers));
  block.Set("num_machines", static_cast<uint64_t>(stats.num_machines));
  if (stats.num_processes > 0) {
    block.Set("num_processes", static_cast<uint64_t>(stats.num_processes));
  }
  block.Set("iterations", stats.iterations);
  RuntimeCounters::ForEachCounter([&](const char* name, auto member) {
    block.Set(name, stats.*member);
  });
  // Fraction of emitted messages merged away at emission before being
  // priced: combined / (combined + sent-on-the-wire).
  const uint64_t staged =
      stats.wire_messages_combined + stats.messages_sent;
  block.Set("wire_combine_hit_rate",
            staged > 0
                ? static_cast<double>(stats.wire_messages_combined) / staged
                : 0.0);
  block.Set("wire_serialize_bytes_per_sec",
            stats.wall_seconds > 0.0
                ? static_cast<double>(stats.wire_payload_bytes) /
                      stats.wall_seconds
                : 0.0);
  // The bench-gated regroup quantity: counting-scatter throughput in
  // messages per second (0 when no combine stage ran).
  block.Set("combine_scatter_msgs_per_sec",
            stats.combine_scatter_seconds > 0.0
                ? static_cast<double>(stats.combine_messages_scattered) /
                      stats.combine_scatter_seconds
                : 0.0);
  block.Set("barrier_wait_mean_s", stats.barrier_wait_mean_s);
  block.Set("barrier_wait_max_s", stats.barrier_wait_max_s);
  block.Set("barrier_generations", stats.barrier_generations);
  block.Set("handoff_seconds", stats.handoff_seconds);
  block.Set("wall_seconds", stats.wall_seconds);
  block.Set("network_bytes", stats.TotalNetworkBytes());
  // Suppressed when the memory probe was unavailable (both counters zero):
  // a zero here would read as a measurement, not a failure to measure.
  if (stats.rss_bytes > 0 || stats.peak_rss_bytes > 0) {
    block.Set("rss_bytes", stats.rss_bytes);
    block.Set("peak_rss_bytes", stats.peak_rss_bytes);
  }
  block.Set("channel_depth", HistogramToJson(stats.channel_depth));
  block.Set("barrier_wait", HistogramToJson(stats.barrier_wait));
  block.Set("batch_fill", HistogramToJson(stats.batch_fill));

  // Only non-trivial links and channels make it into the report: with M
  // machines there are M^2 of each but most carry nothing on sparse
  // exchanges. Every engine reports its link matrix; only the threaded one
  // has channels to snapshot (the distributed engine moves bytes over TCP).
  obs::JsonValue links = obs::JsonValue::MakeArray();
  obs::JsonValue channels = obs::JsonValue::MakeArray();
  const uint32_t n = stats.num_machines;
  for (uint32_t src = 0; src < n; ++src) {
    for (uint32_t dst = 0; dst < n; ++dst) {
      const size_t idx = static_cast<size_t>(src) * n + dst;
      const uint64_t bytes =
          idx < stats.link_bytes.size() ? stats.link_bytes[idx] : 0;
      obs::JsonValue entry = obs::JsonValue::MakeObject();
      entry.Set("src", static_cast<uint64_t>(src));
      entry.Set("dst", static_cast<uint64_t>(dst));
      entry.Set("bytes", bytes);
      if (bytes > 0) {
        links.Append(entry);
      }
      if (idx >= stats.channels.size()) {
        continue;
      }
      const ChannelStats& ch = stats.channels[idx];
      if (ch.sends == 0 && ch.stall_attempts == 0) {
        continue;
      }
      entry.Set("capacity", static_cast<uint64_t>(ch.capacity));
      entry.Set("sends", ch.sends);
      entry.Set("receives", ch.receives);
      // "send_stalls" keeps its historical meaning (every failed attempt)
      // for report consumers; "items_stalled" is the deduplicated count.
      entry.Set("send_stalls", ch.stall_attempts);
      entry.Set("items_stalled", ch.items_stalled);
      entry.Set("max_depth", static_cast<uint64_t>(ch.max_depth));
      channels.Append(std::move(entry));
    }
  }
  block.Set("links", std::move(links));
  block.Set("channels", std::move(channels));
  return block;
}

void ExportRuntimeStats(const RuntimeStats& stats,
                        obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    return;
  }
  metrics->CounterRef("runtime_runs_total").Increment();
  RuntimeCounters::ForEachCounter([&](const char* name, auto member) {
    const std::string series = std::string("runtime_") + name;
    if constexpr (std::is_same_v<decltype(member),
                                 double RuntimeCounters::*>) {
      metrics->GaugeRef(series).Set(stats.*member);
    } else {
      metrics->CounterRef(series).Increment(stats.*member);
    }
  });
  metrics->CounterRef("runtime_barrier_generations")
      .Increment(stats.barrier_generations);
  metrics->CounterRef("runtime_network_bytes")
      .Increment(stats.TotalNetworkBytes());
  metrics->GaugeRef("runtime_wall_seconds").Set(stats.wall_seconds);
  metrics->GaugeRef("runtime_barrier_wait_mean_seconds")
      .Set(stats.barrier_wait_mean_s);
  metrics->GaugeRef("runtime_barrier_wait_max_seconds")
      .Set(stats.barrier_wait_max_s);
  // Plain end-of-run memory gauges, exported whether or not the sampler
  // ran: the bench plane gates peak RSS from these.
  metrics->GaugeRef("process_rss_bytes")
      .Set(static_cast<double>(stats.rss_bytes));
  metrics->GaugeRef("process_peak_rss_bytes")
      .Set(static_cast<double>(stats.peak_rss_bytes));
  metrics->HistogramRef("runtime_channel_depth").Merge(stats.channel_depth);
  metrics->HistogramRef("runtime_barrier_wait").Merge(stats.barrier_wait);
  metrics->CounterRef("runtime_trace_events_dropped")
      .Increment(stats.trace_events_dropped);
  double critical_busy = 0.0;
  for (const CriticalPathEntry& entry : ComputeCriticalPath(stats.timeline)) {
    critical_busy += entry.busy_s;
  }
  metrics->GaugeRef("runtime_critical_path_busy_seconds").Set(critical_busy);
}

}  // namespace runtime
}  // namespace surfer
