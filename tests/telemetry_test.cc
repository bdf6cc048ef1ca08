// Tests of the telemetry flight recorder (obs/telemetry.h) and of the
// MetricsRegistry gauge contract it shares a concurrency model with: hot
// paths publish through relaxed atomics, observers read them from other
// threads without tearing or locks.

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace surfer {
namespace {

// ------------------------------------------------ MetricsRegistry gauges

TEST(MetricsGaugeConcurrencyTest, ParallelSetAndAddAreNotTorn) {
  obs::MetricsRegistry registry;
  obs::Gauge& shared = registry.GaugeRef("shared_adds");
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &shared, t] {
      // Each thread also resolves its own gauge by name, exercising the
      // registry's map under concurrent insertion.
      obs::Gauge& own =
          registry.GaugeRef("own", {{"thread", std::to_string(t)}});
      for (int i = 0; i < kAddsPerThread; ++i) {
        shared.Add(1.0);
        own.Set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // fetch_add on an atomic<double> loses no increments.
  EXPECT_DOUBLE_EQ(shared.value(), kThreads * kAddsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(
        registry.GaugeRef("own", {{"thread", std::to_string(t)}}).value(),
        kAddsPerThread - 1);
  }
}

TEST(MetricsGaugeConcurrencyTest, SnapshotWhileWritersRun) {
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.GaugeRef("live");
  std::atomic<bool> stop{false};
  std::thread writer([&gauge, &stop] {
    double v = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      gauge.Set(v);
      v += 1.0;
    }
  });
  // Concurrent snapshots must observe *some* written value — relaxed
  // atomics guarantee no torn doubles — and never crash or deadlock.
  for (int i = 0; i < 100; ++i) {
    for (const obs::MetricSample& sample : registry.Snapshot()) {
      EXPECT_GE(sample.value, 0.0);
      EXPECT_EQ(sample.value, std::floor(sample.value));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ------------------------------------------------------- flight recorder

TEST(TelemetryRecorderTest, DisabledRecorderIsInert) {
  obs::TelemetryOptions options;  // enabled defaults to false
  obs::TelemetryRecorder recorder(options);
  int calls = 0;
  recorder.RegisterGauge("g", "items", [&calls] {
    ++calls;
    return 1.0;
  });
  recorder.Start();
  EXPECT_FALSE(recorder.running());
  recorder.SampleNow();
  recorder.Stop();
  EXPECT_EQ(calls, 0);  // the provider is never invoked
  EXPECT_EQ(recorder.samples_taken(), 0u);
  const std::vector<obs::TelemetrySeries> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_TRUE(snapshot[0].samples.empty());
}

TEST(TelemetryRecorderTest, RingKeepsNewestWindowAndCountsDrops) {
  obs::TelemetryOptions options;
  options.enabled = true;
  options.ring_capacity = 4;
  obs::TelemetryRecorder recorder(options);
  double value = 0.0;
  recorder.RegisterGauge("g", "items", [&value] { return value; });
  for (int i = 0; i < 10; ++i) {
    value = static_cast<double>(i);
    recorder.SampleNow();
  }
  EXPECT_EQ(recorder.samples_taken(), 10u);
  EXPECT_EQ(recorder.total_dropped(), 6u);
  const std::vector<obs::TelemetrySeries> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const obs::TelemetrySeries& series = snapshot[0];
  EXPECT_EQ(series.samples_taken, 10u);
  EXPECT_EQ(series.samples_dropped, 6u);
  // Flight-recorder semantics: the newest window survives, oldest first.
  ASSERT_EQ(series.samples.size(), 4u);
  EXPECT_DOUBLE_EQ(series.samples[0].value, 6.0);
  EXPECT_DOUBLE_EQ(series.samples[3].value, 9.0);
  for (size_t i = 1; i < series.samples.size(); ++i) {
    EXPECT_GE(series.samples[i].t_us, series.samples[i - 1].t_us);
  }
}

TEST(TelemetryRecorderTest, PeriodMultipleSubsamples) {
  obs::TelemetryOptions options;
  options.enabled = true;
  obs::TelemetryRecorder recorder(options);
  recorder.RegisterGauge("every_tick", "items", [] { return 1.0; });
  recorder.RegisterGauge("every_fourth", "items", [] { return 2.0; },
                         /*ceiling=*/0.0, /*period_multiple=*/4);
  for (int i = 0; i < 9; ++i) {
    recorder.SampleNow();
  }
  const std::vector<obs::TelemetrySeries> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].samples.size(), 9u);
  EXPECT_EQ(snapshot[1].samples.size(), 3u);  // ticks 0, 4, 8
}

// Stop right after Start usually runs before the sampler thread is first
// scheduled; the start and stop edges are still both recorded.
TEST(TelemetryRecorderTest, ImmediateStopStillRecordsBothEdges) {
  obs::TelemetryOptions options;
  options.enabled = true;
  options.period_seconds = 0.001;
  for (int run = 0; run < 50; ++run) {
    obs::TelemetryRecorder recorder(options);
    recorder.RegisterGauge("edge", "items", [] { return 1.0; });
    recorder.Start();
    recorder.Stop();
    EXPECT_GE(recorder.samples_taken(), 2u) << "run " << run;
  }
}

TEST(TelemetryRecorderTest, BackgroundSamplerTicksAndStops) {
  obs::TelemetryOptions options;
  options.enabled = true;
  options.period_seconds = 0.0005;
  obs::TelemetryRecorder recorder(options);
  std::atomic<uint64_t> gauge{42};
  recorder.RegisterGauge("bg", "items", [&gauge] {
    return static_cast<double>(gauge.load(std::memory_order_relaxed));
  });
  recorder.Start();
  EXPECT_TRUE(recorder.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  recorder.Stop();
  EXPECT_FALSE(recorder.running());
  const uint64_t ticks = recorder.samples_taken();
  EXPECT_GE(ticks, 2u);  // at least the first and the final stop-edge tick
  recorder.Stop();  // idempotent
  EXPECT_EQ(recorder.samples_taken(), ticks);
  const std::vector<obs::TelemetrySeries> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  for (const obs::TelemetrySample& sample : snapshot[0].samples) {
    EXPECT_DOUBLE_EQ(sample.value, 42.0);
    EXPECT_GE(sample.t_us, 0.0);
  }
}

TEST(TelemetryRecorderTest, SummaryStatisticsAreExact) {
  std::vector<obs::TelemetrySample> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back({static_cast<double>(i), static_cast<double>(i)});
  }
  const obs::TelemetrySeriesSummary summary =
      obs::SummarizeTelemetrySeries(samples);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
  EXPECT_DOUBLE_EQ(summary.p99, 100.0);  // nearest-rank over 100 values
  EXPECT_DOUBLE_EQ(summary.peak_t_us, 100.0);

  // The peak timestamp is the *first* maximal sample.
  std::vector<obs::TelemetrySample> plateau = {
      {1.0, 5.0}, {2.0, 9.0}, {3.0, 9.0}, {4.0, 2.0}};
  EXPECT_DOUBLE_EQ(obs::SummarizeTelemetrySeries(plateau).peak_t_us, 2.0);

  EXPECT_DOUBLE_EQ(obs::SummarizeTelemetrySeries({}).mean, 0.0);
}

TEST(TelemetryRecorderTest, ExportCounterEventsMapsOntoTracerClock) {
  if (!obs::Tracer::CompiledIn()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  obs::TelemetryOptions options;
  options.enabled = true;
  obs::TelemetryRecorder recorder(options);
  double value = 0.0;
  recorder.RegisterGauge("active", "items", [&value] { return value; });
  recorder.RegisterGauge("idle", "items", [] { return 0.0; });
  for (int i = 0; i < 3; ++i) {
    value = static_cast<double>(i + 1);
    recorder.SampleNow();
  }

  obs::Tracer tracer;
  constexpr double kOffsetUs = 1000.0;
  recorder.ExportCounterEvents(&tracer, kOffsetUs);
  const std::vector<obs::TraceEvent> events = tracer.Events();
  // The flat-zero series is skipped; the active one ships every sample.
  ASSERT_EQ(events.size(), 3u);
  for (const obs::TraceEvent& event : events) {
    EXPECT_EQ(event.phase, 'C');
    EXPECT_EQ(event.name, "active");
    EXPECT_EQ(event.category, "telemetry");
    EXPECT_GE(event.ts_us, kOffsetUs);
    EXPECT_GT(event.counter_value, 0.0);
  }
}

TEST(TelemetryRecorderTest, ReadMemoryUsageReportsResidentSet) {
  const obs::MemoryUsage usage = obs::ReadMemoryUsage();
  // On Linux both fields are populated and the high-water mark bounds the
  // current resident set. (available=false would mean /proc is unreadable,
  // which the API allows — but the CI hosts this test gates on are Linux.)
  EXPECT_TRUE(usage.available);
  EXPECT_GT(usage.rss_bytes, 0u);
  EXPECT_GE(usage.peak_rss_bytes, usage.rss_bytes);
}

TEST(TelemetryRecorderTest, MemoryProbeFailsExplicitlyNotWithZeros) {
  // A missing status file is an unavailable probe, not a zero measurement.
  const obs::MemoryUsage missing = obs::ReadMemoryUsageFrom(
      "/nonexistent/surfer_no_such_proc_status");
  EXPECT_FALSE(missing.available);
  EXPECT_EQ(missing.rss_bytes, 0u);
  EXPECT_EQ(missing.peak_rss_bytes, 0u);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("surfer_memprobe_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  // A file with no Vm lines (a non-Linux /proc shape) is also unavailable.
  const std::filesystem::path empty_shape = dir / "no_vm_lines";
  {
    std::ofstream out(empty_shape);
    out << "Name:\tsurfer\nState:\tR (running)\n";
  }
  const obs::MemoryUsage unparsed =
      obs::ReadMemoryUsageFrom(empty_shape.string());
  EXPECT_FALSE(unparsed.available);
  EXPECT_EQ(unparsed.rss_bytes, 0u);

  // A well-formed status file parses both counters (kB -> bytes).
  const std::filesystem::path shaped = dir / "vm_lines";
  {
    std::ofstream out(shaped);
    out << "Name:\tsurfer\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\n";
  }
  const obs::MemoryUsage parsed = obs::ReadMemoryUsageFrom(shaped.string());
  EXPECT_TRUE(parsed.available);
  EXPECT_EQ(parsed.rss_bytes, 1024u * 1024u);
  EXPECT_EQ(parsed.peak_rss_bytes, 2048u * 1024u);
  std::filesystem::remove_all(dir);
}

TEST(TelemetryRecorderTest, ConcurrentSnapshotsWhileSamplerRuns) {
  // Snapshot/ToJson are documented as safe while the sampler is live: they
  // synchronize on the recorder mutex. Hammer them against a fast sampler.
  obs::TelemetryOptions options;
  options.enabled = true;
  options.period_seconds = 0.0002;
  options.ring_capacity = 16;
  obs::TelemetryRecorder recorder(options);
  std::atomic<uint64_t> gauge{0};
  recorder.RegisterGauge("hot", "items", [&gauge] {
    return static_cast<double>(gauge.load(std::memory_order_relaxed));
  });
  recorder.Start();
  std::atomic<bool> stop{false};
  std::thread mutator([&gauge, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      gauge.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 50; ++i) {
    const std::vector<obs::TelemetrySeries> snapshot = recorder.Snapshot();
    ASSERT_EQ(snapshot.size(), 1u);
    (void)recorder.ToJson();
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  recorder.Stop();
  EXPECT_GT(recorder.samples_taken(), 0u);
}

}  // namespace
}  // namespace surfer
