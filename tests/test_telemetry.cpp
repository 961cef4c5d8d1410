// Telemetry subsystem tests: tracing spans (nesting, thread attribution,
// ring overflow, Chrome export), the metrics registry (counters, gauges,
// histograms, exposition formats), and the two hard product invariants —
// instrumentation must not change numerical results bitwise, and a disabled
// span must cost a negligible fraction of a cycle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "da/ensemble.hpp"
#include "da/etkf.hpp"
#include "da/letkf.hpp"
#include "da/observation.hpp"
#include "models/lorenz96.hpp"
#include "rng/rng.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace turbda {
namespace {

using telemetry::TraceCollector;

/// Ring capacity the collector boots with (trace.cpp kDefaultCapacity);
/// restored after the overflow test so later tests see full-size rings.
constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 15;

void reset_tracing(std::size_t capacity = kDefaultRingCapacity) {
  auto& tc = TraceCollector::instance();
  tc.disable();
  tc.set_capacity(capacity);
  tc.clear();
}

// ------------------------------------------------------------- trace layer ---

// Must run first (gtest executes in declaration order): verifies the
// process-wide default before any test flips the enable flag.
TEST(Trace, DisabledByDefaultAndRecordsNothing) {
  EXPECT_FALSE(telemetry::tracing_enabled());
  EXPECT_FALSE(TraceCollector::instance().enabled());
  {
    TURBDA_SPAN("should.not.record");
    TURBDA_TRACE_INSTANT("also.not");
  }
  // Disabled spans never even register the thread's buffer.
  EXPECT_TRUE(TraceCollector::instance().snapshot().empty());
}

TEST(Trace, SpansNestAndRecordDepthInCompletionOrder) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  tc.enable();
  {
    TURBDA_SPAN("outer");
    {
      TURBDA_SPAN("inner");
      { TURBDA_SPAN("leaf"); }
    }
    { TURBDA_SPAN("sibling"); }
  }
  tc.disable();

  const auto snap = tc.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const auto& spans = snap[0].spans;
  ASSERT_EQ(spans.size(), 4u);
  // RAII records on close, innermost first.
  EXPECT_STREQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_STREQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].depth, 1u);
  EXPECT_STREQ(spans[3].name, "outer");
  EXPECT_EQ(spans[3].depth, 0u);
  // Children lie inside the parent interval.
  const auto& outer = spans[3];
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(spans[i].t0_ns, outer.t0_ns) << spans[i].name;
    EXPECT_LE(spans[i].t0_ns + spans[i].dur_ns, outer.t0_ns + outer.dur_ns) << spans[i].name;
  }
  EXPECT_EQ(snap[0].dropped, 0u);
}

TEST(Trace, ThreadsGetDistinctIdsAndLabels) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  telemetry::set_thread_label("main-test");
  tc.enable();
  { TURBDA_SPAN("on.main"); }
  std::thread worker([] {
    telemetry::set_thread_label("worker-test");
    TURBDA_SPAN("on.worker");
  });
  worker.join();
  tc.disable();

  const auto snap = tc.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_NE(snap[0].tid, snap[1].tid);
  std::string labels, names;
  for (const auto& t : snap) {
    ASSERT_EQ(t.spans.size(), 1u);
    labels += t.label + ";";
    names += std::string(t.spans[0].name) + ";";
  }
  EXPECT_NE(labels.find("main-test"), std::string::npos);
  EXPECT_NE(labels.find("worker-test"), std::string::npos);
  EXPECT_NE(names.find("on.main"), std::string::npos);
  EXPECT_NE(names.find("on.worker"), std::string::npos);
}

TEST(Trace, InstantsAndExplicitCompletes) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  tc.enable();
  TURBDA_TRACE_INSTANT("status.event");
  const std::uint64_t t0 = tc.now_ns();
  tc.complete("synthetic.span", t0, 1234);
  tc.disable();

  const auto snap = tc.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].spans.size(), 2u);
  EXPECT_STREQ(snap[0].spans[0].name, "status.event");
  EXPECT_TRUE(snap[0].spans[0].instant);
  EXPECT_EQ(snap[0].spans[0].dur_ns, 0u);
  EXPECT_STREQ(snap[0].spans[1].name, "synthetic.span");
  EXPECT_FALSE(snap[0].spans[1].instant);
  EXPECT_EQ(snap[0].spans[1].t0_ns, t0);
  EXPECT_EQ(snap[0].spans[1].dur_ns, 1234u);
}

TEST(Trace, RingWrapKeepsNewestAndCountsDropped) {
  reset_tracing(/*capacity=*/4);
  auto& tc = TraceCollector::instance();
  tc.enable();
  for (int i = 0; i < 10; ++i) {
    TURBDA_SPAN("wrap.span");
  }
  tc.disable();

  const auto snap = tc.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].spans.size(), 4u);
  EXPECT_EQ(snap[0].dropped, 6u);
  // Surviving records are the newest four, in completion order.
  for (std::size_t i = 1; i < snap[0].spans.size(); ++i)
    EXPECT_GE(snap[0].spans[i].t0_ns, snap[0].spans[i - 1].t0_ns);
  reset_tracing();  // restore the default ring size for later tests
}

TEST(Trace, SnapshotDuringWrapNeverReturnsTornRecords) {
  // A writer wraps a tiny ring while the main thread snapshots in a loop.
  // Record k carries t0 == dur == k, so a record mixing two writes shows up
  // as t0 != dur, and a stale one as a sequence index outside the window of
  // the ring the snapshot saw (head - capacity, head].
  constexpr std::uint64_t kCapacity = 8, kRecords = 500000;
  reset_tracing(kCapacity);
  auto& tc = TraceCollector::instance();
  tc.enable();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    telemetry::set_thread_label("wrap-writer");
    for (std::uint64_t k = 0; k < kRecords; ++k) tc.complete("wrap.record", k, k);
    done.store(true, std::memory_order_release);
  });

  // Returns the writer's head as the snapshot saw it; checks stop at the
  // first inconsistent record.
  std::uint64_t checked = 0, bad = 0;
  const auto check = [&](const telemetry::ThreadTrace& tt) {
    const std::uint64_t head = tt.dropped + tt.spans.size();
    for (std::size_t j = 0; j < tt.spans.size() && bad == 0; ++j) {
      const auto& s = tt.spans[j];
      const bool ok = std::strcmp(s.name, "wrap.record") == 0 && s.t0_ns == s.dur_ns &&
                      !s.instant && s.depth == 0 && s.t0_ns < head &&
                      s.t0_ns + kCapacity >= head && (j == 0 || s.t0_ns > tt.spans[j - 1].t0_ns);
      EXPECT_TRUE(ok) << "record " << j << " of " << tt.spans.size() << ": t0 " << s.t0_ns
                      << " dur " << s.dur_ns << " head " << head;
      bad += ok ? 0 : 1;
      ++checked;
    }
    return head;
  };
  std::uint64_t head = 0;
  while (!done.load(std::memory_order_acquire) && bad == 0) {
    for (const auto& tt : tc.snapshot())
      if (tt.label == "wrap-writer") head = check(tt);
  }
  writer.join();
  tc.disable();
  for (const auto& tt : tc.snapshot())
    if (tt.label == "wrap-writer") head = check(tt);
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(head, kRecords);  // the quiescent ring keeps the newest kCapacity
  EXPECT_GE(checked, kCapacity);
  reset_tracing();  // restore the default ring size for later tests
}

TEST(Trace, ChromeJsonCarriesEventsAndThreadMetadata) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  telemetry::set_thread_label("json-thread");
  tc.enable();
  { TURBDA_SPAN("json.span"); }
  TURBDA_TRACE_INSTANT("json.instant");
  tc.disable();

  const std::string j = tc.chrome_json();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(j.find("json.span"), std::string::npos);
  EXPECT_NE(j.find("json.instant"), std::string::npos);
  EXPECT_NE(j.find("thread_name"), std::string::npos);
  EXPECT_NE(j.find("json-thread"), std::string::npos);
  // Instants need explicit thread scope for the viewers.
  EXPECT_NE(j.find("\"s\":\"t\""), std::string::npos);
}

// ---------------------------------------------------------- metrics layer ---

TEST(Metrics, CounterAndGaugeBasics) {
  telemetry::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  telemetry::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  const double bounds[] = {1.0, 2.0};
  telemetry::Histogram h(bounds);
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0 (le semantics: edge belongs to its bucket)
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1
  h.observe(3.0);  // +Inf bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  for (const auto n : h.bucket_counts()) EXPECT_EQ(n, 0u);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  const double bad[] = {2.0, 1.0};
  EXPECT_THROW(telemetry::Histogram h(bad), Error);
}

TEST(Metrics, RegistryReturnsStableRefsAndFirstBoundsWin) {
  telemetry::MetricsRegistry reg;
  auto& c1 = reg.counter("hits");
  auto& c2 = reg.counter("hits");
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  EXPECT_EQ(c2.value(), 3u);

  const double bounds[] = {1.0, 2.0};
  auto& h1 = reg.histogram("lat", bounds);
  const double other[] = {99.0};
  auto& h2 = reg.histogram("lat", other);  // later bounds ignored
  EXPECT_EQ(&h1, &h2);
  ASSERT_EQ(h2.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(h2.bounds()[0], 1.0);

  // Empty bounds fall back to the default latency buckets.
  auto& hd = reg.histogram("lat_default");
  EXPECT_EQ(hd.bounds().size(), telemetry::default_ms_buckets().size());
}

TEST(Metrics, SnapshotIsSortedByName) {
  telemetry::MetricsRegistry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc(2);
  reg.gauge("mid").set(1.0);
  reg.histogram("hist_b").observe(1.0);
  reg.histogram("hist_a").observe(2.0);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "mid");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "hist_a");
  EXPECT_EQ(snap.histograms[1].name, "hist_b");

  reg.reset();
  const auto zeroed = reg.snapshot();
  EXPECT_EQ(zeroed.counters[0].value, 0u);
  EXPECT_EQ(zeroed.histograms[0].count, 0u);
}

TEST(Metrics, PrometheusExpositionIsCumulativeAndSanitized) {
  telemetry::MetricsRegistry reg;
  reg.counter("bad.name-1").inc(7);
  reg.gauge("g").set(0.5);
  const double bounds[] = {1.0, 2.0};
  auto& h = reg.histogram("lat_ms", bounds);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  const std::string text = telemetry::to_prometheus(reg.snapshot());
  // Invalid characters are replaced, not emitted.
  EXPECT_NE(text.find("bad_name_1 7"), std::string::npos);
  EXPECT_EQ(text.find("bad.name-1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bad_name_1 counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE g gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos);
  // Buckets are cumulative: 1, 2, 3 — and +Inf equals _count.
  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 3"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_sum 11"), std::string::npos);
}

TEST(Metrics, JsonExpositionHoldsAllThreeKinds) {
  telemetry::MetricsRegistry reg;
  reg.counter("c").inc(4);
  reg.gauge("g").set(1.25);
  const double bounds[] = {10.0};
  reg.histogram("h", bounds).observe(3.0);

  const std::string j = telemetry::to_json(reg.snapshot());
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"c\": 4"), std::string::npos);
  EXPECT_NE(j.find("\"g\": 1.25"), std::string::npos);
  EXPECT_NE(j.find("\"bounds\""), std::string::npos);
  EXPECT_NE(j.find("\"counts\""), std::string::npos);
}

TEST(Metrics, ConcurrentUpdatesLoseNothing) {
  telemetry::MetricsRegistry reg;
  auto& c = reg.counter("n");
  auto& h = reg.histogram("v");
  constexpr int kThreads = 4, kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(1.0);
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kIters);
}

// ------------------------------------------- numerics must not move at all ---

void expect_bitwise_equal(const da::Ensemble& a, const da::Ensemble& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t m = 0; m < a.size(); ++m) {
    const auto ra = a.member(m);
    const auto rb = b.member(m);
    EXPECT_EQ(0, std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)))
        << "member " << m << " differs";
  }
}

/// One localized LETKF analysis on a sparse strided network — the filter
/// whose hot path carries the densest instrumentation (phase clocks + chunk
/// spans), so it is where a telemetry branch would most plausibly leak into
/// the numbers.
da::Ensemble letkf_case(std::size_t n_threads) {
  const std::size_t nx = 8, ny = 8, nlev = 2;
  const std::size_t dim = nx * ny * nlev;
  const auto h = da::SubsampleObs::strided_grid(nx, ny, nlev, 2);
  da::DiagonalR r(h.obs_dim(), 0.01);

  std::vector<double> truth(dim);
  rng::Rng rng(55);
  rng.fill_gaussian(truth, 0.0, 2.0);
  da::Ensemble ens(10, dim);
  ens.init_perturbed(truth, 1.5, rng);

  std::vector<double> y(h.obs_dim());
  h.apply(truth, y);
  rng::Rng r_obs(56);
  r.perturb(y, r_obs);

  da::LetkfConfig lc;
  lc.nx = nx;
  lc.ny = ny;
  lc.n_levels = nlev;
  lc.domain_m = 8.0e6;
  lc.cutoff_m = 3.0e6;
  lc.n_threads = n_threads;
  da::LETKF letkf(lc);
  letkf.analyze(ens, y, h, r);
  return ens;
}

TEST(TelemetryNumerics, LetkfBitwiseIdenticalWithTracingOnOrOffAcrossThreads) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  const auto ref = letkf_case(1);
  for (std::size_t nt : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    tc.disable();
    tc.clear();
    expect_bitwise_equal(ref, letkf_case(nt));
    tc.clear();
    tc.enable();
    expect_bitwise_equal(ref, letkf_case(nt));
    tc.disable();
  }
  tc.clear();
}

/// Full streaming run (runner + pool + ETKF instrumentation) on Lorenz-96.
da::Ensemble realtime_case(std::size_t n_threads, stream::Schedule schedule, int cycles = 8,
                           std::size_t dim = 40) {
  models::Lorenz96Config mc;
  mc.dim = dim;
  mc.steps_per_window = 10;
  models::Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);
  da::ETKF filter(da::EtkfConfig{.rtps = 0.4});

  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.01;
  models::Lorenz96 spin(mc);
  for (int i = 0; i < 300; ++i) spin.step(truth0);

  stream::SyntheticStreamConfig sc;
  sc.seed = 2024;
  sc.latency_cycles = 0.3;
  sc.dropout_prob = 0.1;
  stream::SyntheticStream s(sc, truth_model, h, r, truth0);

  stream::RealtimeConfig rc;
  rc.n_members = 8;
  rc.cycles = cycles;
  rc.window_hours = 1.0;
  rc.init_spread = 1.0;
  rc.seed = 777;
  rc.deadline_slack_cycles = 0.5;
  rc.schedule = schedule;
  rc.n_forecast_threads = n_threads;
  stream::RealtimeRunner runner(rc, s, fcst_model, &filter);
  runner.run(truth0);
  return runner.ensemble();
}

TEST(TelemetryNumerics, RealtimeRunnerBitwiseIdenticalWithTracingOnOrOff) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  for (auto schedule : {stream::Schedule::Serial, stream::Schedule::Overlapped}) {
    tc.disable();
    tc.clear();
    const auto ref = realtime_case(1, schedule);
    for (std::size_t nt : {std::size_t{2}, std::size_t{4}}) {
      tc.disable();
      tc.clear();
      expect_bitwise_equal(ref, realtime_case(nt, schedule));
      tc.clear();
      tc.enable();
      expect_bitwise_equal(ref, realtime_case(nt, schedule));
      tc.disable();
    }
  }
  tc.clear();
}

// ------------------------------------------------------- overhead envelope ---

/// Disabled-tracing overhead guard. Two noisy end-to-end timings of the same
/// run would flake on a loaded CI box, so bound the product instead: measure
/// the per-span disabled cost in a tight loop, count how many spans one cycle
/// actually emits (from an enabled run of the identical configuration), and
/// require spans_per_cycle * cost_per_span <= 1% of the measured cycle time.
TEST(TelemetryOverhead, DisabledSpansCostUnderOnePercentOfACycle) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  constexpr int kCycles = 20;
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kThreads = 2;

  // (1) Wall time per cycle with tracing disabled — the production baseline.
  ASSERT_FALSE(telemetry::tracing_enabled());
  WallTimer t_run;
  realtime_case(kThreads, stream::Schedule::Serial, kCycles, kDim);
  const double cycle_ns = t_run.seconds() * 1e9 / kCycles;

  // (2) Spans one cycle emits, from an enabled run of the same config.
  tc.clear();
  tc.enable();
  realtime_case(kThreads, stream::Schedule::Serial, kCycles, kDim);
  tc.disable();
  std::uint64_t total_spans = 0;
  for (const auto& th : tc.snapshot()) total_spans += th.spans.size() + th.dropped;
  tc.clear();
  ASSERT_GT(total_spans, 0u);
  const double spans_per_cycle =
      static_cast<double>(total_spans) / static_cast<double>(kCycles);

  // (3) Per-span cost with tracing disabled: one relaxed load + branch.
  constexpr int kIters = 1 << 22;
  WallTimer t_span;
  for (int i = 0; i < kIters; ++i) {
    TURBDA_SPAN("overhead.probe");
    // Compiler barrier so the dead span is not hoisted out of the loop.
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  const double span_ns = t_span.seconds() * 1e9 / kIters;

  const double overhead_frac = spans_per_cycle * span_ns / cycle_ns;
  EXPECT_LE(overhead_frac, 0.01)
      << "disabled tracing costs " << 100.0 * overhead_frac << "% of a cycle ("
      << spans_per_cycle << " spans/cycle x " << span_ns << " ns/span vs " << cycle_ns
      << " ns/cycle)";
}

}  // namespace
}  // namespace turbda
