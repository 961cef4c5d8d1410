// Cycle benchmark harness: runs the full real-time assimilation cycle (SQG
// forecast -> QC -> LETKF or EnSF analysis) through the public
// stream::RealtimeRunner on one named workload, and writes a raw JSON record
// that cyclebench/run.py turns into the benchmark's metrics.
//
//   cyclebench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//              --out=<record.json> --workdir=<dir> [--smoke]
//
// Every workload is a closed loop: the runner takes window k+1 only after
// cycle k completes, and all observations (truth spin-up, nature run, wire
// capture) are generated before the timed repetitions start. A repetition
// builds the system from scratch, runs a fixed number of cycles from the
// same initial ensemble, and hashes the posterior mean after every cycle, so
// every repetition of a run must produce the same hashes (the repo's bitwise
// contract), and so must a short smoke run at one thread.
//
// Layers are timed from outside, by decorators around the public interfaces
// (ForecastModel::forecast_batch, Filter::prepare/try_analyze,
// ObservationStream::produce/collect). Spans are kept in memory and written
// into the record; no span is added inside the library.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "da/ensf.hpp"
#include "da/letkf.hpp"
#include "io/args.hpp"
#include "models/scaled_forecast.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "sqg/sqg.hpp"
#include "stream/faulty_stream.hpp"
#include "stream/ingest/ingest_stream.hpp"
#include "stream/ingest/tail_stream.hpp"
#include "stream/ingest/wire.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

#ifndef CYCLEBENCH_BUILD_TYPE
#define CYCLEBENCH_BUILD_TYPE "unknown"
#endif

using namespace turbda;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- workloads ---

struct Workload {
  std::string name;
  std::size_t n = 128;
  std::size_t members = 20;
  std::size_t stride = 8;  ///< observing network: every stride-th point per level
  double window_hours = 3.0;
  bool ensf = false;  ///< EnSF (stabilized) instead of LETKF
  stream::Schedule schedule = stream::Schedule::Serial;
  int overlap_depth = 1;
  std::size_t threads = 1;
  bool live = false;  ///< wire capture + faults + QC + checkpoints
  int cycles = 6;     ///< cycles per timed repetition
  int smoke_cycles = 2;
  double spinup_days = 2.0;
};

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "ref-serial-4t") {
    w.stride = 8;
    w.threads = 4;
    w.cycles = 6;
    w.smoke_cycles = 1;
  } else if (name == "sparse-6h-1t") {
    w.stride = 16;
    w.window_hours = 6.0;
    w.threads = 1;
    w.cycles = 3;
  } else if (name == "live-ensf-4t" || name == "live-letkf-4t") {
    // The live path; the two differ only in the analysis.
    w.n = 64;
    w.stride = 4;
    w.ensf = name == "live-ensf-4t";
    w.schedule = stream::Schedule::Overlapped;
    w.overlap_depth = 2;
    w.threads = 4;
    w.live = true;
    w.cycles = 16;
    w.smoke_cycles = 4;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  if (smoke) {
    // Same layers and schedule at a size that runs in seconds.
    w.n = 32;
    w.members = 8;
    w.stride = std::min<std::size_t>(w.stride, 4);
    w.cycles = w.live ? 6 : 3;
    w.spinup_days = 1.0;
  }
  return w;
}

// Initial ensemble-mean error against the truth, K RMS (all workloads).
constexpr double kInitialErrorK = 3.0;

// Live-feed parameters (live workloads only).
constexpr double kLatencyCycles = 1.0;   // delivery latency 1.5 +- 0.5 windows:
constexpr double kJitterCycles = 1.0;    //   1.0 + U[0, 1.0)
constexpr double kDeadlineSlack = 1.0;   // every batch lands one cycle late...
constexpr int kMaxStale = 0;             // ...and only the depth-2 ring admits it
constexpr double kCorruptFrameFrac = 0.1;

// Set-up probes per run, after one unrecorded warm-up probe: at least
// kSetupProbes, and more until kSetupProbeSeconds are used (a set-up of a few
// milliseconds needs many samples for a steady median), at most kMaxSetupProbes.
constexpr int kSetupProbes = 8;
constexpr double kSetupProbeSeconds = 2.0;
constexpr int kMaxSetupProbes = 200;

sqg::SqgConfig sqg_config(std::size_t n) {
  sqg::SqgConfig mc;
  mc.n = n;
  mc.dt = (n <= 32) ? 1800.0 : 900.0;
  mc.t_diab = 2.0 * 86400.0;
  mc.r_ekman = 200.0;
  mc.diff_efold = 3.0 * 3600.0;
  return mc;
}

// ------------------------------------------------------- span recording ---

struct Span {
  std::string name;
  int tid = 0;
  double t0 = 0.0, t1 = 0.0;  ///< seconds since the repetition started
  int cycle = -1;             ///< window index the call belongs to (-1: none)
};

/// In-memory span and event store for one repetition. Thread ids are small
/// integers in order of first appearance (0 = the thread that ran run()).
class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing), origin_(Clock::now()) {
    tid_of(std::this_thread::get_id());
  }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  void span(std::string name, double t0, double t1, int cycle) {
    if (!tracing_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(name), tid_of(std::this_thread::get_id()), t0, t1, cycle});
  }

  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  int tid_of(std::thread::id id) {
    auto it = tids_.find(id);
    if (it != tids_.end()) return it->second;
    const int t = static_cast<int>(tids_.size());
    tids_.emplace(id, t);
    return t;
  }

  bool tracing_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards spans_ and tids_
  std::vector<Span> spans_;
  std::unordered_map<std::thread::id, int> tids_;
};

/// Thrown by the forecast decorator to end a set-up probe at the first
/// forecast_batch call (set-up is complete there by definition).
struct SetupProbeDone {};

class TracedForecast final : public models::ForecastModel {
 public:
  TracedForecast(models::ForecastModel& inner, Recorder& rec, std::uint64_t steps_per_window,
                 bool setup_probe)
      : inner_(inner), rec_(rec), steps_(steps_per_window), probe_(setup_probe) {}

  [[nodiscard]] std::size_t dim() const override { return inner_.dim(); }
  void forecast(std::span<double> state) override { forecast_batch(state, 1); }
  void forecast_batch(std::span<double> states, std::size_t count) override {
    const double t0 = rec_.now();
    double expected = -1.0;
    first_call_.compare_exchange_strong(expected, t0);
    if (probe_) throw SetupProbeDone{};
    inner_.forecast_batch(states, count);
    const double t1 = rec_.now();
    member_steps_.fetch_add(count * steps_, std::memory_order_relaxed);
    rec_.span("sqg.forecast_batch", t0, t1, -1);
  }
  [[nodiscard]] bool concurrent_safe() const override { return inner_.concurrent_safe(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] double first_call() const { return first_call_.load(); }
  [[nodiscard]] std::uint64_t member_steps() const { return member_steps_.load(); }

 private:
  models::ForecastModel& inner_;
  Recorder& rec_;
  std::uint64_t steps_;
  bool probe_;
  std::atomic<double> first_call_{-1.0};
  std::atomic<std::uint64_t> member_steps_{0};
};

/// Exact per-repetition work counters of the analysis layer.
struct FilterCounters {
  std::uint64_t analyze_calls = 0;
  std::uint64_t failed_calls = 0;
  std::uint64_t obs_checked = 0;      ///< observation values handed to try_analyze
  std::uint64_t obs_assimilated = 0;  ///< obs_total - obs_masked over ok calls
  std::uint64_t fallback_columns = 0;
  std::uint64_t solver_failures = 0;
  std::uint64_t columns = 0;  ///< state columns analysed (dim per ok call)
};

class TracedFilter final : public da::Filter {
 public:
  TracedFilter(da::Filter& inner, Recorder& rec, std::string layer)
      : inner_(inner), rec_(rec), layer_(std::move(layer)) {}

  void prepare(const da::ObservationOperator& h, const da::DiagonalR& r) override {
    const double t0 = rec_.now();
    inner_.prepare(h, r);
    prepare_s_ = rec_.now() - t0;
    rec_.span(layer_ + ".prepare", t0, t0 + prepare_s_, -1);
  }
  void analyze(da::Ensemble& ens, std::span<const double> y, const da::ObservationOperator& h,
               const da::DiagonalR& r) override {
    const Status s = try_analyze(ens, y, h, r);
    TURBDA_REQUIRE(s.ok(), "analysis failed — " << s.to_string());
  }
  Status try_analyze(da::Ensemble& ens, std::span<const double> y,
                     const da::ObservationOperator& h, const da::DiagonalR& r,
                     const da::AnalysisOptions& opts = {},
                     da::AnalysisStats* stats = nullptr) override {
    da::AnalysisStats local;
    da::AnalysisStats* st = stats != nullptr ? stats : &local;
    const double t0 = rec_.now();
    const Status s = inner_.try_analyze(ens, y, h, r, opts, st);
    const double t1 = rec_.now();
    rec_.span(layer_ + ".analyze", t0, t1, -1);
    std::lock_guard<std::mutex> lk(mu_);
    ++c_.analyze_calls;
    c_.obs_checked += y.size();
    if (!s.ok()) {
      ++c_.failed_calls;
    } else {
      c_.obs_assimilated += st->obs_total - st->obs_masked;
      c_.fallback_columns += st->fallback_columns;
      c_.solver_failures += st->solver_failures;
      c_.columns += ens.dim();
    }
    return s;
  }
  bool save_state(std::vector<std::uint8_t>& out) const override { return inner_.save_state(out); }
  bool restore_state(std::span<const std::uint8_t> in) override {
    return inner_.restore_state(in);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] FilterCounters counters() const {
    std::lock_guard<std::mutex> lk(mu_);
    return c_;
  }
  [[nodiscard]] double prepare_s() const { return prepare_s_; }

 private:
  da::Filter& inner_;
  Recorder& rec_;
  std::string layer_;
  double prepare_s_ = 0.0;
  mutable std::mutex mu_;  ///< guards c_ (staged analyses run on pool threads)
  FilterCounters c_;
};

/// One collect() call as seen from outside: the cycle it served and the
/// batches it handed to the runner.
struct CollectEvent {
  int cycle = 0;
  double t0 = 0.0;
  std::vector<std::pair<int, bool>> batches;  ///< (window, full shape)
};

class TracedStream final : public stream::ObservationStream {
 public:
  TracedStream(stream::ObservationStream& inner, Recorder& rec, double slack, int cycles)
      : inner_(inner),
        rec_(rec),
        slack_(slack),
        produce_ret_(static_cast<std::size_t>(cycles), -1.0),
        cycle_start_(static_cast<std::size_t>(cycles), -1.0) {}

  [[nodiscard]] std::size_t obs_dim() const override { return inner_.obs_dim(); }
  [[nodiscard]] const da::ObservationOperator& h() const override { return inner_.h(); }
  [[nodiscard]] const da::DiagonalR& r() const override { return inner_.r(); }
  /// The runner asks for window k's truth first thing in cycle k's body, so
  /// the first call per window timestamps the start of that body.
  [[nodiscard]] std::span<const double> truth(int cycle) const override {
    const double t = rec_.now();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (cycle >= 0 && static_cast<std::size_t>(cycle) < cycle_start_.size() &&
          cycle_start_[static_cast<std::size_t>(cycle)] < 0.0)
        cycle_start_[static_cast<std::size_t>(cycle)] = t;
    }
    return inner_.truth(cycle);
  }
  bool save_state(std::vector<std::uint8_t>& out) const override { return inner_.save_state(out); }
  bool restore_state(std::span<const std::uint8_t> in) override {
    return inner_.restore_state(in);
  }
  [[nodiscard]] IngestCounters ingest_counters() const override {
    return inner_.ingest_counters();
  }

  void produce(int cycle) override {
    const double t0 = rec_.now();
    inner_.produce(cycle);
    const double t1 = rec_.now();
    rec_.span("stream.produce", t0, t1, cycle);
    std::lock_guard<std::mutex> lk(mu_);
    if (cycle >= 0 && static_cast<std::size_t>(cycle) < produce_ret_.size())
      produce_ret_[static_cast<std::size_t>(cycle)] = t1;
  }

  void collect(double now_cycles, std::vector<stream::ObsBatch>& out) override {
    const std::size_t first = out.size();
    const double t0 = rec_.now();
    inner_.collect(now_cycles, out);
    const double t1 = rec_.now();
    // The runner collects for cycle k at now = k + 1 + deadline slack.
    const int cycle = static_cast<int>(std::lround(now_cycles - 1.0 - slack_));
    rec_.span("stream.collect", t0, t1, cycle);
    CollectEvent ev{cycle, t0, {}};
    for (std::size_t i = first; i < out.size(); ++i)
      ev.batches.emplace_back(out[i].cycle, out[i].y.size() == inner_.obs_dim());
    std::lock_guard<std::mutex> lk(mu_);
    collects_.push_back(std::move(ev));
  }

  [[nodiscard]] std::vector<double> produce_returns() const {
    std::lock_guard<std::mutex> lk(mu_);
    return produce_ret_;
  }
  [[nodiscard]] std::vector<CollectEvent> collects() const {
    std::lock_guard<std::mutex> lk(mu_);
    return collects_;
  }
  [[nodiscard]] std::vector<double> cycle_starts() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cycle_start_;
  }

 private:
  stream::ObservationStream& inner_;
  Recorder& rec_;
  double slack_;
  mutable std::mutex mu_;  ///< produce() may run on a pool thread
  std::vector<double> produce_ret_;
  mutable std::vector<double> cycle_start_;
  std::vector<CollectEvent> collects_;
};

// ---------------------------------------------------------- load inputs ---

/// Everything generated before the timed run: the spun-up truth, the nature
/// run's per-window truth and observation batches, and (live workloads) the
/// wire capture on disk.
struct Nature {
  std::vector<double> truth0;
  /// Centre of the initial ensemble: truth0 displaced towards an
  /// independently spun-up state, so the first prior carries a realistic,
  /// large-scale mean error the filter must remove.
  std::vector<double> base;
  std::vector<std::vector<double>> truth;       ///< truth at the end of window k
  std::vector<stream::ObsBatch> batches;        ///< instant-delivery batch per window
  std::unique_ptr<da::SubsampleObs> h;
  std::unique_ptr<da::DiagonalR> r;
  double kelvin = 1.0;
  std::uint64_t seed = 0;
  // Live capture.
  std::string capture_path;
  std::uint64_t capture_bytes = 0;
  std::uint64_t obs_frames_sent = 0;      ///< obs frames on the wire, damaged copies included
  std::uint64_t frames_damaged = 0;       ///< frames written with a flipped payload byte
  stream::FaultCounters faults;
  double gen_s = 0.0;
};

/// In-memory replay of pre-generated batches with instant delivery.
class ReplayStream final : public stream::ObservationStream {
 public:
  explicit ReplayStream(const Nature& nat) : nat_(nat) {}

  [[nodiscard]] std::size_t obs_dim() const override { return nat_.h->obs_dim(); }
  [[nodiscard]] const da::ObservationOperator& h() const override { return *nat_.h; }
  [[nodiscard]] const da::DiagonalR& r() const override { return *nat_.r; }
  void produce(int cycle) override {
    TURBDA_REQUIRE(cycle >= 0 && static_cast<std::size_t>(cycle) < nat_.batches.size(),
                   "replay: window " << cycle << " was not generated");
    std::lock_guard<std::mutex> lk(mu_);
    pending_.push_back(nat_.batches[static_cast<std::size_t>(cycle)]);
  }
  void collect(double now_cycles, std::vector<stream::ObsBatch>& out) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = std::stable_partition(pending_.begin(), pending_.end(), [&](const auto& b) {
      return b.arrival_cycles > now_cycles;
    });
    for (auto p = it; p != pending_.end(); ++p) out.push_back(std::move(*p));
    pending_.erase(it, pending_.end());
  }
  [[nodiscard]] std::span<const double> truth(int cycle) const override {
    if (cycle < 0 || static_cast<std::size_t>(cycle) >= nat_.truth.size()) return {};
    return nat_.truth[static_cast<std::size_t>(cycle)];
  }

 private:
  const Nature& nat_;
  std::mutex mu_;  ///< guards pending_
  std::vector<stream::ObsBatch> pending_;
};

/// Appends one window's wire traffic: each released batch, the window's
/// truth, and the heartbeat that publishes it. A seeded coin puts a damaged
/// copy (flipped payload byte, CRC must refuse it) ahead of some frames; the
/// clean frame follows, so corruption costs decoding work, not data.
void encode_window(stream::ObservationStream& s, int w, rng::Rng& wire_rng, std::uint64_t& seq,
                   Nature& nat, std::vector<std::uint8_t>& out) {
  std::vector<stream::ObsBatch> got;
  s.collect(std::numeric_limits<double>::infinity(), got);
  std::vector<std::pair<bool, std::vector<std::uint8_t>>> frames;  // (is obs, bytes)
  for (const auto& b : got) {
    frames.emplace_back(true, std::vector<std::uint8_t>{});
    stream::ingest::encode_obs_frame(b, frames.back().second);
  }
  frames.emplace_back(false, std::vector<std::uint8_t>{});
  stream::ingest::encode_truth_frame(w, s.truth(w), frames.back().second);
  frames.emplace_back(false, std::vector<std::uint8_t>{});
  stream::ingest::encode_heartbeat_frame(w, seq++, frames.back().second);
  for (const auto& [is_obs, f] : frames) {
    if (wire_rng.bernoulli(kCorruptFrameFrac)) {
      std::vector<std::uint8_t> bad = f;
      bad[stream::ingest::kWireHeaderBytes + 1] ^= 0x5A;
      out.insert(out.end(), bad.begin(), bad.end());
      ++nat.frames_damaged;
      if (is_obs) ++nat.obs_frames_sent;
    }
    out.insert(out.end(), f.begin(), f.end());
    if (is_obs) ++nat.obs_frames_sent;
  }
}

Nature generate_nature(const Workload& w, std::uint64_t seed, const std::string& workdir) {
  const auto t0 = Clock::now();
  Nature nat;
  nat.seed = seed;
  auto model = std::make_shared<sqg::SqgModel>(sqg_config(w.n));
  nat.kelvin = models::sqg_kelvin_scale(300.0, model->config().f);

  rng::Rng rng(seed);
  std::vector<double> raw(model->dim());
  model->random_init(raw, rng, 2.0 / nat.kelvin, 4);
  model->advance(raw, w.spinup_days * 86400.0);
  nat.truth0.resize(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) nat.truth0[i] = raw[i] * nat.kelvin;
  {
    rng::Rng rb = rng.substream(7);
    std::vector<double> b(model->dim());
    model->random_init(b, rb, 2.0 / nat.kelvin, 4);
    model->advance(b, w.spinup_days * 86400.0);
    // Scale the offset so the initial mean error is kInitialErrorK RMS for
    // every seed: the error pattern varies with the seed, its size does not.
    double d2 = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = b[i] * nat.kelvin - nat.truth0[i];
      d2 += b[i] * b[i];
    }
    const double scale = kInitialErrorK / std::sqrt(d2 / static_cast<double>(b.size()));
    nat.base.resize(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) nat.base[i] = nat.truth0[i] + scale * b[i];
  }

  nat.h = std::make_unique<da::SubsampleObs>(da::SubsampleObs::strided_grid(w.n, w.n, 2, w.stride));
  nat.r = std::make_unique<da::DiagonalR>(nat.h->obs_dim(), 1.0);

  sqg::SqgForecast truth_raw(model, w.window_hours * 3600.0);
  models::ScaledForecast truth_model(truth_raw, nat.kelvin);
  stream::SyntheticStreamConfig sc;
  sc.seed = seed;
  if (w.live) {
    sc.latency_cycles = kLatencyCycles;
    sc.jitter_cycles = kJitterCycles;
  }
  stream::SyntheticStream syn(sc, truth_model, *nat.h, *nat.r, nat.truth0);

  if (!w.live) {
    for (int k = 0; k < w.cycles; ++k) {
      syn.produce(k);
      std::vector<stream::ObsBatch> got;
      syn.collect(std::numeric_limits<double>::infinity(), got);
      TURBDA_REQUIRE(got.size() == 1 && got[0].cycle == k, "nature run: expected one batch");
      nat.batches.push_back(std::move(got[0]));
      const auto tr = syn.truth(k);
      nat.truth.emplace_back(tr.begin(), tr.end());
    }
  } else {
    stream::FaultConfig fc;
    fc.seed = seed + 9001;
    fc.nan_prob = 0.002;
    fc.outlier_prob = 0.002;
    fc.duplicate_prob = 0.1;
    // No truncation: a truncated batch without a later full copy loses its
    // window, that cycle then has no analysis, and obs_to_analysis for the
    // windows around it would depend on the seed's loss pattern.
    stream::FaultyStream faulty(fc, syn);
    rng::Rng wire_rng = rng::Rng(seed).substream(13);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> bytes;
    for (int k = 0; k < w.cycles; ++k) {
      faulty.produce(k);
      encode_window(faulty, k, wire_rng, seq, nat, bytes);
    }
    nat.faults = faulty.counters();
    nat.capture_path = (fs::path(workdir) / "capture.bin").string();
    std::ofstream f(nat.capture_path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    TURBDA_REQUIRE(f.good(), "cannot write the wire capture " << nat.capture_path);
    nat.capture_bytes = bytes.size();
  }
  nat.gen_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return nat;
}

// ------------------------------------------------------------ one run ---

std::uint64_t fnv1a(std::span<const double> v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct RepResult {
  bool traced = false;
  double setup_s = 0.0;  ///< construction start -> first forecast_batch call
  double run_s = 0.0;    ///< the whole run() call
  double run_t0 = 0.0;   ///< run() call, seconds since construction start
  std::vector<double> hook_t;
  std::vector<std::uint64_t> hook_hash;
  std::vector<std::uint64_t> pool_busy_ns, pool_tasks;  ///< global pool stats at each hook
  std::vector<double> produce_ret;
  std::vector<double> cycle_start;  ///< first truth(k) call: start of cycle k's body
  std::vector<CollectEvent> collects;
  std::vector<stream::StreamCycleMetrics> metrics;
  std::vector<Span> spans;
  FilterCounters fc;
  double prepare_s = 0.0;
  std::uint64_t member_steps = 0;
  std::optional<da::LetkfTimings> letkf;
  std::optional<stream::ingest::IngestStats> ingest;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_writes = 0;
};

/// Builds the system from scratch and runs `cycles` windows at `threads`.
/// With `setup_probe`, stops at the first forecast call and returns only the
/// set-up time.
RepResult run_rep(const Workload& w, const Nature& nat, int cycles, std::size_t threads,
                  bool trace, bool setup_probe, const std::string& workdir) {
  RepResult res;
  res.traced = trace;
  Recorder rec(trace);  // construction starts here

  auto model = std::make_shared<sqg::SqgModel>(sqg_config(w.n));
  const double window_s = w.window_hours * 3600.0;
  sqg::SqgForecast fcst_raw(model, window_s);
  models::ScaledForecast fcst_scaled(fcst_raw, nat.kelvin);
  const auto steps = static_cast<std::uint64_t>(std::ceil(window_s / model->config().dt - 1e-9));
  TracedForecast fcst(fcst_scaled, rec, steps, setup_probe);

  std::unique_ptr<da::Filter> inner_filter;
  da::LETKF* letkf = nullptr;
  if (w.ensf) {
    da::EnsfConfig ec = da::EnsfConfig::stabilized();
    ec.n_threads = threads;
    inner_filter = std::make_unique<da::EnSF>(ec);
  } else {
    da::LetkfConfig lc;
    lc.nx = w.n;
    lc.ny = w.n;
    lc.n_levels = 2;
    lc.domain_m = model->config().L;
    lc.cutoff_m = 2.0e6;
    lc.rtps = 0.3;
    lc.rossby_radius_m = std::sqrt(model->config().nsq) * model->config().H / model->config().f;
    lc.n_threads = threads;
    lc.collect_timings = trace;  // phase clocks only in the traced run
    auto lf = std::make_unique<da::LETKF>(lc);
    letkf = lf.get();
    inner_filter = std::move(lf);
  }
  TracedFilter filter(*inner_filter, rec, w.ensf ? "da.ensf" : "da.letkf");

  std::unique_ptr<stream::ObservationStream> source;
  stream::ingest::IngestStream* ingest = nullptr;
  if (w.live) {
    stream::ingest::TailStreamConfig tc;
    tc.path = nat.capture_path;
    tc.stop_at_eof = true;
    stream::ingest::IngestStreamConfig ic;
    ic.read_timeout_ms = 5;
    ic.stale_after_ms = 1000;
    ic.produce_timeout_ms = 30000;
    auto is = std::make_unique<stream::ingest::IngestStream>(
        ic, std::make_unique<stream::ingest::TailStream>(tc), *nat.h, *nat.r);
    ingest = is.get();
    source = std::move(is);
  } else {
    source = std::make_unique<ReplayStream>(nat);
  }
  const double slack = w.live ? kDeadlineSlack : 0.0;
  TracedStream obs(*source, rec, slack, cycles);

  stream::RealtimeConfig rc;
  rc.n_members = w.members;
  rc.cycles = cycles;
  rc.window_hours = w.window_hours;
  rc.init_spread = 1.5;
  rc.seed = nat.seed;  // initial ensemble; the stream used the same seed
  rc.n_forecast_threads = threads;
  rc.schedule = w.schedule;
  rc.overlap_depth = w.overlap_depth;
  rc.deadline_slack_cycles = slack;
  const std::string ckpt = (fs::path(workdir) / "checkpoint.bin").string();
  if (w.live) {
    rc.max_stale_cycles = kMaxStale;
    rc.qc.enabled = true;
    rc.qc.finite_check = true;
    rc.qc.clim_min = -60.0;
    rc.qc.clim_max = 60.0;
    rc.qc.bg_sigma = 4.0;
    rc.checkpoint_path = ckpt;
    rc.checkpoint_every = 1;
  }

  stream::RealtimeRunner runner(rc, obs, fcst, &filter);
  runner.set_post_analysis_hook([&](int, std::span<const double> mean) {
    res.hook_t.push_back(rec.now());
    res.hook_hash.push_back(fnv1a(mean));
    const auto ps = parallel::global_pool().stats();
    res.pool_busy_ns.push_back(ps.busy_ns);
    res.pool_tasks.push_back(ps.tasks_executed);
    if (w.live && fs::exists(ckpt)) {
      std::error_code ec;
      const auto sz = fs::file_size(ckpt, ec);
      if (!ec) res.checkpoint_bytes = sz;
    }
  });

  // Pool counters at the run start, so the first hook interval diffs too.
  const auto ps0 = parallel::global_pool().stats();
  res.pool_busy_ns.push_back(ps0.busy_ns);
  res.pool_tasks.push_back(ps0.tasks_executed);
  res.run_t0 = rec.now();
  try {
    res.metrics = runner.run(nat.base);
  } catch (const SetupProbeDone&) {
    TURBDA_REQUIRE(setup_probe, "set-up probe escaped a timed run");
  }
  res.run_s = rec.now() - res.run_t0;
  res.setup_s = fcst.first_call();
  TURBDA_REQUIRE(res.setup_s > 0.0, "no forecast call observed");
  if (setup_probe) return res;

  res.produce_ret = obs.produce_returns();
  res.collects = obs.collects();
  res.cycle_start = obs.cycle_starts();
  res.spans = rec.spans();
  res.fc = filter.counters();
  res.prepare_s = filter.prepare_s();
  res.member_steps = fcst.member_steps();
  if (letkf != nullptr) res.letkf = letkf->timings();
  if (ingest != nullptr) res.ingest = ingest->stats();
  for (const auto& m : res.metrics) res.checkpoint_writes += m.checkpoint_ms > 0.0 ? 1 : 0;
  TURBDA_REQUIRE(runner.last_checkpoint_status().ok(),
                 "checkpoint write failed — " << runner.last_checkpoint_status().to_string());
  std::error_code ec;
  fs::remove(ckpt, ec);
  return res;
}

// ------------------------------------------------------------- output ---

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Minimal JSON writer: values are appended in order; the caller supplies
/// the structure.
class Json {
 public:
  Json& raw(const std::string& s) {
    sep();
    os_ << s;
    return *this;
  }
  Json& key(const std::string& k) {
    sep();
    os_ << '"' << k << "\":";
    pending_value_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    if (std::isfinite(v)) {
      os_.precision(17);
      os_ << v;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    os_ << v;
    return *this;
  }
  Json& num(int v) {
    sep();
    os_ << v;
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    os_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    os_ << '"';
    return *this;
  }
  Json& boolean(bool b) {
    sep();
    os_ << (b ? "true" : "false");
    return *this;
  }
  Json& open(char c) {
    sep();
    os_ << c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string text() const { return os_.str(); }

 private:
  void sep() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_) os_ << ',';
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
  bool pending_value_ = false;
};

void write_rep(Json& j, const RepResult& r) {
  j.open('{');
  j.key("traced").boolean(r.traced);
  j.key("setup_s").num(r.setup_s);
  j.key("run_s").num(r.run_s);
  j.key("run_t0").num(r.run_t0);
  j.key("prepare_s").num(r.prepare_s);
  j.key("hook_t").open('[');
  for (double t : r.hook_t) j.num(t);
  j.close(']');
  j.key("hook_hash").open('[');
  for (auto h : r.hook_hash) j.str(hex(h));
  j.close(']');
  j.key("pool_busy_ns").open('[');
  for (auto v : r.pool_busy_ns) j.num(v);
  j.close(']');
  j.key("pool_tasks").open('[');
  for (auto v : r.pool_tasks) j.num(v);
  j.close(']');
  j.key("produce_ret").open('[');
  for (double t : r.produce_ret) j.num(t);
  j.close(']');
  j.key("cycle_start").open('[');
  for (double t : r.cycle_start) j.num(t);
  j.close(']');
  j.key("collects").open('[');
  for (const auto& c : r.collects) {
    j.open('{');
    j.key("cycle").num(c.cycle);
    j.key("t0").num(c.t0);
    j.key("batches").open('[');
    for (const auto& [k, full] : c.batches) {
      j.open('[');
      j.num(k);
      j.boolean(full);
      j.close(']');
    }
    j.close(']');
    j.close('}');
  }
  j.close(']');
  j.key("cycles").open('[');
  for (const auto& m : r.metrics) {
    j.open('{');
    j.key("cycle").num(m.cycle);
    j.key("rmse_prior").num(m.rmse_prior);
    j.key("rmse_post").num(m.rmse_post);
    j.key("batches_assimilated").num(m.batches_assimilated);
    j.key("late_applied").num(m.late_applied);
    j.key("deadline_miss").boolean(m.deadline_miss);
    j.key("obs_rejected").num(m.obs_rejected);
    j.key("qc_ms").num(m.qc_ms);
    j.key("cycle_ms").num(m.cycle_ms);
    j.key("checkpoint_ms").num(m.checkpoint_ms);
    j.close('}');
  }
  j.close(']');
  j.key("counters").open('{');
  j.key("member_steps").num(r.member_steps);
  j.key("analyze_calls").num(r.fc.analyze_calls);
  j.key("analyze_failed").num(r.fc.failed_calls);
  j.key("obs_checked").num(r.fc.obs_checked);
  j.key("obs_assimilated").num(r.fc.obs_assimilated);
  j.key("fallback_columns").num(r.fc.fallback_columns);
  j.key("solver_failures").num(r.fc.solver_failures);
  j.key("columns").num(r.fc.columns);
  int qc_rej = 0;
  for (const auto& m : r.metrics) qc_rej += m.obs_rejected;
  j.key("qc_rejected").num(qc_rej);
  j.key("checkpoint_writes").num(r.checkpoint_writes);
  j.key("checkpoint_bytes").num(r.checkpoint_bytes);
  if (r.ingest) {
    j.key("ingest_frames_decoded").num(r.ingest->wire.frames_decoded);
    j.key("ingest_frames_corrupt").num(r.ingest->wire.frames_corrupt);
    j.key("ingest_frames_resynced").num(r.ingest->wire.frames_resynced);
    j.key("ingest_duplicates_dropped").num(r.ingest->duplicates_dropped);
    j.key("ingest_queue_drops").num(r.ingest->queue_drops);
  }
  j.close('}');
  if (r.letkf) {
    const auto& t = *r.letkf;
    j.key("letkf").open('{');
    j.key("plan_ms").num(t.plan_ms);
    j.key("select_ms").num(t.select_ms);
    j.key("gather_ms").num(t.gather_ms);
    j.key("gram_ms").num(t.gram_ms);
    j.key("eigh_ms").num(t.eigh_ms);
    j.key("weights_ms").num(t.weights_ms);
    j.key("combine_ms").num(t.combine_ms);
    j.key("analyses").num(static_cast<std::uint64_t>(t.analyses));
    j.key("columns").num(static_cast<std::uint64_t>(t.columns));
    j.key("groups").num(static_cast<std::uint64_t>(t.groups));
    j.key("batched_columns").num(static_cast<std::uint64_t>(t.batched_columns));
    j.close('}');
  }
  j.key("spans").open('[');
  for (const auto& s : r.spans) {
    j.open('[');
    j.str(s.name);
    j.num(s.tid);
    j.num(s.t0);
    j.num(s.t1);
    j.num(s.cycle);
    j.close(']');
  }
  j.close(']');
  j.close('}');
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(line.find_first_not_of(' ', p + 1));
    }
  }
  return "unknown";
}

/// CPUs this process may run on (what `nproc` prints).
unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  const std::string name = args.get_str("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const bool smoke = args.flag("smoke");
  const std::string out_path = args.get_str("out", "");
  const std::string workdir = args.get_str("workdir", "");
  if (name.empty() || out_path.empty() || workdir.empty()) {
    std::cerr << "usage: cyclebench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>\n"
                 "                  --out=<record.json> --workdir=<dir> [--smoke]\n";
    return 2;
  }
  try {
    const Workload w = make_workload(name, smoke);
    const unsigned nproc = available_cpus();
    if (w.threads > nproc) {
      std::cerr << "cyclebench: workload " << w.name << " needs " << w.threads
                << " threads but this machine has " << nproc
                << "; refusing to run oversubscribed\n";
      return 3;
    }
    fs::create_directories(workdir);

    std::cerr << "[cyclebench] " << w.name << " seed=" << seed << ": generating inputs\n";
    const Nature nat = generate_nature(w, seed, workdir);

    // Smoke run at one thread: its per-cycle posterior hashes must match the
    // timed runs' (Serial: every cycle; Overlapped: every cycle before the
    // smoke run's synchronous drain).
    std::optional<RepResult> smoke_rep;
    if (w.threads != 1) {
      std::cerr << "[cyclebench] smoke run at 1 thread (" << w.smoke_cycles << " cycles)\n";
      smoke_rep = run_rep(w, nat, w.smoke_cycles, 1, false, false, workdir);
    }

    // Set-up probes; the first is a warm-up that pays the process's one-time
    // costs (pool threads, first-touch allocations) and is not recorded.
    std::vector<double> probe_setup;
    run_rep(w, nat, w.cycles, w.threads, false, true, workdir);
    const auto t_probe = Clock::now();
    while (probe_setup.size() < static_cast<std::size_t>(kMaxSetupProbes) &&
           (probe_setup.size() < static_cast<std::size_t>(kSetupProbes) ||
            std::chrono::duration<double>(Clock::now() - t_probe).count() < kSetupProbeSeconds))
      probe_setup.push_back(run_rep(w, nat, w.cycles, w.threads, false, true, workdir).setup_s);

    std::vector<RepResult> reps;
    const auto t_start = Clock::now();
    std::vector<double> rep_wall;
    for (;;) {
      const bool traced_rep = trace && (reps.size() % 2 == 1);
      const auto t0 = Clock::now();
      reps.push_back(run_rep(w, nat, w.cycles, w.threads, traced_rep, false, workdir));
      rep_wall.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
      const double elapsed = std::chrono::duration<double>(Clock::now() - t_start).count();
      // Stop where the next repetition would end more than half of it past
      // --seconds, so a run measures about --seconds on average.
      const std::size_t min_reps = trace ? 2 : 1;
      if (reps.size() >= min_reps && elapsed + 0.5 * median(rep_wall) > seconds) break;
    }
    const double measured_s = std::chrono::duration<double>(Clock::now() - t_start).count();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    Json j;
    j.open('{');
    j.key("meta").open('{');
    j.key("workload").str(w.name);
    j.key("seed").num(seed);
    j.key("smoke").boolean(smoke);
    j.key("trace").boolean(trace);
    j.key("cpu_model").str(cpu_model());
    j.key("nproc").num(static_cast<std::uint64_t>(nproc));
    j.key("pool_workers").num(static_cast<std::uint64_t>(parallel::global_pool().size()));
    j.key("simd_level").str(simd::simd_level_name(simd::active_simd_level()));
    j.key("threads").num(static_cast<std::uint64_t>(w.threads));
    j.key("build_type").str(CYCLEBENCH_BUILD_TYPE);
    j.close('}');
    j.key("config").open('{');
    j.key("n").num(static_cast<std::uint64_t>(w.n));
    j.key("members").num(static_cast<std::uint64_t>(w.members));
    j.key("stride").num(static_cast<std::uint64_t>(w.stride));
    j.key("obs_dim").num(static_cast<std::uint64_t>(nat.h->obs_dim()));
    j.key("state_dim").num(static_cast<std::uint64_t>(nat.truth0.size()));
    j.key("window_hours").num(w.window_hours);
    j.key("filter").str(w.ensf ? "ensf" : "letkf");
    j.key("schedule").str(w.schedule == stream::Schedule::Serial ? "serial" : "overlapped");
    j.key("overlap_depth").num(w.overlap_depth);
    j.key("live").boolean(w.live);
    j.key("cycles").num(w.cycles);
    j.key("smoke_cycles").num(w.smoke_cycles);
    j.key("deadline_slack").num(w.live ? kDeadlineSlack : 0.0);
    // Final windows whose batch cannot arrive by the last analysis point.
    j.key("undue_tail_windows")
        .num(w.live ? static_cast<int>(std::ceil(kLatencyCycles + kJitterCycles - kDeadlineSlack))
                    : 0);
    if (w.ensf) {
      const auto ec = da::EnsfConfig::stabilized();
      j.key("ensf_euler_steps").num(ec.euler_steps);
      j.key("ensf_minibatch").num(ec.minibatch);
    }
    j.close('}');
    j.key("load").open('{');
    j.key("gen_s").num(nat.gen_s);
    j.key("capture_bytes").num(nat.capture_bytes);
    j.key("obs_frames_sent").num(nat.obs_frames_sent);
    j.key("frames_damaged").num(nat.frames_damaged);
    j.key("fault_nan").num(nat.faults.nan_values);
    j.key("fault_outliers").num(nat.faults.outlier_values);
    j.key("fault_duplicated").num(nat.faults.batches_duplicated);
    j.key("fault_truncated").num(nat.faults.batches_truncated);
    j.close('}');
    j.key("measured_s").num(measured_s);
    j.key("peak_rss_kb").num(static_cast<std::uint64_t>(ru.ru_maxrss));
    j.key("setup_probe_s").open('[');
    for (double s : probe_setup) j.num(s);
    j.close(']');
    j.key("smoke");
    if (smoke_rep)
      write_rep(j, *smoke_rep);
    else
      j.raw("null");
    j.key("reps").open('[');
    for (const auto& r : reps) write_rep(j, r);
    j.close(']');
    j.close('}');

    std::ofstream f(out_path, std::ios::trunc);
    f << j.text() << "\n";
    if (!f.good()) {
      std::cerr << "cyclebench: cannot write " << out_path << "\n";
      return 1;
    }
    std::cerr << "[cyclebench] " << reps.size() << " repetitions in " << measured_s << " s\n";
  } catch (const std::exception& e) {
    std::cerr << "cyclebench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
