#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace turbda::telemetry {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kDefaultCapacity = 1u << 15;  ///< spans per thread (1.25 MiB)

/// JSON string escaping for span names and thread labels. Names are string
/// literals under our control, but a stray quote must not corrupt the file.
void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
}

}  // namespace

/// One ring slot, guarded by a sequence stamp: `seq` is i + 1 while the slot
/// holds record i in full, and 0 while the owner is overwriting it. Every
/// field is an atomic, so a reader racing the owner never performs a data
/// race; the stamp tells it whether what it copied is one whole record.
struct TraceSlot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> t0_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::atomic<std::uint32_t> depth{0};
  std::atomic<bool> instant{false};
};

/// Per-thread single-producer span ring. The owning thread writes records
/// and bumps `head` with release order; snapshot readers load `head` with
/// acquire and copy the surviving window, keeping a slot only if its stamp
/// shows the expected record both before and after the copy. `depth` is
/// touched only by the owner.
struct TraceCollector::Buf {
  explicit Buf(std::size_t cap, std::uint32_t tid_, std::string label_)
      : ring(cap), tid(tid_), label(std::move(label_)) {}

  std::vector<TraceSlot> ring;
  std::atomic<std::uint64_t> head{0};  ///< records ever pushed
  std::uint32_t tid;
  std::string label;
  std::uint32_t depth = 0;
};

namespace {
// The calling thread's ring, co-owned with the collector's registry. It is
// only used while its epoch matches the collector's: clear() drops the
// registry's reference and bumps the epoch, and the thread releases (and so
// frees) its retired ring itself when it next registers or exits — a span
// still closing when clear() runs writes into memory that stays alive.
thread_local std::shared_ptr<TraceCollector::Buf> t_buf;
thread_local std::uint64_t t_buf_epoch = 0;
thread_local std::string t_label;
}  // namespace

void set_thread_label(std::string label) { t_label = std::move(label); }

TraceCollector::TraceCollector() : capacity_(kDefaultCapacity), t0_ns_(clock_ns()) {}
TraceCollector::~TraceCollector() = default;

TraceCollector& TraceCollector::instance() {
  static TraceCollector collector;
  return collector;
}

void TraceCollector::enable() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (bufs_.empty()) t0_ns_.store(clock_ns(), std::memory_order_relaxed);  // fresh run: t ~ 0
  }
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void TraceCollector::disable() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void TraceCollector::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  bufs_.clear();  // retire: each ring's owner thread frees it
  next_tid_ = 0;
  t0_ns_.store(clock_ns(), std::memory_order_relaxed);
  // Invalidate every thread's cached registration.
  epoch_.fetch_add(1, std::memory_order_release);
}

void TraceCollector::set_capacity(std::size_t spans_per_thread) {
  const std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<std::size_t>(1, spans_per_thread);
}

std::uint64_t TraceCollector::now_ns() const {
  return static_cast<std::uint64_t>(clock_ns() - t0_ns_.load(std::memory_order_relaxed));
}

TraceCollector::Buf& TraceCollector::local_buf() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (t_buf == nullptr || t_buf_epoch != epoch) {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::uint32_t tid = next_tid_++;
    std::string label = t_label.empty() ? "thread-" + std::to_string(tid) : t_label;
    t_buf = std::make_shared<Buf>(capacity_, tid, std::move(label));  // releases a retired ring
    bufs_.push_back(t_buf);
    t_buf_epoch = epoch_.load(std::memory_order_relaxed);
  }
  return *t_buf;
}

void TraceCollector::push(Buf& b, const SpanRecord& rec) {
  const std::uint64_t h = b.head.load(std::memory_order_relaxed);
  TraceSlot& s = b.ring[h % b.ring.size()];
  // Clear the stamp first. The field stores are release, so a reader whose
  // acquire load sees any new field value also sees this clear (or the new
  // stamp) on its second stamp read, never the old record's stamp.
  s.seq.store(0, std::memory_order_relaxed);
  s.name.store(rec.name, std::memory_order_release);
  s.t0_ns.store(rec.t0_ns, std::memory_order_release);
  s.dur_ns.store(rec.dur_ns, std::memory_order_release);
  s.depth.store(rec.depth, std::memory_order_release);
  s.instant.store(rec.instant, std::memory_order_release);
  s.seq.store(h + 1, std::memory_order_release);
  b.head.store(h + 1, std::memory_order_release);
}

void TraceCollector::instant(const char* name) {
  if (!tracing_enabled()) [[likely]]
    return;
  Buf& b = local_buf();
  push(b, SpanRecord{name, now_ns(), 0, b.depth, /*instant=*/true});
}

void TraceCollector::complete(const char* name, std::uint64_t t0_ns, std::uint64_t dur_ns) {
  if (!tracing_enabled()) [[likely]]
    return;
  Buf& b = local_buf();
  push(b, SpanRecord{name, t0_ns, dur_ns, b.depth, /*instant=*/false});
}

std::vector<ThreadTrace> TraceCollector::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadTrace> out;
  out.reserve(bufs_.size());
  for (const auto& b : bufs_) {
    ThreadTrace tt;
    tt.tid = b->tid;
    tt.label = b->label;
    const std::uint64_t head = b->head.load(std::memory_order_acquire);
    const std::uint64_t cap = b->ring.size();
    const std::uint64_t avail = std::min(head, cap);
    tt.spans.reserve(static_cast<std::size_t>(avail));
    for (std::uint64_t i = head - avail; i < head; ++i) {
      const TraceSlot& s = b->ring[i % cap];
      if (s.seq.load(std::memory_order_acquire) != i + 1) continue;  // already overwritten
      SpanRecord rec;
      rec.name = s.name.load(std::memory_order_acquire);
      rec.t0_ns = s.t0_ns.load(std::memory_order_acquire);
      rec.dur_ns = s.dur_ns.load(std::memory_order_acquire);
      rec.depth = s.depth.load(std::memory_order_acquire);
      rec.instant = s.instant.load(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != i + 1) continue;  // torn by a wrapping writer
      tt.spans.push_back(rec);
    }
    tt.dropped = head - tt.spans.size();
    out.push_back(std::move(tt));
  }
  return out;
}

std::string TraceCollector::chrome_json() const {
  const std::vector<ThreadTrace> threads = snapshot();
  std::string out;
  out += "{\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"turbda\"}}";
  char buf[160];
  for (const auto& tt : threads) {
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tt.tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, tt.label.c_str());
    out += "\"}}";
    for (const SpanRecord& s : tt.spans) {
      out += ",\n{\"ph\":\"";
      out += s.instant ? 'i' : 'X';
      out += "\",\"pid\":1,\"tid\":";
      out += std::to_string(tt.tid);
      out += ",\"name\":\"";
      append_escaped(out, s.name);
      // Timestamps/durations in microseconds, the trace-event convention.
      if (s.instant) {
        std::snprintf(buf, sizeof(buf), "\",\"s\":\"t\",\"ts\":%.3f}",
                      static_cast<double>(s.t0_ns) / 1e3);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%u}}",
                      static_cast<double>(s.t0_ns) / 1e3,
                      static_cast<double>(s.dur_ns) / 1e3, s.depth);
      }
      out += buf;
    }
  }
  out += "\n]}\n";
  return out;
}

Status TraceCollector::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f.good()) return Status(StatusCode::kIoError, "cannot open trace file " + path);
  f << chrome_json();
  f.flush();
  if (!f.good()) return Status(StatusCode::kIoError, "short write to trace file " + path);
  return Status::Ok();
}

void TraceSpan::begin(const char* name) {
  TraceCollector& c = TraceCollector::instance();
  name_ = name;
  t0_ = c.now_ns();
  depth_ = c.local_buf().depth++;
  armed_ = true;
}

void TraceSpan::end() {
  TraceCollector& c = TraceCollector::instance();
  // Even if tracing was disabled mid-span, close the depth bracket and
  // record: a half-open span would skew nesting for later spans.
  TraceCollector::Buf& b = c.local_buf();
  if (b.depth > 0) --b.depth;
  TraceCollector::push(b, SpanRecord{name_, t0_, c.now_ns() - t0_, depth_, /*instant=*/false});
}

}  // namespace turbda::telemetry
