#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <ostream>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/json.hpp"

namespace quecc::obs {

std::string_view trace_stage_name(trace_stage s) noexcept {
  switch (s) {
    case trace_stage::admission: return "admission";
    case trace_stage::plan: return "plan";
    case trace_stage::exec: return "exec";
    case trace_stage::epilogue: return "epilogue";
    case trace_stage::log_append: return "log_append";
    case trace_stage::fsync: return "fsync";
    case trace_stage::checkpoint_capture: return "checkpoint_capture";
    case trace_stage::checkpoint: return "checkpoint";
    case trace_stage::replay: return "replay";
    case trace_stage::kStageCount: break;
  }
  return "unknown";
}

namespace {

/// Tracing kill switch. relaxed: a span racing the toggle is either
/// recorded whole or dropped whole; nothing orders against it.
std::atomic<bool> g_tracing{false};

#if !defined(QUECC_OBS_COMPILED_OUT)

/// Single-writer event ring. Event payloads are plain structs — readers
/// only look at them at quiescent points (after the writer joined); the
/// head is atomic so a racy snapshot tears at an event boundary, not
/// inside one.
struct trace_ring {
  std::vector<span_event> events{kTraceRingCapacity};
  std::atomic<std::uint64_t> head{0};  ///< total events ever pushed
  std::uint64_t generation = 0;        ///< set once at lease time, under mu_
};

class trace_store {
 public:
  /// Leaky singleton: thread_local leases may outlive engine objects and
  /// must always find the store alive.
  static trace_store& instance() {
    static trace_store* t = new trace_store;
    return *t;
  }

  void push(const span_event& ev) noexcept {
    thread_local lease l;
    // relaxed: generation is a lease-freshness token; the ring swap it
    // guards happens under mu_ inside acquire().
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (l.ring == nullptr || l.gen != gen) acquire(l, gen);
    trace_ring& r = *l.ring;
    // relaxed (both): single-writer head on this thread's own ring;
    // snapshots read it at quiescent points only.
    const std::uint64_t h = r.head.load(std::memory_order_relaxed);
    r.events[h % kTraceRingCapacity] = ev;
    r.head.store(h + 1, std::memory_order_relaxed);
  }

  void bump_generation() noexcept {
    common::mutex_lock lk(mu_);
    // relaxed: published under mu_ for ring bookkeeping; recording
    // threads only compare it for lease freshness.
    generation_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<span_event> snapshot() {
    std::vector<span_event> out;
    common::mutex_lock lk(mu_);
    // relaxed: paired with the relaxed publication in bump_generation.
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    for (std::size_t tid = 0; tid < rings_.size(); ++tid) {
      const trace_ring& r = *rings_[tid];
      if (r.generation != gen) continue;  // stale ring from before clear()
      // relaxed: quiescent-point read of a single-writer counter.
      const std::uint64_t head = r.head.load(std::memory_order_relaxed);
      const std::uint64_t n = std::min<std::uint64_t>(head, kTraceRingCapacity);
      for (std::uint64_t i = head - n; i < head; ++i) {
        span_event ev = r.events[i % kTraceRingCapacity];
        ev.tid = static_cast<std::uint32_t>(tid);
        out.push_back(ev);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const span_event& a, const span_event& b) {
                if (a.tid != b.tid) return a.tid < b.tid;
                if (a.start_nanos != b.start_nanos) {
                  return a.start_nanos < b.start_nanos;
                }
                return a.dur_nanos < b.dur_nanos;
              });
    return out;
  }

 private:
  struct lease {
    trace_ring* ring = nullptr;
    std::uint64_t gen = 0;
  };

  void acquire(lease& l, std::uint64_t gen) noexcept {
    common::mutex_lock lk(mu_);
    // Reuse a ring this thread already owns only if it matches the
    // current generation; otherwise lease a fresh (or recycled-stale)
    // ring. Stale rings of older generations are reset and handed out
    // again — they no longer contribute to snapshots anyway.
    for (const auto& r : rings_) {
      if (r->generation != gen) {
        // relaxed: resetting a ring no live thread writes (its owner
        // abandoned it at the generation bump).
        r->head.store(0, std::memory_order_relaxed);
        r->generation = gen;
        l.ring = r.get();
        l.gen = gen;
        return;
      }
    }
    rings_.push_back(std::make_unique<trace_ring>());
    rings_.back()->generation = gen;
    l.ring = rings_.back().get();
    l.gen = gen;
  }

  mutable common::mutex mu_;
  /// Every ring ever created; stable addresses, never freed. Ring *cells*
  /// are written outside mu_ by their single owner; the container and
  /// each ring's generation field are only touched under it.
  std::vector<std::unique_ptr<trace_ring>> rings_ GUARDED_BY(mu_);
  std::atomic<std::uint64_t> generation_{1};
};

#endif  // !QUECC_OBS_COMPILED_OUT

}  // namespace

#if !defined(QUECC_OBS_COMPILED_OUT)

void set_tracing_enabled(bool on) noexcept {
  const bool was = tracing_enabled();
  if (on && !was) trace_store::instance().bump_generation();
  // relaxed: see g_tracing.
  g_tracing.store(on, std::memory_order_relaxed);
}

void clear_trace() noexcept { trace_store::instance().bump_generation(); }

void record_span(trace_stage stage, std::uint64_t start_nanos,
                 std::uint64_t dur_nanos, std::uint64_t batch,
                 std::uint32_t slot) noexcept {
  if (!tracing_enabled()) return;
  span_event ev;
  ev.start_nanos = start_nanos;
  ev.dur_nanos = dur_nanos;
  ev.batch = batch;
  ev.slot = slot;
  ev.stage = stage;
  trace_store::instance().push(ev);
}

std::vector<span_event> snapshot_trace() {
  return trace_store::instance().snapshot();
}

#else  // QUECC_OBS_COMPILED_OUT: recording is inert, snapshots empty.

void set_tracing_enabled(bool) noexcept {}
void clear_trace() noexcept {}
void record_span(trace_stage, std::uint64_t, std::uint64_t, std::uint64_t,
                 std::uint32_t) noexcept {}
std::vector<span_event> snapshot_trace() { return {}; }

#endif  // QUECC_OBS_COMPILED_OUT

bool tracing_enabled() noexcept {
  // relaxed: see g_tracing.
  return g_tracing.load(std::memory_order_relaxed);
}

void write_chrome_trace(std::ostream& os) {
  const std::vector<span_event> events = snapshot_trace();
  json_writer w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const span_event& ev : events) {
    w.begin_object();
    w.kv("name", trace_stage_name(ev.stage));
    w.kv("cat", "quecc");
    w.kv("ph", "X");
    w.kv("ts", static_cast<double>(ev.start_nanos) / 1e3);   // microseconds
    w.kv("dur", static_cast<double>(ev.dur_nanos) / 1e3);
    w.kv("pid", 0);
    w.kv("tid", ev.tid);
    w.key("args");
    w.begin_object();
    if (ev.batch != span_event::kNoBatch) w.kv("batch", ev.batch);
    if (ev.slot != span_event::kNoSlot) w.kv("slot", ev.slot);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
}

}  // namespace quecc::obs
