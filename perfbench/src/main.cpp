// qbench: the end-to-end benchmark program.
//
//   qbench --workload NAME --seed N --seconds S --trace 0|1
//          --work-dir DIR [--trace-dir DIR] [--git-sha SHA]
//   qbench --self-test
//
// One invocation runs one workload (workloads.cpp) and prints every metric
// by name and unit, then, as its last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics. --trace 1 is the traced run:
// the same stream with spans around qbench's calls, registry scrapes
// around the timed phase and layer probes afterwards; it reports the
// per-layer metrics and prints its own end-to-end numbers and the
// deterministic counts (run.py --self-test compares them across runs).
//
// The engine is driven only through its public entry points:
// wl::workload::load/make_batch, proto::make_engine,
// engine::submit_batch/drain_batch/sync_durable, proto::session::submit_at
// and log::recover. Every run ends at a correctness gate: the final
// database::state_hash must equal that of the serial engine on the same
// transaction stream, and the state recovered from disk must equal the
// run's.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_util.hpp"
#include "common/topology.hpp"
#include "log/checkpoint.hpp"
#include "log/recovery.hpp"
#include "obs/metrics.hpp"
#include "percentile.hpp"
#include "probes.hpp"
#include "protocols/iface.hpp"
#include "protocols/session.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
namespace q = quecc;

namespace qbench {
namespace {

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Registry scrapes (counts come from the obs registry's existing metrics)
// ---------------------------------------------------------------------------

struct scrape {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, q::common::latency_histogram> hists;

  static scrape take() {
    scrape s;
    auto snap = q::obs::snapshot_metrics();
    for (auto& [k, v] : snap.counters) s.counters[k] = v;
    for (auto& [k, h] : snap.histograms) s.hists[k] = h;
    return s;
  }
  std::uint64_t counter(const std::string& k) const {
    auto it = counters.find(k);
    return it == counters.end() ? 0 : it->second;
  }
};

std::uint64_t counter_delta(const scrape& a, const scrape& b,
                            const std::string& k) {
  return b.counter(k) - a.counter(k);
}

q::common::latency_histogram hist_delta(const scrape& a, const scrape& b,
                                        const std::string& k) {
  q::common::latency_histogram out;
  auto ib = b.hists.find(k);
  if (ib == b.hists.end()) return out;
  q::common::latency_histogram before;
  if (auto ia = a.hists.find(k); ia != a.hists.end()) before = ia->second;
  std::uint64_t buckets[q::common::latency_histogram::kBuckets];
  for (std::size_t i = 0; i < q::common::latency_histogram::kBuckets; ++i) {
    buckets[i] = ib->second.bucket_count(i) - before.bucket_count(i);
  }
  out.merge_bucket_counts(buckets, ib->second.count() - before.count(),
                          ib->second.sum_nanos() - before.sum_nanos());
  return out;
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Set-up: workload::load + engine construction
// ---------------------------------------------------------------------------

struct instance {
  // Declaration order is destruction order reversed: the engine goes
  // first, then the database it runs on, then the workload whose
  // procedures the batches point at.
  std::unique_ptr<q::wl::workload> w;
  std::unique_ptr<q::storage::database> db;
  std::unique_ptr<q::proto::engine> eng;
  q::common::config cfg;

  void reset() {
    eng.reset();
    db.reset();
    w.reset();
  }
};

instance make_instance(const workload_spec& s, const q::common::config& cfg,
                       span_log* tr) {
  instance in;
  in.cfg = cfg;
  if (cfg.durable) fs::create_directories(cfg.log_dir);
  {
    scoped_span sp(tr, "setup.load");
    in.w = s.make();
    in.db = std::make_unique<q::storage::database>();
    in.w->load(*in.db);
  }
  scoped_span sp(tr, "setup.engine");
  in.eng = q::proto::make_engine(s.engine, *in.db, cfg);
  return in;
}

struct reference_result {
  std::uint64_t state_hash = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  double seconds = 0;
};

/// The serial engine over the same generated stream, `nbatches` batches of
/// the workload's batch size from `seed`, on the freshly loaded database
/// of `in` (whose own engine is stopped first).
reference_result serial_reference(instance& in, std::uint64_t seed,
                                  std::uint64_t nbatches) {
  const std::uint64_t t0 = q::common::now_nanos();
  in.eng.reset();
  q::common::config cfg = in.cfg;
  cfg.durable = false;
  cfg.nodes = 1;
  auto eng = q::proto::make_engine("serial", *in.db, cfg);
  q::common::rng rng(seed);
  q::common::run_metrics m;
  reference_result out;
  for (std::uint64_t i = 0; i < nbatches; ++i) {
    q::txn::batch b =
        in.w->make_batch(rng, cfg.batch_size, static_cast<std::uint32_t>(i));
    eng->run_batch(b, m);
    for (const auto& t : b) {
      const auto st = t->status.load(std::memory_order_acquire);
      if (st == q::txn::txn_status::committed) ++out.committed;
      if (st == q::txn::txn_status::aborted) ++out.aborted;
    }
  }
  out.state_hash = in.db->state_hash();
  out.seconds = static_cast<double>(q::common::now_nanos() - t0) / 1e9;
  return out;
}

struct setup_result {
  instance in;
  std::vector<double> reps_s;
  reference_result ref;
  double median_s() const { return median_of(reps_s); }
};

/// Sets up `reps` (>= 2) times and keeps the last instance for the timed
/// phase; the median of the repetitions is setup_s. The first repetition's
/// database, untouched so far, serves the serial reference run.
setup_result timed_setup(const workload_spec& s, q::common::config cfg,
                         const fs::path& dir, int reps, std::uint64_t seed,
                         std::uint64_t ref_batches, span_log* tr) {
  setup_result out;
  for (int r = 0; r < std::max(reps, 2); ++r) {
    out.in.reset();  // free the previous one before loading again
    if (cfg.durable) {
      const fs::path log = dir / ("log-" + std::to_string(r));
      fs::remove_all(log);
      cfg.log_dir = log.string();
    }
    const std::uint64_t t0 = q::common::now_nanos();
    out.in = make_instance(s, cfg, tr);
    out.reps_s.push_back(static_cast<double>(q::common::now_nanos() - t0) /
                         1e9);
    if (r == 0) {
      scoped_span sp(tr, "reference.serial");
      out.ref = serial_reference(out.in, seed, ref_batches);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Timed phase
// ---------------------------------------------------------------------------

struct phase_result {
  // The whole stream, warm-up included: what the gate checks.
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;     ///< aborted by the workload's own design
  std::uint64_t unfinished = 0;  ///< no final status, or rejected
  // The timed part: what rates and per-layer ratios divide by.
  std::uint64_t timed_txns = 0;
  std::uint64_t timed_committed = 0;
  std::uint64_t batches = 0;
  /// Registry scrapes around the timed part (traced runs only).
  scrape before, after;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;  ///< closed: per batch; open: per txn
  std::uint64_t state_hash = 0;
  double state_hash_ms = 0;
  std::uint32_t last_batch_id = 0;
  q::common::run_metrics m;
  // Client-side timings for the per-layer metrics.
  std::vector<double> submit_ms, drain_ms, queue_ms, late_ms;
  double gen_ms = 0;
};

/// Tallies the batch's final statuses into `r`; returns its committed count.
std::uint64_t count_statuses(const q::txn::batch& b, phase_result& r) {
  std::uint64_t committed = 0;
  for (const auto& t : b) {
    switch (t->status.load(std::memory_order_acquire)) {
      case q::txn::txn_status::committed: ++committed; break;
      case q::txn::txn_status::aborted: ++r.aborted; break;
      default: ++r.unfinished; break;
    }
  }
  r.attempted += b.size();
  r.committed += committed;
  return committed;
}

std::uint64_t closed_batches(const workload_spec& s, double seconds) {
  return static_cast<std::uint64_t>(
      std::ceil(s.work_tps * seconds / s.cfg.batch_size));
}

/// Untimed batches ahead of the timed ones: the first batches of a fresh
/// engine pay for faulting in heap and thread-local state, which would
/// otherwise land in the rates and the tail. One eighth of the timed ones.
std::uint64_t warmup_batches(std::uint64_t timed) {
  return (timed + 7) / 8;
}

/// Closed loop: keep pipeline_depth batches in flight; a batch's commit
/// latency runs from its submit_batch call to its drain_batch return.
phase_result run_closed(instance& in, std::uint64_t seed,
                        std::uint64_t nbatches, span_log* tr) {
  phase_result r;
  q::common::rng rng(seed);
  const std::uint32_t depth =
      std::max<std::uint32_t>(1, in.eng->pipeline_depth());
  struct flight {
    q::txn::batch b;
    std::uint64_t submitted_ns;
  };
  std::deque<flight> inflight;  // stable addresses while the engine works
  const std::uint32_t bs = in.cfg.batch_size;
  std::uint64_t next = 0;
  std::uint32_t root = 0;
  q::common::run_metrics warm_m;

  // Drives batches [next, end) through the pipeline until it is empty.
  // Only the timed pass records samples and spans.
  auto drive = [&](std::uint64_t end, bool timed) {
    q::common::run_metrics& m = timed ? r.m : warm_m;
    while (next < end || !inflight.empty()) {
      if (next < end && inflight.size() < depth) {
        const std::uint64_t g0 = q::common::now_nanos();
        q::txn::batch b =
            in.w->make_batch(rng, bs, static_cast<std::uint32_t>(next));
        const std::uint64_t s0 = q::common::now_nanos();
        inflight.push_back({std::move(b), s0});
        in.eng->submit_batch(inflight.back().b, m);
        const std::uint64_t s1 = q::common::now_nanos();
        if (timed) {
          r.gen_ms += ms(s0 - g0);
          r.submit_ms.push_back(ms(s1 - s0));
          if (tr) {
            tr->add("workload.make_batch", root, next, g0, s0);
            tr->add("engine.submit_batch", root, next, s0, s1);
          }
        }
        ++next;
      } else {
        const std::uint64_t d0 = q::common::now_nanos();
        in.eng->drain_batch();
        const std::uint64_t d1 = q::common::now_nanos();
        flight& f = inflight.front();
        const std::uint64_t committed = count_statuses(f.b, r);
        r.last_batch_id = f.b.id();
        if (timed) {
          r.timed_txns += f.b.size();
          r.timed_committed += committed;
          r.latency_ms.push_back(ms(d1 - f.submitted_ns));
          r.drain_ms.push_back(ms(d1 - d0));
          if (tr) tr->add("engine.drain_batch", root, f.b.id(), d0, d1);
        }
        inflight.pop_front();
      }
    }
  };

  drive(warmup_batches(nbatches), false);
  if (tr) {
    r.before = scrape::take();
    root = tr->open("phase.closed_loop");
  }
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = q::common::now_nanos();
  drive(next + nbatches, true);
  in.eng->sync_durable();
  r.wall_s = static_cast<double>(q::common::now_nanos() - t0) / 1e9;
  r.cpu_s = cpu_seconds() - cpu0;
  r.batches = nbatches;
  if (tr) {
    r.after = scrape::take();
    tr->close(root);
  }
  return r;
}

std::uint64_t open_txns(const workload_spec& s, double seconds) {
  const std::uint64_t bs = s.cfg.batch_size;
  const auto want = static_cast<std::uint64_t>(s.work_tps * seconds);
  return std::max<std::uint64_t>(1, (want + bs - 1) / bs) * bs;
}

/// Open loop: Poisson arrivals at work_tps through proto::session, one
/// ticket per transaction; a transaction's commit latency runs from its
/// scheduled due time to its durable acknowledgement.
phase_result run_open(instance& in, const workload_spec& s, std::uint64_t seed,
                      std::uint64_t ntxns, span_log* tr) {
  phase_result r;
  q::common::rng rng(seed);
  q::common::rng arrivals(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<q::proto::session::ticket> tickets(ntxns);
  std::vector<std::uint64_t> due(ntxns);
  r.late_ms.reserve(ntxns);
  std::uint32_t root = tr ? tr->open("phase.open_loop") : 0;
  std::uint64_t gen_ns = 0;
  std::uint64_t t_last = 0;
  double cpu0 = 0;
  if (tr) r.before = scrape::take();
  {
    q::proto::session sess(*in.eng, in.cfg);
    cpu0 = cpu_seconds();
    std::uint32_t sub = tr ? tr->open("session.submit_at", root) : 0;
    std::uint64_t at = q::common::now_nanos() + 1'000'000;
    for (std::uint64_t i = 0; i < ntxns; ++i) {
      at += static_cast<std::uint64_t>(-std::log1p(-arrivals.next_double()) /
                                       s.work_tps * 1e9);
      due[i] = at;
      const std::uint64_t g0 = q::common::now_nanos();
      auto t = in.w->make_txn(rng);
      gen_ns += q::common::now_nanos() - g0;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(at)));
      r.late_ms.push_back(ms(q::common::now_nanos() - at));
      tickets[i] = sess.submit_at(std::move(t), at);
    }
    if (tr) tr->close(sub);
    scoped_span ack(tr, "session.await_acks", root);
    // Tickets resolve in submission order, so the last one marks the
    // final durable acknowledgement.
    tickets.back().wait();
    t_last = q::common::now_nanos();
    r.cpu_s = cpu_seconds() - cpu0;
    sess.close();
    r.m = sess.metrics();
    r.batches = sess.batches_formed();
  }
  if (tr) r.after = scrape::take();
  r.wall_s = static_cast<double>(t_last - due.front()) / 1e9;
  r.gen_ms = ms(gen_ns);
  r.latency_ms.reserve(ntxns);
  r.queue_ms.reserve(ntxns);
  for (auto& t : tickets) {
    ++r.attempted;
    if (!t.valid()) {  // rejected by a closed session
      ++r.unfinished;
      continue;
    }
    const auto res = t.wait();
    if (res.status == q::txn::txn_status::committed) {
      ++r.committed;
    } else if (res.status == q::txn::txn_status::aborted) {
      ++r.aborted;
    } else {
      ++r.unfinished;
    }
    r.latency_ms.push_back(ms(res.e2e_nanos));
    r.queue_ms.push_back(ms(res.queue_nanos));
  }
  r.timed_txns = r.attempted;
  r.timed_committed = r.committed;
  r.last_batch_id = static_cast<std::uint32_t>(r.batches - 1);
  if (tr) tr->close(root);
  return r;
}

/// Pins the calling thread to one CPU while it lives, then gives the
/// thread back the affinity it had.
class pinned_thread {
 public:
  explicit pinned_thread(unsigned cpu) {
    saved_ = pthread_getaffinity_np(pthread_self(), sizeof(mask_), &mask_) == 0;
    q::common::pin_self_to(cpu);
  }
  ~pinned_thread() {
    if (saved_) pthread_setaffinity_np(pthread_self(), sizeof(mask_), &mask_);
  }
  pinned_thread(const pinned_thread&) = delete;
  pinned_thread& operator=(const pinned_thread&) = delete;

 private:
  cpu_set_t mask_{};
  bool saved_ = false;
};

/// The CPU the quecc engine gives its first planner (the placement it
/// computes for its own threads).
unsigned planner_cpu(const q::common::config& cfg) {
  return q::common::compute_placement(
             q::common::system_topology(),
             {cfg.planner_threads, cfg.executor_threads, cfg.pin_mode})
      .planner_cpu.front();
}

phase_result run_phase(instance& in, const workload_spec& s,
                       std::uint64_t seed, double seconds, span_log* tr) {
  phase_result r;
  if (s.open_loop) {
    r = run_open(in, s, seed, open_txns(s, seconds), tr);
  } else {
    // The client thread generates and submits every batch. Left to the
    // scheduler it can sit beside an executor for a whole run, so on quecc
    // it shares the planner's CPU. dist-quecc places the threads of all its
    // nodes together, which the per-node config does not describe, so
    // there the client thread stays unpinned.
    std::optional<pinned_thread> pin;
    if (in.cfg.pin_threads && s.engine == "quecc") {
      pin.emplace(planner_cpu(in.cfg));
    }
    r = run_closed(in, seed, closed_batches(s, seconds), tr);
  }
  scoped_span sp(tr, "storage.state_hash");
  const std::uint64_t h0 = q::common::now_nanos();
  r.state_hash = in.db->state_hash();
  r.state_hash_ms = ms(q::common::now_nanos() - h0);
  return r;
}

// ---------------------------------------------------------------------------
// Recovery leg and serial reference
// ---------------------------------------------------------------------------

struct recover_result {
  std::vector<double> reps_s;
  double seconds = 0;  ///< median of reps_s
  std::vector<std::uint64_t> state_hashes;  ///< after each repetition
  q::log::recovery_result rec;  ///< of the last repetition
};

constexpr int kRecoverReps = 5;

/// Rebuilds the run's final state from `dir` into a freshly loaded
/// database through log::recover; only the recover calls are timed. The
/// durable workload's directory holds its command log and checkpoints;
/// the in-memory workloads' holds the end-of-run snapshot alone. Recovery
/// restores the checkpoint over whatever the database holds, so repeating
/// it on the same database redoes the same work; recover_s is the median.
recover_result recover_leg(const workload_spec& s, const std::string& dir,
                           span_log* tr) {
  scoped_span root(tr, "recover");
  recover_result out;
  auto w = s.make();
  auto db = std::make_unique<q::storage::database>();
  {
    scoped_span sp(tr, "recover.load", root.id());
    w->load(*db);
  }
  q::common::config cfg = s.cfg;
  cfg.durable = false;
  cfg.nodes = 1;
  auto eng = q::proto::make_engine("quecc", *db, cfg);
  for (int i = 0; i < kRecoverReps; ++i) {
    scoped_span sp(tr, "log.recover", root.id());
    const std::uint64_t t0 = q::common::now_nanos();
    out.rec = q::log::recover(dir, *db, *eng, q::log::resolver_for(*w));
    out.reps_s.push_back(static_cast<double>(q::common::now_nanos() - t0) /
                         1e9);
    out.state_hashes.push_back(db->state_hash());
  }
  out.seconds = median_of(out.reps_s);
  return out;
}

// ---------------------------------------------------------------------------
// One leg: set-up, timed phase, recovery
// ---------------------------------------------------------------------------

struct leg_result {
  double setup_s = 0;
  reference_result ref;
  phase_result ph;
  recover_result rec;
  std::optional<planner_probe> plan;
  std::optional<storage_probe> store;
  double encode_us = 0;
};

/// Runs the timed phase on a fresh set-up, then the recovery leg. A traced
/// leg (tr != nullptr) also scrapes the registry and runs the layer probes.
leg_result run_leg(const workload_spec& s, std::uint64_t seed, double seconds,
                   const fs::path& dir, int setup_reps, span_log* tr) {
  leg_result out;
  fs::remove_all(dir);
  fs::create_directories(dir);
  q::common::config cfg = s.cfg;
  const std::uint64_t timed = closed_batches(s, seconds);
  const std::uint64_t nb = s.open_loop
                               ? open_txns(s, seconds) / cfg.batch_size
                               : warmup_batches(timed) + timed;
  if (s.open_loop) {
    // Size-closed batches make the checkpoint count exact; the interval
    // leaves a tail of batches after the last checkpoint for replay.
    cfg.checkpoint_interval_batches = static_cast<std::uint32_t>(std::max(
        1.0, std::ceil(static_cast<double>(nb) / (s.checkpoints + 0.5))));
  }
  setup_result st = timed_setup(s, cfg, dir, setup_reps, seed, nb, tr);
  out.setup_s = st.median_s();
  out.ref = st.ref;
  instance& in = st.in;
  out.ph = run_phase(in, s, seed, seconds, tr);
  if (tr) {
    scoped_span sp(tr, "probes");
    q::common::rng prng(seed ^ 0x5eed5eedull);
    std::vector<q::txn::batch> probe;
    const std::uint32_t probe_batches = std::max<std::uint32_t>(
        2, (32768 + in.cfg.batch_size - 1) / in.cfg.batch_size);
    for (std::uint32_t i = 0; i < probe_batches; ++i) {
      probe.push_back(in.w->make_batch(prng, in.cfg.batch_size, i));
    }
    out.store = probe_storage(probe, *in.db, in.cfg.partitions);
    out.encode_us = probe_encode_us(probe);
    out.plan = probe_planner(probe, *in.db, in.cfg);
  }
  std::string rec_dir = in.cfg.log_dir;
  if (!cfg.durable) {
    // In-memory engines keep nothing on disk; their restart point is a
    // snapshot of the final state, taken here outside every timing.
    scoped_span sp(tr, "log.checkpoint.take");
    rec_dir = (dir / "snapshot").string();
    fs::create_directories(rec_dir);
    q::log::checkpointer(rec_dir).take(*in.db, out.ph.last_batch_id,
                                       out.ph.attempted, 0);
  }
  st.in.reset();  // stop the engine and flush its log
  out.rec = recover_leg(s, rec_dir, tr);
  fs::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct e2e {
  double throughput_tps = 0, p50_ms = 0, cpu_us_per_txn = 0, recover_s = 0;
  tail_point tail;
};

e2e end_to_end(const leg_result& l) {
  e2e e;
  std::vector<double> lat = l.ph.latency_ms;
  std::sort(lat.begin(), lat.end());
  // Open loop: commits over (last durable ack - first due time), which
  // falls short of the offered rate only when a backlog outlasts the phase.
  const double committed = static_cast<double>(l.ph.timed_committed);
  e.throughput_tps = per(committed, l.ph.wall_s);
  e.p50_ms = nearest_rank(lat, 50);
  e.tail = tail_of(lat);
  e.cpu_us_per_txn = per(l.ph.cpu_s * 1e6, committed);
  e.recover_s = l.rec.seconds;
  return e;
}

std::vector<metric> per_layer(const leg_result& l, const workload_spec& s) {
  const phase_result& p = l.ph;
  const double txns = static_cast<double>(p.timed_txns);
  const double committed = static_cast<double>(p.timed_committed);
  const double batches = static_cast<double>(p.batches);
  auto d = [&](const char* k) {
    return static_cast<double>(counter_delta(p.before, p.after, k));
  };
  const double reexec = d("spec.reexecutions_total");
  const double ckpts = d("checkpoint.taken_total");
  const auto ckpt_hist = hist_delta(p.before, p.after,
                                    "checkpoint.duration_nanos");
  const auto fsync_hist = hist_delta(p.before, p.after, "log.fsync_nanos");
  auto sorted_p = [](std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return nearest_rank(v, q);
  };
  const double replay_txns = static_cast<double>(
      l.rec.rec.replay_metrics.committed + l.rec.rec.replay_metrics.aborted);
  return {
      {"core.planner.plan_us_per_txn", l.plan->us_per_txn, "us"},
      {"core.planner.frags_per_txn", l.plan->frags_per_txn, "count"},
      {"core.planner.queue_imbalance", l.plan->queue_imbalance, "ratio"},
      {"core.planner.busy_us_per_txn",
       per(p.m.plan_busy_seconds * 1e6, committed), "us"},
      {"core.executor.busy_us_per_txn",
       per(p.m.exec_busy_seconds * 1e6, committed), "us"},
      {"storage.hash_lookup_ns", l.store->hash_lookup_ns, "ns"},
      {"storage.ordered_lookup_ns", l.store->ordered_lookup_ns, "ns"},
      {"storage.scan_ns_per_row", l.store->scan_ns_per_row, "ns"},
      {"storage.state_hash_ms", p.state_hash_ms, "ms"},
      {"core.spec.reexec_per_txn", per(reexec, committed), "count"},
      {"core.spec.cascades_per_txn",
       per(d("spec.cascade_aborts_total"), committed), "count"},
      {"core.spec.useful_ratio", per(committed, committed + reexec), "ratio"},
      {"core.epilogue.busy_us_per_txn",
       per(p.m.epilogue_busy_seconds * 1e6, committed), "us"},
      {"core.engine.submit_block_ms", sorted_p(p.submit_ms, 50), "ms"},
      {"core.engine.drain_block_ms", sorted_p(p.drain_ms, 50), "ms"},
      {"core.engine.overlap_share", per(p.m.pipeline_overlap_seconds, p.wall_s),
       "ratio"},
      {"core.admission.queue_p50_ms", sorted_p(p.queue_ms, 50), "ms"},
      {"core.admission.txns_per_batch", s.open_loop ? per(txns, batches) : 0,
       "count"},
      {"harness.late_p99_ms", sorted_p(p.late_ms, 99), "ms"},
      {"log.encode_us_per_batch", l.encode_us, "us"},
      {"log.bytes_per_txn", per(d("log.appended_bytes_total"), txns), "B"},
      {"log.fsyncs_per_batch", per(d("log.fsyncs_total"), batches), "count"},
      {"log.fsync_p50_ms",
       fsync_hist.count() ? fsync_hist.percentile_nanos(50) / 1e6 : 0, "ms"},
      {"log.checkpoint.count", ckpts, "count"},
      {"log.checkpoint.ms_each",
       per(static_cast<double>(ckpt_hist.sum_nanos()) / 1e6, ckpts), "ms"},
      {"log.recovery.batches_replayed",
       static_cast<double>(l.rec.rec.batches_replayed), "count"},
      {"log.recovery.replay_us_per_txn",
       l.rec.rec.batches_replayed ? per(l.rec.seconds * 1e6, replay_txns) : 0,
       "us"},
      {"dist.net.messages_per_batch", per(d("net.messages_total"), batches),
       "count"},
      {"dist.net.bytes_per_txn", per(d("net.bytes_total"), txns), "B"},
      {"workload.gen_ms_per_batch",
       per(p.gen_ms, s.open_loop ? txns / s.cfg.batch_size : batches), "ms"},
  };
}

/// Counts that are a pure function of (workload, seed, seconds); a traced
/// run must reproduce them exactly.
constexpr const char* kDeterministic[] = {
    "core.planner.frags_per_txn", "log.bytes_per_txn", "log.checkpoint.count",
    "log.recovery.batches_replayed", "core.spec.reexec_per_txn"};

// ---------------------------------------------------------------------------
// Self-test of the percentile helpers
// ---------------------------------------------------------------------------

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  const std::vector<double> five{15, 20, 35, 40, 50};
  expect(nearest_rank(five, 5) == 15, "p5 of 5 = first");
  expect(nearest_rank(five, 30) == 20, "p30 of 5 = 20");
  expect(nearest_rank(five, 40) == 20, "p40 of 5 = 20 (rank exactly 2)");
  expect(nearest_rank(five, 50) == 35, "p50 of 5 = 35");
  expect(nearest_rank(five, 100) == 50, "p100 = max");
  expect(nearest_rank(five, 0) == 15, "p0 = min");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(nearest_rank(hundred, 50) == 50, "p50 of 1..100 = 50");
  expect(nearest_rank(hundred, 99) == 99, "p99 of 1..100 = 99");
  expect(nearest_rank(hundred, 99.5) == 100, "p99.5 of 1..100 = 100");
  const tail_point t100 = tail_of(hundred);
  expect(t100.percentile == 75 && t100.value == 75 && t100.samples == 100 &&
             t100.beyond == 25,
         "tail of 1..100 = p75 -> 75: 25 samples beyond");
  std::vector<double> few;
  for (int i = 1; i <= 26; ++i) few.push_back(i * 10);
  const tail_point t26 = tail_of(few);
  expect(t26.value == 10, "tail of 26 samples = smallest");
  std::vector<double> big;
  for (int i = 1; i <= 610; ++i) big.push_back(i);
  const tail_point t610 = tail_of(big);
  expect(t610.value == 585, "tail of 1..610 = 585: 25 samples beyond");
  std::vector<double> huge;
  for (int i = 1; i <= 10000; ++i) huge.push_back(i);
  const tail_point t10k = tail_of(huge);
  expect(t10k.percentile == 99 && t10k.value == 9900 && t10k.beyond == 100,
         "tail of 1..10000 = p99 -> 9900: a hundredth beyond");
  bool threw = false;
  try {
    tail_of(std::vector<double>(25, 1.0));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "tail of 25 samples is refused");
  threw = false;
  try {
    nearest_rank({}, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile of no samples is refused");
  std::printf("self-test: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir;
  std::string trace_dir;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qbench: %s\nusage: qbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-dir DIR] [--git-sha SHA]\n"
               "       qbench --self-test\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = need();
      else if (a == "--seed") o.seed = std::stoull(need());
      else if (a == "--seconds") o.seconds = std::stod(need());
      else if (a == "--trace") o.trace = std::stoi(need());
      else if (a == "--work-dir") o.work_dir = need();
      else if (a == "--trace-dir") o.trace_dir = need();
      else if (a == "--git-sha") o.git_sha = need();
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty() || o.work_dir.empty()) usage("missing arguments");
  if (!(o.seconds > 0) || o.seconds > 600) usage("--seconds out of range");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

int run(const options& o) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const auto specs = all_workloads(nproc);
  const auto it = std::find_if(specs.begin(), specs.end(),
                               [&](const auto& s) { return s.name == o.workload; });
  if (it == specs.end()) usage(("unknown workload " + o.workload).c_str());
  const workload_spec& s = *it;
  const fs::path work = o.work_dir;

  std::printf("fingerprint: {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"git_sha\": %s, \"seed\": %llu, "
              "\"workload\": %s, \"engine\": %s, \"nodes\": %u, "
              "\"planners_per_node\": %u, \"executors_per_node\": %u}\n",
              nproc, quoted(cpu_model()).c_str(), quoted(QBENCH_COMPILER).c_str(),
              quoted(QBENCH_BUILD_TYPE).c_str(), quoted(o.git_sha).c_str(),
              static_cast<unsigned long long>(o.seed), quoted(s.name).c_str(),
              quoted(s.engine).c_str(), static_cast<unsigned>(s.cfg.nodes),
              static_cast<unsigned>(s.cfg.planner_threads),
              static_cast<unsigned>(s.cfg.executor_threads));
  std::fflush(stdout);

  // The untraced and the traced run are separate invocations; the traced
  // one records spans and scrapes the registry around the timed phase.
  span_log spans;
  span_log* tr = o.trace ? &spans : nullptr;
  // setup_s is the median of three set-ups; a traced run needs only the
  // two that serve the serial reference and the timed phase.
  const leg_result l =
      run_leg(s, o.seed, o.seconds, work / "leg", o.trace ? 2 : 3, tr);

  bool correct = true;
  auto gate = [&](bool ok, const char* what) {
    std::printf("gate %-38s %s\n", what, ok ? "ok" : "MISMATCH");
    correct = correct && ok;
  };
  gate(l.ph.state_hash == l.ref.state_hash, "state_hash == serial reference");
  gate(l.ph.committed == l.ref.committed && l.ph.aborted == l.ref.aborted,
       "committed/aborted == serial reference");
  std::printf("recovery: checkpoint=%s at batch %u, replayed %u, skipped %u, "
              "torn tail %s\n",
              l.rec.rec.checkpoint_loaded ? "loaded" : "none",
              l.rec.rec.checkpoint_batch, l.rec.rec.batches_replayed,
              l.rec.rec.batches_skipped, l.rec.rec.torn_tail ? "yes" : "no");
  gate(std::all_of(l.rec.state_hashes.begin(), l.rec.state_hashes.end(),
                  [&](std::uint64_t h) { return h == l.ph.state_hash; }),
       "recovered state == run");
  gate(l.ph.unfinished == 0, "every txn final");
  std::printf("time: serial reference %s s, timed phase %s s, recover",
              num(l.ref.seconds).c_str(), num(l.ph.wall_s).c_str());
  for (double v : l.rec.reps_s) std::printf(" %s", num(v).c_str());
  std::printf(" s\n");

  const e2e e = end_to_end(l);
  const std::uint64_t attempted = l.ph.attempted;
  const std::vector<metric> e2e_metrics = {
      {"throughput_tps", e.throughput_tps, "txn/s"},
      {"commit_p50_ms", e.p50_ms, "ms"},
      {"commit_tail_ms", e.tail.value, "ms"},
      {"cpu_us_per_txn", e.cpu_us_per_txn, "us"},
      {"setup_s", l.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"recover_s", e.recover_s, "s"}};
  std::printf("commit_tail_ms is p%.4f of %zu samples (%zu beyond)\n",
              e.tail.percentile, e.tail.samples, e.tail.beyond);
  const std::uint64_t failed = correct ? l.ph.unfinished : attempted;
  std::printf("failed_frac = %s ratio (%llu of %llu)\n",
              num(per(static_cast<double>(failed),
                      static_cast<double>(attempted)))
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  const char* tag = o.trace ? "traced " : "";
  for (const auto& m : e2e_metrics) {
    std::printf("%s%-34s %s %s\n", tag, m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  if (!o.trace) {
    print_result(correct, attempted, failed, e2e_metrics);
    return 0;
  }

  const std::vector<metric> out = per_layer(l, s);
  for (const auto& m : out) {
    std::printf("%-34s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const char* k : kDeterministic) {
    for (const auto& m : out) {
      if (m.name == k) {
        std::printf("deterministic %s = %s\n", k, num(m.value).c_str());
      }
    }
  }
  if (!o.trace_dir.empty()) {
    fs::create_directories(o.trace_dir);
    const fs::path p = fs::path(o.trace_dir) /
                       (s.name + "-seed" + std::to_string(o.seed) + ".json");
    if (spans.write(p.string())) {
      std::printf("spans: %zu written to %s\n", spans.size(),
                  p.string().c_str());
    }
  }
  print_result(correct, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace qbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return qbench::self_test();
  }
  try {
    return qbench::run(qbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench: %s\n", e.what());
    return 1;
  }
}
