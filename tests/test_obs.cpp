// Tests for the observability layer (src/obs): metrics registry
// exactness under concurrency, trace ring semantics, JSON validity of
// both exporters, and the "observability never perturbs execution"
// state-hash invariance guarantee.
//
// When built with -DQUECC_OBS_COMPILED_OUT the registry/trace tests that
// assert recorded values are skipped (handles are inert by design), while
// the exporter-validity and state-hash tests still run — pinning that the
// compiled-out configuration stays well-formed and bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "core/engine.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

// --- minimal JSON validator -------------------------------------------------
// Recursive-descent acceptor for the full JSON grammar; no tree is built.
// Enough to pin "the exporters emit valid JSON" without a dependency.
class json_checker {
 public:
  static bool valid(const std::string& s) {
    json_checker c(s);
    c.skip_ws();
    if (!c.value()) return false;
    c.skip_ws();
    return c.pos_ == s.size();
  }

 private:
  explicit json_checker(const std::string& s) : s_(s) {}

  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(json_checker::valid(R"({"a":[1,2.5,-3e2],"b":"x\n","c":null})"));
  EXPECT_TRUE(json_checker::valid("[]"));
  EXPECT_FALSE(json_checker::valid("{"));
  EXPECT_FALSE(json_checker::valid(R"({"a":1,})"));
  EXPECT_FALSE(json_checker::valid("[1 2]"));
  EXPECT_FALSE(json_checker::valid(R"("unterminated)"));
}

std::uint64_t counter_value(const obs::metrics_snapshot& s,
                            const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

class ObsTest : public testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::reset_metrics();
    obs::set_tracing_enabled(false);
    obs::clear_trace();
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::clear_trace();
    obs::reset_metrics();
  }
};

#if defined(QUECC_OBS_COMPILED_OUT)
#define OBS_SKIP_IF_COMPILED_OUT() \
  GTEST_SKIP() << "observability compiled out"
#else
#define OBS_SKIP_IF_COMPILED_OUT() (void)0
#endif

// --- metrics registry -------------------------------------------------------

TEST_F(ObsTest, ConcurrentCounterIncrementsAreExact) {
  OBS_SKIP_IF_COMPILED_OUT();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  const obs::counter c("obs_test.concurrent_total");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
      c.inc(5);  // bulk increments count too
    });
  }
  for (auto& t : threads) t.join();
  // The threads exited, so their shards folded into the retired
  // accumulator — the total must survive exactly.
  const auto snap = obs::snapshot_metrics();
  EXPECT_EQ(counter_value(snap, "obs_test.concurrent_total"),
            kThreads * (kPerThread + 5));
}

TEST_F(ObsTest, RegistrationIsIdempotentByName) {
  OBS_SKIP_IF_COMPILED_OUT();
  const obs::counter a("obs_test.shared_total");
  const obs::counter b("obs_test.shared_total");
  a.inc(3);
  b.inc(4);
  const auto snap = obs::snapshot_metrics();
  EXPECT_EQ(counter_value(snap, "obs_test.shared_total"), 7u);
}

TEST_F(ObsTest, KindMismatchThrows) {
  OBS_SKIP_IF_COMPILED_OUT();
  const obs::counter c("obs_test.kind_probe");
  EXPECT_THROW(obs::gauge("obs_test.kind_probe"), std::logic_error);
  EXPECT_THROW(obs::histogram("obs_test.kind_probe"), std::logic_error);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  OBS_SKIP_IF_COMPILED_OUT();
  const obs::gauge g("obs_test.depth");
  g.set(10);
  g.add(5);
  g.add(-12);
  const auto snap = obs::snapshot_metrics();
  std::int64_t v = 0;
  for (const auto& [n, gv] : snap.gauges) {
    if (n == "obs_test.depth") v = gv;
  }
  EXPECT_EQ(v, 3);
}

TEST_F(ObsTest, HistogramShardsMergeAcrossThreads) {
  OBS_SKIP_IF_COMPILED_OUT();
  const obs::histogram h("obs_test.latency_nanos");
  common::latency_histogram reference;
  static constexpr std::uint64_t kSamples[] = {100, 900, 5000, 70000,
                                               1000000};
  for (const std::uint64_t ns : kSamples) reference.record_nanos(ns);

  // Each thread records the full sample set into its own shard; the
  // scrape must merge them into exactly 4x the reference distribution.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (const std::uint64_t ns : kSamples) h.record_nanos(ns);
    });
  }
  for (auto& t : threads) t.join();

  const auto snap = obs::snapshot_metrics();
  const common::latency_histogram* merged = nullptr;
  for (const auto& [n, hist] : snap.histograms) {
    if (n == "obs_test.latency_nanos") merged = &hist;
  }
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), 4 * reference.count());
  EXPECT_EQ(merged->sum_nanos(), 4 * reference.sum_nanos());
  for (std::size_t b = 0; b < common::latency_histogram::kBuckets; ++b) {
    EXPECT_EQ(merged->bucket_count(b), 4 * reference.bucket_count(b))
        << "bucket " << b;
  }
}

TEST_F(ObsTest, DisabledMetricsDropIncrements) {
  OBS_SKIP_IF_COMPILED_OUT();
  const obs::counter c("obs_test.gated_total");
  c.inc();
  obs::set_metrics_enabled(false);
  c.inc(100);
  obs::set_metrics_enabled(true);
  c.inc();
  const auto snap = obs::snapshot_metrics();
  EXPECT_EQ(counter_value(snap, "obs_test.gated_total"), 2u);
}

TEST_F(ObsTest, ResetZeroesButKeepsNames) {
  OBS_SKIP_IF_COMPILED_OUT();
  const obs::counter c("obs_test.reset_total");
  c.inc(42);
  obs::reset_metrics();
  c.inc(1);
  const auto snap = obs::snapshot_metrics();
  EXPECT_EQ(counter_value(snap, "obs_test.reset_total"), 1u);
}

TEST_F(ObsTest, SnapshotIsNameSorted) {
  OBS_SKIP_IF_COMPILED_OUT();
  obs::counter("obs_test.zz_total").inc();
  obs::counter("obs_test.aa_total").inc();
  const auto snap = obs::snapshot_metrics();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

// --- metrics JSON exporter --------------------------------------------------

TEST_F(ObsTest, MetricsJsonIsValidAndCarriesSections) {
  obs::counter("obs_test.json_total").inc(7);
  obs::gauge("obs_test.json_depth").set(-2);
  obs::histogram("obs_test.json_nanos").record_nanos(1500);
  std::ostringstream os;
  obs::write_metrics_json(os);
  const std::string doc = os.str();
  EXPECT_TRUE(json_checker::valid(doc)) << doc;
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
#if !defined(QUECC_OBS_COMPILED_OUT)
  EXPECT_NE(doc.find("\"obs_test.json_total\":7"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"obs_test.json_depth\":-2"), std::string::npos);
  // Histogram shape: count + percentile estimates + sparse buckets.
  EXPECT_NE(doc.find("\"p50_nanos\""), std::string::npos);
  EXPECT_NE(doc.find("\"buckets\""), std::string::npos);
#endif
}

TEST_F(ObsTest, JsonWriterEscapesStrings) {
  std::ostringstream os;
  {
    obs::json_writer w(os);
    w.begin_object();
    w.kv("k\"ey\n", "va\\lue\t\x01");
    w.end_object();
  }
  const std::string doc = os.str();
  EXPECT_TRUE(json_checker::valid(doc)) << doc;
}

// --- trace recorder ---------------------------------------------------------

TEST_F(ObsTest, RingWrapKeepsNewestEvents) {
  OBS_SKIP_IF_COMPILED_OUT();
  obs::set_tracing_enabled(true);
  // Overfill one thread's ring by 2x: the survivors must be exactly the
  // newest kTraceRingCapacity events, none torn.
  const std::size_t total = 2 * obs::kTraceRingCapacity;
  for (std::size_t i = 0; i < total; ++i) {
    obs::record_span(obs::trace_stage::plan, /*start=*/i + 1, /*dur=*/2,
                     /*batch=*/i, /*slot=*/3);
  }
  const auto events = obs::snapshot_trace();
  ASSERT_EQ(events.size(), obs::kTraceRingCapacity);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    const std::size_t expect = obs::kTraceRingCapacity + i;
    EXPECT_EQ(e.start_nanos, expect + 1);
    EXPECT_EQ(e.dur_nanos, 2u);
    EXPECT_EQ(e.batch, expect);
    EXPECT_EQ(e.slot, 3u);
    EXPECT_EQ(e.stage, obs::trace_stage::plan);
  }
}

TEST_F(ObsTest, PerThreadTimestampsAreMonotone) {
  OBS_SKIP_IF_COMPILED_OUT();
  obs::set_tracing_enabled(true);
  // Each thread records a chain of sequential RAII spans; within one
  // thread (= one ring = one tid) the spans must be non-overlapping and
  // ordered: monotone clock, no torn events.
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([t] {
      for (std::uint64_t i = 0; i < 200; ++i) {
        obs::trace_span span(obs::trace_stage::exec, /*batch=*/i,
                             /*slot=*/static_cast<std::uint32_t>(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto events = obs::snapshot_trace();
  ASSERT_EQ(events.size(), 3u * 200u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].tid != events[i - 1].tid) continue;
    EXPECT_GE(events[i].start_nanos,
              events[i - 1].start_nanos + events[i - 1].dur_nanos)
        << "overlapping spans within tid " << events[i].tid;
  }
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  OBS_SKIP_IF_COMPILED_OUT();
  obs::record_span(obs::trace_stage::plan, 1, 1);
  { obs::trace_span span(obs::trace_stage::exec); }
  EXPECT_TRUE(obs::snapshot_trace().empty());
}

TEST_F(ObsTest, ReenableDropsOldGeneration) {
  OBS_SKIP_IF_COMPILED_OUT();
  obs::set_tracing_enabled(true);
  obs::record_span(obs::trace_stage::plan, 1, 1);
  obs::set_tracing_enabled(false);
  obs::set_tracing_enabled(true);  // fresh generation
  obs::record_span(obs::trace_stage::exec, 10, 1);
  const auto events = obs::snapshot_trace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].stage, obs::trace_stage::exec);
}

TEST_F(ObsTest, ChromeTraceJsonIsValid) {
  obs::set_tracing_enabled(true);
  obs::record_span(obs::trace_stage::plan, 1000, 500, /*batch=*/7,
                   /*slot=*/1);
  obs::record_span(obs::trace_stage::checkpoint, 2000, 300);  // no batch
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string doc = os.str();
  EXPECT_TRUE(json_checker::valid(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
#if !defined(QUECC_OBS_COMPILED_OUT)
  EXPECT_NE(doc.find("\"name\":\"plan\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"batch\":7"), std::string::npos);
  // The batch-less span must not claim a batch/slot.
  EXPECT_NE(doc.find("\"name\":\"checkpoint\""), std::string::npos);
#endif
}

// A checkpoint's capture (the pipeline stall) is recorded at the batch
// boundary by the epilogue owner; its persist span comes from the
// background persister thread. checkpoint.duration_nanos covers both.
TEST_F(ObsTest, CheckpointCaptureAndPersistAreRecordedSeparately) {
  OBS_SKIP_IF_COMPILED_OUT();
  std::string dir =
      (std::filesystem::temp_directory_path() / "quecc-obs-XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  obs::set_tracing_enabled(true);
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  auto w = wl::ycsb(wcfg);
  auto db = testutil::make_loaded_db(w);
  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 2;
  cfg.durable = true;
  cfg.log_dir = dir;
  cfg.checkpoint_interval_batches = 2;
  {
    core::quecc_engine eng(*db, cfg);
    common::rng r(7);
    common::run_metrics m;
    for (int i = 0; i < 4; ++i) {
      auto b = w.make_batch(r, 256, i);
      eng.run_batch(b, m);
    }
  }  // joins the persister
  obs::set_tracing_enabled(false);
  std::filesystem::remove_all(dir);

  const auto snap = obs::snapshot_metrics();
  const common::latency_histogram* capture = nullptr;
  const common::latency_histogram* total = nullptr;
  for (const auto& [n, hist] : snap.histograms) {
    if (n == "checkpoint.capture_nanos") capture = &hist;
    if (n == "checkpoint.duration_nanos") total = &hist;
  }
  ASSERT_NE(capture, nullptr);
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(capture->count(), 2u);
  EXPECT_EQ(total->count(), 2u);
  EXPECT_GE(total->sum_nanos(), capture->sum_nanos());

  std::vector<std::uint32_t> capture_tids, persist_tids;
  for (const auto& ev : obs::snapshot_trace()) {
    if (ev.stage == obs::trace_stage::checkpoint_capture) {
      capture_tids.push_back(ev.tid);
    } else if (ev.stage == obs::trace_stage::checkpoint) {
      persist_tids.push_back(ev.tid);
    }
  }
  ASSERT_EQ(capture_tids.size(), 2u);
  ASSERT_EQ(persist_tids.size(), 2u);
  for (std::uint32_t p : persist_tids) {
    for (std::uint32_t c : capture_tids) EXPECT_NE(p, c);
  }
}

// --- observability never perturbs execution ---------------------------------

std::uint64_t run_engine_hash(bool obs_on) {
  obs::set_metrics_enabled(obs_on);
  obs::set_tracing_enabled(obs_on);
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wcfg.zipf_theta = 0.9;
  wcfg.read_ratio = 0.5;
  auto w = wl::ycsb(wcfg);
  auto db = testutil::make_loaded_db(w);

  common::config cfg;
  cfg.planner_threads = 2;
  cfg.executor_threads = 2;
  cfg.batch_size = 256;

  common::rng r(7);
  common::run_metrics m;
  {
    core::quecc_engine eng(*db, cfg);
    for (int i = 0; i < 3; ++i) {
      auto b = w.make_batch(r, 256, i);
      eng.run_batch(b, m);
    }
  }
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(true);
  return db->state_hash();
}

TEST_F(ObsTest, StateHashInvariantUnderObservability) {
  // The same workload must produce a bit-identical database whether the
  // metrics/trace layer records everything or nothing. Building the whole
  // suite with -DQUECC_OBS_COMPILED_OUT runs this same test against the
  // compiled-out layer, closing the enabled-vs-compiled-out leg.
  const std::uint64_t with_obs = run_engine_hash(true);
  const std::uint64_t without_obs = run_engine_hash(false);
  EXPECT_EQ(with_obs, without_obs);
}

}  // namespace
}  // namespace quecc
