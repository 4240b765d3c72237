// Batch-pipelining tests: pipeline_depth must be invisible in results.
//
// The engine's two Figure 1 stages overlap across batches at depth >= 2
// (planners on batch i+1 while batch i executes), but execution and the
// commit epilogue stay sequential by batch id — so a depth-N run must
// produce bit-identical state to the depth-1 lockstep on every workload,
// execution model, isolation level, and arrival mode. These tests pin that
// contract, plus the submit/drain API mechanics and the per-slot phase
// stats that make the overlap observable.
#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "core/engine.hpp"
#include "harness/runner.hpp"
#include "protocols/iface.hpp"
#include "protocols/session.hpp"
#include "test_util.hpp"
#include "workload/bank.hpp"
#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

using common::config;
using common::exec_model;
using common::isolation;

config base_cfg(std::uint32_t depth, exec_model exec,
                isolation iso = isolation::serializable) {
  config cfg;
  cfg.planner_threads = 2;
  cfg.executor_threads = 2;
  cfg.pipeline_depth = depth;
  cfg.execution = exec;
  cfg.iso = iso;
  return cfg;
}

std::unique_ptr<wl::workload> make_named(const std::string& name) {
  if (name == "ycsb") {
    wl::ycsb_config w;
    w.table_size = 4096;
    w.zipf_theta = 0.8;
    w.read_ratio = 0.5;
    w.abort_ratio = 0.05;
    return std::make_unique<wl::ycsb>(w);
  }
  if (name == "bank") {
    wl::bank_config w;
    w.accounts = 512;
    w.max_transfer = 1500;  // often exceeds balance => aborts
    return std::make_unique<wl::bank>(w);
  }
  wl::tpcc_config w;
  w.warehouses = 2;
  w.initial_orders_per_district = 40;
  w.order_headroom_per_district = 2000;
  return std::make_unique<wl::tpcc>(w);
}

/// Closed-loop hash of `batches` batches at the given depth/exec/iso.
std::uint64_t closed_loop_hash(const std::string& wname, std::uint32_t depth,
                               exec_model exec,
                               isolation iso = isolation::serializable,
                               std::uint32_t batches = 6) {
  auto w = make_named(wname);
  storage::database db;
  w->load(db);
  core::quecc_engine eng(db, base_cfg(depth, exec, iso));
  harness::run_options opts;
  opts.batches = batches;
  opts.batch_size = 256;
  opts.seed = 2027;
  const auto res = harness::run_workload(eng, *w, db, opts);
  EXPECT_EQ(res.metrics.committed + res.metrics.aborted, opts.total_txns());
  EXPECT_EQ(res.metrics.batches, batches);
  return res.final_state_hash;
}

// --- depth-1 ≡ depth-2 on every workload / exec-model combination ---------

struct det_params {
  const char* workload;
  exec_model exec;
};

std::string det_name(const testing::TestParamInfo<det_params>& info) {
  return std::string(info.param.workload) + "_" +
         (info.param.exec == exec_model::speculative ? "spec" : "cons");
}

class PipelineDeterminism : public testing::TestWithParam<det_params> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineDeterminism,
    testing::Values(det_params{"ycsb", exec_model::speculative},
                    det_params{"ycsb", exec_model::conservative},
                    det_params{"bank", exec_model::speculative},
                    det_params{"bank", exec_model::conservative},
                    det_params{"tpcc", exec_model::speculative},
                    det_params{"tpcc", exec_model::conservative}),
    det_name);

TEST_P(PipelineDeterminism, ClosedLoopDepth2MatchesLockstep) {
  const auto [wname, exec] = GetParam();
  const auto h1 = closed_loop_hash(wname, 1, exec);
  const auto h2 = closed_loop_hash(wname, 2, exec);
  EXPECT_EQ(h1, h2);
}

TEST_P(PipelineDeterminism, OpenLoopDepth2MatchesLockstepClosedLoop) {
  const auto [wname, exec] = GetParam();
  const auto closed = closed_loop_hash(wname, 1, exec, isolation::serializable,
                                       /*batches=*/4);

  auto w = make_named(wname);
  storage::database db;
  w->load(db);
  core::quecc_engine eng(db, base_cfg(2, exec));
  harness::run_options opts;
  opts.batches = 4;
  opts.batch_size = 256;
  opts.seed = 2027;
  opts.mode = harness::arrival_mode::open_loop;
  opts.offered_load_tps = 2e6;  // keep the admission queue backed up
  opts.batch_deadline_micros = 200;
  const auto res = harness::run_workload(eng, *w, db, opts);
  EXPECT_EQ(res.metrics.committed + res.metrics.aborted, opts.total_txns());
  EXPECT_EQ(res.final_state_hash, closed);
}

TEST(PipelineDeterminism, DeeperRingsAndWiderGeometriesAgree) {
  const auto h1 = closed_loop_hash("ycsb", 1, exec_model::speculative);
  EXPECT_EQ(h1, closed_loop_hash("ycsb", 3, exec_model::speculative));
  EXPECT_EQ(h1, closed_loop_hash("ycsb", 4, exec_model::speculative));
}

TEST(PipelineDeterminism, ReadCommittedPublishesAtSlotBoundary) {
  // RC publishes the committed image in the (per-slot) epilogue; depth
  // must not change which batch's writes a read queue observes.
  const auto h1 = closed_loop_hash("ycsb", 1, exec_model::speculative,
                                   isolation::read_committed);
  const auto h2 = closed_loop_hash("ycsb", 2, exec_model::speculative,
                                   isolation::read_committed);
  EXPECT_EQ(h1, h2);
}

TEST(PipelineDeterminism, ReadCommittedReadsMatchLockstepUnderIndexChurn) {
  // TPC-C under read-committed: NewOrder inserts and Delivery erases
  // mutate the primary indexes mid-batch while pure reads sit in the
  // dynamically-claimed read queues. Their rids must resolve at the
  // quiescent point (batch_slot::resolve_read_queues), or depth >= 2
  // would make the read *values* timing-dependent — which state hashes
  // alone cannot catch, so compare per-transaction result fingerprints.
  // TPC-C's generator is stateful (district order counters), so each
  // engine gets its own workload + database producing the identical,
  // independent stream.
  struct outcome {
    std::vector<std::vector<std::uint64_t>> fingerprints;
    std::uint64_t hash;
  };
  auto run_at_depth = [](std::uint32_t depth) {
    wl::tpcc_config wcfg;
    wcfg.warehouses = 2;
    wcfg.initial_orders_per_district = 40;
    wcfg.order_headroom_per_district = 2000;
    wl::tpcc w(wcfg);
    auto db = testutil::make_loaded_db(w);
    common::rng r(77);
    core::quecc_engine eng(*db, base_cfg(depth, exec_model::speculative,
                                         isolation::read_committed));
    common::run_metrics m;
    outcome out;
    std::deque<txn::batch> inflight;
    for (int i = 0; i < 4; ++i) {
      inflight.push_back(w.make_batch(r, 256, i));
      eng.submit_batch(inflight.back(), m);
    }
    while (eng.drain_batch()) {
    }
    for (auto& b : inflight) {
      auto fp = testutil::result_fingerprints(b);
      out.fingerprints.insert(out.fingerprints.end(), fp.begin(), fp.end());
    }
    out.hash = db->state_hash();
    return out;
  };
  const outcome lockstep = run_at_depth(1);
  const outcome pipelined = run_at_depth(2);
  EXPECT_EQ(lockstep.hash, pipelined.hash);
  EXPECT_EQ(lockstep.fingerprints, pipelined.fingerprints);
}

// --- third stage (async commit epilogue) -----------------------------------

/// Hash of a fixed YCSB stream through any registered engine at the given
/// depth, with the third pipeline stage (async epilogue) on or off. RC
/// isolation: the epilogue publishes the committed image, so a misplaced
/// publication point shows up directly in read values (and thus writes
/// derived from them — the state hash).
std::uint64_t stage3_hash(const std::string& engine, std::uint32_t depth,
                          exec_model exec, bool stage3,
                          isolation iso = isolation::read_committed) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wcfg.partitions = 4;
  wcfg.zipf_theta = 0.8;
  wcfg.read_ratio = 0.5;
  wcfg.abort_ratio = 0.05;
  wcfg.multi_partition_ratio = engine == "dist-quecc" ? 0.3 : 0.0;
  wl::ycsb w(wcfg);
  storage::database db;
  w.load(db);
  config cfg = base_cfg(depth, exec, iso);
  cfg.partitions = 4;
  cfg.async_epilogue = stage3;
  if (engine == "dist-quecc") {
    cfg.nodes = 2;
    cfg.net_latency_micros = 10;
  }
  auto eng = proto::make_engine(engine, db, cfg);
  harness::run_options opts;
  opts.batches = 5;
  opts.batch_size = 256;
  opts.seed = 2027;
  const auto res = harness::run_workload(*eng, w, db, opts);
  EXPECT_EQ(res.metrics.committed + res.metrics.aborted, opts.total_txns());
  return res.final_state_hash;
}

struct stage3_params {
  const char* engine;
  exec_model exec;
};

std::string stage3_name(const testing::TestParamInfo<stage3_params>& info) {
  std::string e = info.param.engine;
  for (auto& c : e) {
    if (c == '-') c = '_';
  }
  return e + "_" +
         (info.param.exec == exec_model::speculative ? "spec" : "cons");
}

class ThreeStageDeterminism : public testing::TestWithParam<stage3_params> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, ThreeStageDeterminism,
    testing::Values(stage3_params{"quecc", exec_model::speculative},
                    stage3_params{"quecc", exec_model::conservative},
                    stage3_params{"dist-quecc", exec_model::speculative},
                    stage3_params{"dist-quecc", exec_model::conservative}),
    stage3_name);

TEST_P(ThreeStageDeterminism, RcHashesIdenticalAcrossDepthsAndStage3) {
  // The whole depth x stage3 grid must collapse to one hash: the inline
  // depth-1 lockstep (the paper's semantics) is the baseline.
  const auto [engine, exec] = GetParam();
  const auto baseline = stage3_hash(engine, 1, exec, /*stage3=*/false);
  for (std::uint32_t depth : {1u, 2u, 3u}) {
    for (bool s3 : {false, true}) {
      EXPECT_EQ(stage3_hash(engine, depth, exec, s3), baseline)
          << engine << " depth=" << depth << " stage3=" << s3;
    }
  }
}

TEST(ThreeStageDeterminism, SerializableAgreesWithInlineLockstep) {
  const auto base = stage3_hash("quecc", 1, exec_model::speculative,
                                /*stage3=*/false, isolation::serializable);
  EXPECT_EQ(stage3_hash("quecc", 3, exec_model::speculative, true,
                        isolation::serializable),
            base);
  EXPECT_EQ(stage3_hash("quecc", 3, exec_model::speculative, false,
                        isolation::serializable),
            base);
}

TEST(ThreeStageApi, EpilogueWorkerDtorDrainsLeftoverBatches) {
  // Depth-3, async epilogue on, no explicit drain: the destructor must
  // retire every in-flight batch *through the epilogue worker* (all
  // accounting lands in m) before joining threads.
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto db_ref = db->clone();
  common::rng r(21), rr(21);
  common::run_metrics m;
  std::deque<txn::batch> inflight;
  {
    auto cfg = base_cfg(3, exec_model::speculative);
    cfg.async_epilogue = true;
    core::quecc_engine eng(*db, cfg);
    for (int i = 0; i < 3; ++i) {
      inflight.push_back(w.make_batch(r, 128, i));
      eng.submit_batch(inflight.back(), m);
    }
  }
  EXPECT_EQ(m.batches, 3u);
  EXPECT_EQ(m.committed + m.aborted, 3u * 128u);

  auto cfg_ref = base_cfg(1, exec_model::speculative);
  cfg_ref.async_epilogue = false;
  core::quecc_engine ref(*db_ref, cfg_ref);
  common::run_metrics mr;
  for (int i = 0; i < 3; ++i) {
    auto b = w.make_batch(rr, 128, i);
    ref.run_batch(b, mr);
  }
  EXPECT_EQ(db->state_hash(), db_ref->state_hash());
  EXPECT_EQ(m.committed, mr.committed);
}

TEST(ThreeStageStats, EpilogueBusyIsAccountedAndSurfaced) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto cfg = base_cfg(3, exec_model::speculative);
  cfg.iso = isolation::read_committed;  // publish work makes epilogue busy
  core::quecc_engine eng(*db, cfg);
  harness::run_options opts;
  opts.batches = 4;
  opts.batch_size = 1024;
  const auto res = harness::run_workload(eng, w, *db, opts);
  EXPECT_GT(res.metrics.epilogue_busy_seconds, 0.0);
  EXPECT_NE(res.metrics.summary("quecc").find("epilogue_busy="),
            std::string::npos);
}

TEST(PipelineDeterminism, DistQueccDepth2MatchesLockstep) {
  auto hash_at = [](std::uint32_t depth) {
    wl::ycsb_config wcfg;
    wcfg.table_size = 4096;
    wcfg.partitions = 4;
    wcfg.multi_partition_ratio = 0.3;
    wl::ycsb w(wcfg);
    storage::database db;
    w.load(db);
    config cfg;
    cfg.planner_threads = 1;
    cfg.executor_threads = 2;
    cfg.nodes = 2;
    cfg.partitions = 4;
    cfg.net_latency_micros = 10;
    cfg.pipeline_depth = depth;
    auto eng = proto::make_engine("dist-quecc", db, cfg);
    harness::run_options opts;
    opts.batches = 4;
    opts.batch_size = 256;
    opts.seed = 11;
    const auto res = harness::run_workload(*eng, w, db, opts);
    EXPECT_EQ(res.metrics.committed + res.metrics.aborted, opts.total_txns());
    return res.final_state_hash;
  };
  EXPECT_EQ(hash_at(1), hash_at(2));
}

// --- index churn within the executors' prefetch distance -------------------
//
// Executors prefetch index buckets and rows a few queue entries ahead and
// take a hint rid for the row prefetch (core/executor.cpp). A hint taken
// before an earlier entry of the same queue erases or (re)inserts the key
// is stale by the time its own entry runs, so these batches put erase,
// insert, read and update of one key a few transactions apart — inside the
// prefetch window of the executor that owns the key's queue — and demand
// serial-oracle results at every depth, on both engines and both backends.

namespace churn {

constexpr part_id_t kParts = 4;
constexpr std::uint64_t kSinks = 64;      ///< keys [0, kSinks): never churned
constexpr std::uint64_t kLoaded = 2048;   ///< keys [0, kLoaded) start live
constexpr std::uint64_t kFresh = 100000;  ///< inserted keys start here
constexpr std::uint64_t kMissing = ~0ull;
constexpr std::size_t kEpisodes = 96;     ///< churned keys per batch

enum logic : std::uint16_t {
  op_read,
  op_check,
  op_update,
  op_insert,
  op_erase
};

part_id_t home(key_t k) { return static_cast<part_id_t>(k % kParts); }

txn::frag_status run(const txn::fragment& f, txn::txn_desc& t,
                     txn::frag_host& h) {
  switch (static_cast<logic>(f.logic)) {
    case op_read:
    case op_check: {
      const auto row = h.read_row(f, t);
      if (row.empty() && f.logic == op_check) return txn::frag_status::abort;
      t.produce(f.output_slot,
                row.empty() ? kMissing : storage::read_u64(row, 0));
      return txn::frag_status::ok;
    }
    case op_update: {
      auto row = h.update_row(f, t);
      if (!row.empty()) {
        const std::uint64_t in = f.input_mask != 0 ? t.slot_value(0) : 0;
        storage::write_u64(row, 0,
                           storage::read_u64(row, 0) * 31 + f.aux + in);
      }
      return txn::frag_status::ok;
    }
    case op_insert: {
      auto row = h.insert_row(f, t);
      if (!row.empty()) storage::write_u64(row, 0, f.aux);
      return txn::frag_status::ok;
    }
    case op_erase:
      h.erase_row(f, t);
      return txn::frag_status::ok;
  }
  return txn::frag_status::ok;
}

const txn::procedure& proc() {
  static const txn::procedure p("churn", &run, 1);
  return p;
}

/// 80-byte rows (ten u64 columns): a row straddles two cache lines at
/// every other slot, so the row prefetch covers both.
void load(storage::database& db, storage::index_kind idx) {
  std::vector<storage::column> cols;
  for (int i = 0; i < 10; ++i) {
    cols.push_back({"F" + std::to_string(i), storage::col_type::u64, 8});
  }
  auto& tab = db.create_table(
      "churn", storage::schema(std::move(cols)).with_index(idx), 4 * kLoaded,
      kParts);
  std::vector<std::byte> row(tab.layout().row_size());
  for (key_t k = 0; k < kLoaded; ++k) {
    storage::write_u64(row, 0, k * 7 + 1);
    tab.insert(k, row, home(k));
  }
}

txn::fragment frag(key_t k, txn::op_kind kind, logic l,
                   std::uint64_t aux = 0) {
  txn::fragment f;
  f.table = 0;
  f.key = k;
  f.part = home(k);
  f.kind = kind;
  f.logic = l;
  f.aux = aux;
  return f;
}

/// One-fragment txn, or a read of `k` feeding an update of `sink` when
/// `sink` is given (so a stale read changes the state hash, not just a
/// result slot).
std::unique_ptr<txn::txn_desc> make_txn(txn::fragment first,
                                        key_t sink = kInvalidKey) {
  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &proc();
  if (first.logic == op_read || first.logic == op_check) {
    first.output_slot = 0;
    first.abortable = first.logic == op_check;
  }
  t->frags.push_back(first);
  if (sink != kInvalidKey) {
    auto f = frag(sink, txn::op_kind::update, op_update, 3);
    f.idx = 1;
    f.input_mask = 1;
    t->frags.push_back(f);
  }
  return t;
}

/// Episodes of erase→read, insert→read/update and erase→reinsert→read on
/// distinct keys, each step 1–4 transactions after the previous one.
txn::batch make_batch(std::uint32_t id) {
  common::rng r(1000 + id);
  txn::batch b(id);
  auto fillers = [&] {
    for (std::uint64_t n = r.next_below(4); n > 0; --n) {
      const key_t s = r.next_below(kSinks);
      b.add(make_txn(frag(s, txn::op_kind::update, op_update, n)));
    }
  };
  auto sink = [&] { return static_cast<key_t>(r.next_below(kSinks)); };
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    const key_t k = kSinks + id * kEpisodes + e;
    const key_t fresh = kFresh + id * kEpisodes + e;
    switch (e % 3) {
      case 0:  // erase, then read / abortable read / update the gone key
        b.add(make_txn(frag(k, txn::op_kind::erase, op_erase)));
        fillers();
        b.add(make_txn(frag(k, txn::op_kind::read, op_read), sink()));
        fillers();
        b.add(make_txn(frag(k, txn::op_kind::read, op_check), sink()));
        fillers();
        b.add(make_txn(frag(k, txn::op_kind::update, op_update, e)));
        break;
      case 1:  // insert a fresh key, then read and update it
        b.add(make_txn(frag(fresh, txn::op_kind::insert, op_insert, e)));
        fillers();
        b.add(make_txn(frag(fresh, txn::op_kind::read, op_check), sink()));
        fillers();
        b.add(make_txn(frag(fresh, txn::op_kind::update, op_update, e)));
        break;
      default:  // erase and re-insert: the key's rid changes mid-batch
        b.add(make_txn(frag(k, txn::op_kind::read, op_read), sink()));
        b.add(make_txn(frag(k, txn::op_kind::erase, op_erase)));
        fillers();
        b.add(make_txn(frag(k, txn::op_kind::insert, op_insert, e + 500)));
        fillers();
        b.add(make_txn(frag(k, txn::op_kind::read, op_check), sink()));
        b.add(make_txn(frag(k, txn::op_kind::update, op_update, e)));
        break;
    }
    fillers();
  }
  b.validate();
  return b;
}

}  // namespace churn

struct churn_params {
  const char* engine;
  exec_model exec;
  std::uint32_t depth;
  storage::index_kind index;
};

std::string churn_name(const testing::TestParamInfo<churn_params>& info) {
  std::string n = info.param.engine;
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n + (info.param.exec == exec_model::speculative ? "_spec" : "_cons") +
         "_d" + std::to_string(info.param.depth) + "_" +
         storage::index_kind_name(info.param.index);
}

class PrefetchChurn : public testing::TestWithParam<churn_params> {};

std::vector<churn_params> churn_grid() {
  std::vector<churn_params> v;
  for (const char* e : {"quecc", "dist-quecc"}) {
    for (auto x : {exec_model::speculative, exec_model::conservative}) {
      for (std::uint32_t d : {1u, 2u, 3u}) {
        for (auto i :
             {storage::index_kind::hash, storage::index_kind::ordered}) {
          v.push_back({e, x, d, i});
        }
      }
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Grid, PrefetchChurn, testing::ValuesIn(churn_grid()),
                         churn_name);

TEST_P(PrefetchChurn, HintsNeverChangeResults) {
  const auto [engine, exec, depth, index] = GetParam();
  std::deque<txn::batch> batches;
  storage::database db;
  churn::load(db, index);
  std::vector<std::vector<std::uint64_t>> fps;
  {
    config cfg = base_cfg(depth, exec);
    cfg.partitions = churn::kParts;
    if (std::string(engine) == "dist-quecc") {
      cfg.planner_threads = 1;
      cfg.nodes = 2;
      cfg.net_latency_micros = 10;
    }
    auto eng = proto::make_engine(engine, db, cfg);
    common::run_metrics m;
    for (std::uint32_t i = 0; i < 4; ++i) {
      batches.push_back(churn::make_batch(i));
      eng->submit_batch(batches.back(), m);
    }
    while (eng->drain_batch()) {
    }
    for (const auto& b : batches) {
      auto fp = testutil::result_fingerprints(b);
      fps.insert(fps.end(), fp.begin(), fp.end());
    }
  }
  storage::database ref;
  churn::load(ref, index);
  std::vector<std::vector<std::uint64_t>> ref_fps;
  for (auto& b : batches) {
    testutil::replay_in_seq_order(ref, b);
    auto fp = testutil::result_fingerprints(b);
    ref_fps.insert(ref_fps.end(), fp.begin(), fp.end());
  }
  EXPECT_EQ(db.state_hash(), ref.state_hash());
  EXPECT_EQ(db.at(0).live_rows(), ref.at(0).live_rows());
  EXPECT_EQ(fps, ref_fps);
}

// --- submit/drain API mechanics -------------------------------------------

TEST(PipelineApi, SubmitDrainPairEqualsRunBatch) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wl::ycsb w(wcfg);

  auto db1 = testutil::make_loaded_db(w);
  auto db2 = db1->clone();
  common::rng r1(9), r2(9);

  core::quecc_engine e1(*db1, base_cfg(2, exec_model::speculative));
  common::run_metrics m1;
  for (int i = 0; i < 3; ++i) {
    auto b = w.make_batch(r1, 200, i);
    e1.run_batch(b, m1);
  }

  core::quecc_engine e2(*db2, base_cfg(2, exec_model::speculative));
  common::run_metrics m2;
  std::deque<txn::batch> inflight;
  for (int i = 0; i < 3; ++i) {
    inflight.push_back(w.make_batch(r2, 200, i));
    e2.submit_batch(inflight.back(), m2);
  }
  while (e2.drain_batch()) {
  }
  EXPECT_EQ(db1->state_hash(), db2->state_hash());
  EXPECT_EQ(m1.committed, m2.committed);
  EXPECT_EQ(m1.aborted, m2.aborted);
  EXPECT_EQ(m2.batches, 3u);
}

TEST(PipelineApi, DrainWithNothingInFlightIsANoOp) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 512;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  core::quecc_engine eng(*db, base_cfg(2, exec_model::speculative));
  EXPECT_FALSE(eng.drain_batch());
  EXPECT_EQ(eng.pipeline_depth(), 2u);
}

TEST(PipelineApi, SubmitBeyondDepthRetiresOldestFirst) {
  // Submitting more batches than the ring holds must transparently drain
  // the oldest (the engine does it on the caller's behalf).
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto db_ref = db->clone();
  common::rng r(4), rr(4);

  core::quecc_engine eng(*db, base_cfg(2, exec_model::speculative));
  common::run_metrics m;
  std::deque<txn::batch> inflight;
  for (int i = 0; i < 6; ++i) {
    inflight.push_back(w.make_batch(r, 128, i));
    eng.submit_batch(inflight.back(), m);
  }
  while (eng.drain_batch()) {
  }
  EXPECT_EQ(m.batches, 6u);
  EXPECT_EQ(m.committed + m.aborted, 6u * 128u);

  core::quecc_engine ref(*db_ref, base_cfg(1, exec_model::speculative));
  common::run_metrics mr;
  for (int i = 0; i < 6; ++i) {
    auto b = w.make_batch(rr, 128, i);
    ref.run_batch(b, mr);
  }
  EXPECT_EQ(db->state_hash(), db_ref->state_hash());
}

TEST(PipelineApi, EngineDestructorDrainsLeftoverBatches) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  common::rng r(21);
  common::run_metrics m;
  std::deque<txn::batch> inflight;
  {
    core::quecc_engine eng(*db, base_cfg(2, exec_model::speculative));
    for (int i = 0; i < 2; ++i) {
      inflight.push_back(w.make_batch(r, 128, i));
      eng.submit_batch(inflight.back(), m);
    }
    // No drain: the destructor must retire both before stopping workers.
  }
  EXPECT_EQ(m.batches, 2u);
  EXPECT_EQ(m.committed + m.aborted, 2u * 128u);
}

// --- per-slot phase stats --------------------------------------------------

TEST(PipelineStats, BusyTimesAndOccupancyAreReported) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1 << 14;
  wcfg.ops_per_txn = 8;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  core::quecc_engine eng(*db, base_cfg(2, exec_model::speculative));

  harness::run_options opts;
  opts.batches = 4;
  opts.batch_size = 2048;
  const auto res = harness::run_workload(eng, w, *db, opts);

  EXPECT_GT(res.metrics.plan_busy_seconds, 0.0);
  EXPECT_GT(res.metrics.exec_busy_seconds, 0.0);
  EXPECT_GE(res.metrics.pipeline_overlap_seconds, 0.0);
  // summary() must surface the stage accounting at depth >= 2.
  EXPECT_NE(res.metrics.summary("quecc").find("stages{"), std::string::npos);

  const auto& ph = eng.last_phases();
  EXPECT_GT(ph.plan_seconds, 0.0);
  EXPECT_GT(ph.exec_seconds, 0.0);
  EXPECT_GT(ph.plan_busy_seconds, 0.0);
  EXPECT_GT(ph.exec_busy_seconds, 0.0);
  EXPECT_GT(ph.planned_fragments, 0u);
}

TEST(PipelineStats, OverlapIsObservedWhenBatchesAreInFlightTogether) {
  // Two fat batches submitted back to back: batch 1's planning window
  // necessarily intersects batch 0's execution window (both are in flight
  // between the submits and the first drain). Wall-clock windows overlap
  // even on a single-CPU box as long as planning 1 starts before exec 0
  // finishes, which the batch size makes effectively certain.
  wl::ycsb_config wcfg;
  wcfg.table_size = 1 << 14;
  wcfg.ops_per_txn = 16;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  core::quecc_engine eng(*db, base_cfg(2, exec_model::speculative));

  common::rng r(1);
  common::run_metrics m;
  std::deque<txn::batch> inflight;
  for (int i = 0; i < 4; ++i) {
    inflight.push_back(w.make_batch(r, 8192, i));
    eng.submit_batch(inflight.back(), m);
  }
  while (eng.drain_batch()) {
  }
  if (std::thread::hardware_concurrency() >= 4) {
    EXPECT_GT(m.pipeline_overlap_seconds, 0.0);
  } else {
    EXPECT_GE(m.pipeline_overlap_seconds, 0.0);
  }
}

TEST(PipelineStats, LockstepReportsZeroOverlap) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  core::quecc_engine eng(*db, base_cfg(1, exec_model::speculative));
  harness::run_options opts;
  opts.batches = 3;
  opts.batch_size = 512;
  const auto res = harness::run_workload(eng, w, *db, opts);
  EXPECT_EQ(res.metrics.pipeline_overlap_seconds, 0.0);
  EXPECT_EQ(eng.last_phases().overlap_seconds, 0.0);
}

// --- sessions over a pipelined engine --------------------------------------

TEST(PipelineSession, TicketsResolveWithTwoBatchesInFlight) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);

  auto cfg = base_cfg(2, exec_model::speculative);
  cfg.batch_size = 64;
  cfg.batch_deadline_micros = 200;
  core::quecc_engine eng(*db, cfg);
  common::rng r(33);

  proto::session s(eng, cfg);
  std::vector<proto::session::ticket> tickets;
  for (int i = 0; i < 512; ++i) tickets.push_back(s.submit(w.make_txn(r)));
  std::uint64_t done = 0;
  for (auto& t : tickets) {
    const auto res = t.wait();
    EXPECT_NE(res.status, txn::txn_status::active);
    EXPECT_GE(res.e2e_nanos, res.queue_nanos);
    ++done;
  }
  s.close();
  EXPECT_EQ(done, 512u);
  EXPECT_EQ(s.metrics().committed + s.metrics().aborted, 512u);
  EXPECT_GE(s.batches_formed(), 512u / 64u);
}

}  // namespace
}  // namespace quecc
