// Unit tests: harness (runner, report formatting), the async submission
// path (admission queue, batch former, proto::session), and targeted
// speculation-recovery scenarios on hand-built batches.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "core/engine.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "protocols/session.hpp"
#include "test_util.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

TEST(Report, TablePrinterAligns) {
  harness::table_printer t({"name", "value"});
  t.row({"short", "1"});
  t.row({"a-much-longer-name", "23456"});
  const auto s = t.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  // Every line has the same width.
  std::size_t first_len = s.find('\n');
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto next = s.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(Report, RateFormatting) {
  EXPECT_EQ(harness::format_rate(1'500'000), "1.50M txn/s");
  EXPECT_EQ(harness::format_rate(2'500), "2.5K txn/s");
  EXPECT_EQ(harness::format_rate(42), "42 txn/s");
}

TEST(Report, FactorFormatting) {
  EXPECT_EQ(harness::format_factor(22.4), "22x");
  EXPECT_EQ(harness::format_factor(2.97), "2.97x");
}

TEST(Runner, AggregatesAcrossBatches) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1024;
  wl::ycsb w(wcfg);
  storage::database db;
  w.load(db);

  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  core::quecc_engine eng(db, cfg);

  harness::run_options opts;
  opts.batches = 3;
  opts.batch_size = 100;
  opts.seed = 1;
  const auto res = harness::run_workload(eng, w, db, opts);
  EXPECT_EQ(res.metrics.committed, 300u);
  EXPECT_EQ(res.metrics.batches, 3u);
  EXPECT_EQ(res.final_state_hash, db.state_hash());
  EXPECT_GT(res.metrics.elapsed_seconds, 0.0);
  // Closed-loop runs record no queueing: there is no admission queue.
  EXPECT_EQ(res.metrics.queue_latency.count(), 0u);
}

// --- admission queue + batch former ----------------------------------------

TEST(Admission, BatchClosesOnSize) {
  core::admission_queue q(64);
  for (int i = 0; i < 10; ++i) {
    core::admitted_txn a;
    a.txn = std::make_unique<txn::txn_desc>();
    ASSERT_TRUE(q.submit(std::move(a)));
  }
  // max=4 closes immediately on size — a huge deadline must not be waited.
  const auto batch = q.pop_batch(4, /*deadline_micros=*/60'000'000);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(q.depth(), 6u);
  EXPECT_EQ(q.admitted(), 10u);
}

TEST(Admission, DeadlineClosesPartialBatch) {
  core::admission_queue q(64);
  core::admitted_txn a;
  a.txn = std::make_unique<txn::txn_desc>();
  ASSERT_TRUE(q.submit(std::move(a)));
  const auto t0 = common::now_nanos();
  const auto batch = q.pop_batch(1024, /*deadline_micros=*/1000);
  const auto waited = common::now_nanos() - t0;
  EXPECT_EQ(batch.size(), 1u);  // partial: deadline fired
  // The 1ms deadline, not batch fill, must bound the wait. Generous slack
  // for loaded CI boxes, but tight enough to catch a deadline regression.
  EXPECT_LT(waited, 500ull * 1'000'000);
}

// Draining must wake producers blocked on a full queue *during* batch
// forming, not after it: with capacity < batch size, a willing submitter
// refills the freed slots and the batch still closes on size, fast —
// not partial after the full deadline.
TEST(Admission, DrainWakesBlockedProducersMidBatch) {
  core::admission_queue q(2);
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      core::admitted_txn a;
      a.txn = std::make_unique<txn::txn_desc>();
      ASSERT_TRUE(q.submit(std::move(a)));  // blocks while full
    }
  });
  const auto t0 = common::now_nanos();
  const auto batch = q.pop_batch(6, /*deadline_micros=*/10'000'000);
  const auto waited = common::now_nanos() - t0;
  producer.join();
  EXPECT_EQ(batch.size(), 6u);              // closed on size...
  EXPECT_LT(waited, 5ull * 1'000'000'000);  // ...not on the 10s deadline
}

TEST(Admission, CloseDrainsThenReturnsEmpty) {
  core::admission_queue q(8);
  core::admitted_txn a;
  a.txn = std::make_unique<txn::txn_desc>();
  ASSERT_TRUE(q.submit(std::move(a)));
  q.close();
  // Still drains what was admitted before the close...
  EXPECT_EQ(q.pop_batch(8, 0).size(), 1u);
  // ...then reports drained-and-closed, and rejects new submissions.
  EXPECT_TRUE(q.pop_batch(8, 0).empty());
  core::admitted_txn b;
  b.txn = std::make_unique<txn::txn_desc>();
  EXPECT_FALSE(q.submit(std::move(b)));
  EXPECT_FALSE(q.try_submit(b));
}

TEST(Admission, TrySubmitRespectsCapacity) {
  core::admission_queue q(2);
  for (int i = 0; i < 2; ++i) {
    core::admitted_txn a;
    a.txn = std::make_unique<txn::txn_desc>();
    ASSERT_TRUE(q.try_submit(a));
  }
  core::admitted_txn overflow;
  overflow.txn = std::make_unique<txn::txn_desc>();
  EXPECT_FALSE(q.try_submit(overflow));
  EXPECT_TRUE(overflow.txn != nullptr);  // rejected submission intact
  EXPECT_EQ(q.pop_batch(2, 0).size(), 2u);
  EXPECT_TRUE(q.try_submit(overflow));  // capacity freed
}

// --- per-session admission caps (config::admission_session_cap) ------------

TEST(Admission, SessionCapBoundsPerClientQueueDepth) {
  core::admission_queue q(8, /*session_cap=*/2);
  auto mk = [](std::uint32_t client) {
    core::admitted_txn a;
    a.txn = std::make_unique<txn::txn_desc>();
    a.client = client;
    return a;
  };
  core::admitted_txn a0 = mk(0), a1 = mk(0), a2 = mk(0);
  ASSERT_TRUE(q.try_submit(a0));
  ASSERT_TRUE(q.try_submit(a1));
  EXPECT_FALSE(q.try_submit(a2));  // client 0 hit its cap...
  EXPECT_EQ(q.in_queue(0), 2u);
  core::admitted_txn b0 = mk(1), b1 = mk(1);
  EXPECT_TRUE(q.try_submit(b0));  // ...while the queue still has room
  EXPECT_TRUE(q.try_submit(b1));  // for other sessions
  EXPECT_EQ(q.depth(), 4u);

  // Draining releases the per-session slots.
  EXPECT_EQ(q.pop_batch(8, 0).size(), 4u);
  EXPECT_EQ(q.in_queue(0), 0u);
  EXPECT_TRUE(q.try_submit(a2));
}

// Fairness acceptance: a greedy session that submits as fast as it can
// must not be able to occupy the whole admission queue — a second session
// always finds room, because the greedy one blocks on its own cap first.
TEST(Admission, GreedySessionCannotStarveOther) {
  core::admission_queue q(/*capacity=*/4, /*session_cap=*/2);
  constexpr std::uint32_t kGreedy = 16;
  std::thread greedy([&] {
    for (std::uint32_t i = 0; i < kGreedy; ++i) {
      core::admitted_txn a;
      a.txn = std::make_unique<txn::txn_desc>();
      a.client = 0;
      ASSERT_TRUE(q.submit(std::move(a)));  // blocks at cap, not capacity
    }
  });
  // Wait until the greedy session saturated its cap and is blocked.
  while (q.in_queue(0) < 2) std::this_thread::yield();

  // The polite session gets in on every attempt — no starvation, no
  // waiting for the greedy backlog: after each drain the greedy session
  // holds at most its cap (2 of 4 slots), so room always remains.
  std::uint32_t polite_admitted = 0;
  for (int round = 0; round < 8; ++round) {
    core::admitted_txn b;
    b.txn = std::make_unique<txn::txn_desc>();
    b.client = 1;
    if (q.try_submit(b)) ++polite_admitted;
    (void)q.pop_batch(4, 0);  // full drain: next round starts empty-ish
  }
  EXPECT_EQ(polite_admitted, 8u);

  // Drain the remaining greedy backlog so the producer can finish.
  while (q.admitted() < kGreedy + polite_admitted || q.depth() > 0) {
    if (q.depth() > 0) {
      (void)q.pop_batch(8, 0);
    } else {
      std::this_thread::yield();
    }
  }
  greedy.join();
  EXPECT_EQ(q.admitted(), kGreedy + polite_admitted);
}

// --- proto::session ---------------------------------------------------------

// Acceptance: a deadline-triggered *partial* batch commits correctly — a
// session holding fewer than batch_size transactions must not wait for the
// batch to fill, and its final state must equal a closed-loop run of the
// same transactions.
TEST(Session, DeadlinePartialBatchMatchesClosedLoop) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1024;
  wl::ycsb w(wcfg);

  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  cfg.batch_size = 1024;  // far more than we will submit
  cfg.batch_deadline_micros = 2000;

  constexpr std::uint32_t kTxns = 10;

  // Async path: submit 10 transactions, wait on every ticket.
  storage::database db_async;
  w.load(db_async);
  {
    core::quecc_engine eng(db_async, cfg);
    proto::session s(eng, cfg);
    common::rng r(5);
    std::vector<proto::session::ticket> tickets;
    for (std::uint32_t i = 0; i < kTxns; ++i) {
      tickets.push_back(s.submit(w.make_txn(r)));
    }
    for (const auto& t : tickets) {
      ASSERT_TRUE(t.valid());
      const auto res = t.wait();  // resolves only because the deadline fired
      EXPECT_EQ(res.status, txn::txn_status::committed);
      EXPECT_GE(res.e2e_nanos, res.queue_nanos);
    }
    s.close();
    EXPECT_EQ(s.metrics().committed, kTxns);
    EXPECT_EQ(s.metrics().e2e_latency.count(), kTxns);
    // Every batch was deadline-closed: none reached batch_size.
    EXPECT_GE(s.batches_formed(), 1u);
  }

  // Closed-loop reference: the same generator stream through run_batch.
  storage::database db_ref;
  w.load(db_ref);
  {
    core::quecc_engine eng(db_ref, cfg);
    common::rng r(5);
    auto b = w.make_batch(r, kTxns);
    common::run_metrics m;
    eng.run_batch(b, m);
  }

  EXPECT_EQ(db_async.state_hash(), db_ref.state_hash());
}

// Acceptance: open-loop runs measure queueing — end-to-end latency
// (submit -> commit) must exceed pure execution latency, which is all a
// closed-loop replay can see.
TEST(Runner, OpenLoopMeasuresQueueingDelay) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1024;
  wl::ycsb w(wcfg);
  storage::database db;
  w.load(db);

  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  core::quecc_engine eng(db, cfg);

  harness::run_options opts;
  opts.mode = harness::arrival_mode::open_loop;
  opts.batches = 2;
  opts.batch_size = 128;
  opts.seed = 1;
  opts.offered_load_tps = 50'000;
  opts.batch_deadline_micros = 1000;
  const auto res = harness::run_workload(eng, w, db, opts);

  const auto total = opts.total_txns();
  EXPECT_EQ(res.metrics.committed, total);
  EXPECT_EQ(res.metrics.queue_latency.count(), total);
  EXPECT_EQ(res.metrics.e2e_latency.count(), total);
  EXPECT_EQ(res.offered_load_tps, opts.offered_load_tps);

  // Submit->commit includes queueing for a batch to form, so it strictly
  // dominates the execution-only histogram.
  EXPECT_GT(res.metrics.e2e_latency.mean_nanos(),
            res.metrics.txn_latency.mean_nanos());
  EXPECT_GE(res.metrics.e2e_latency.percentile_nanos(50),
            res.metrics.txn_latency.percentile_nanos(50));
  EXPECT_GE(res.metrics.e2e_latency.percentile_nanos(99),
            res.metrics.txn_latency.percentile_nanos(99));

  // Determinism across arrival timing: the open-loop run commits the same
  // transaction stream a closed-loop run would.
  storage::database db_ref;
  w.load(db_ref);
  core::quecc_engine eng_ref(db_ref, cfg);
  harness::run_options closed = opts;
  closed.mode = harness::arrival_mode::closed_loop;
  const auto ref = harness::run_workload(eng_ref, w, db_ref, closed);
  EXPECT_EQ(res.final_state_hash, ref.final_state_hash);
}

// A malformed plan must not reach the pump thread (where a validation
// throw would terminate the process): it is rejected at submit, resolving
// as aborted, and the session keeps serving well-formed transactions.
TEST(Session, MalformedPlanRejectedAtSubmit) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 256;
  wl::ycsb w(wcfg);
  storage::database db;
  w.load(db);

  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  cfg.batch_deadline_micros = 500;
  core::quecc_engine eng(db, cfg);
  proto::session s(eng, cfg);
  common::rng r(4);

  auto bad = w.make_txn(r);
  ASSERT_GT(bad->frags.size(), 1u);
  bad->frags[0].idx = 7;  // violates "fragment idx values are 0..n-1"
  auto bad_ticket = s.submit(std::move(bad));
  ASSERT_TRUE(bad_ticket.valid());
  EXPECT_EQ(bad_ticket.wait().status, txn::txn_status::aborted);

  auto null_ticket = s.submit(nullptr);
  ASSERT_TRUE(null_ticket.valid());
  EXPECT_EQ(null_ticket.wait().status, txn::txn_status::aborted);

  auto bad2 = w.make_txn(r);
  bad2->frags[0].idx = 7;
  EXPECT_FALSE(s.post(std::move(bad2)));  // fire-and-forget path too

  auto good = s.submit(w.make_txn(r));
  EXPECT_EQ(good.wait().status, txn::txn_status::committed);
  s.close();
  EXPECT_EQ(s.metrics().committed, 1u);
}

TEST(Session, SubmitAfterCloseReturnsInvalidTicket) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 256;
  wl::ycsb w(wcfg);
  storage::database db;
  w.load(db);

  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  core::quecc_engine eng(db, cfg);
  proto::session s(eng, cfg);
  common::rng r(3);
  auto live = s.submit(w.make_txn(r));
  EXPECT_TRUE(live.valid());
  s.close();
  auto dead = s.submit(w.make_txn(r));
  EXPECT_FALSE(dead.valid());
  // wait() on an invalid ticket resolves immediately as aborted.
  EXPECT_EQ(dead.wait().status, txn::txn_status::aborted);
  EXPECT_FALSE(s.post(w.make_txn(r)));
  EXPECT_EQ(live.wait().status, txn::txn_status::committed);
}

TEST(Session, ConstructorRejectsZeroBatchSize) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 256;
  wl::ycsb w(wcfg);
  storage::database db;
  w.load(db);
  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  core::quecc_engine eng(db, cfg);
  cfg.batch_size = 0;  // would silently kill the pump: tickets hang forever
  EXPECT_THROW(proto::session(eng, cfg), std::invalid_argument);
  cfg = common::config{};
  cfg.admission_capacity = 0;
  EXPECT_THROW(proto::session(eng, cfg), std::invalid_argument);
}

TEST(Runner, OpenLoopRejectsNonPositiveLoad) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 256;
  wl::ycsb w(wcfg);
  storage::database db;
  w.load(db);
  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  core::quecc_engine eng(db, cfg);

  harness::run_options opts;
  opts.mode = harness::arrival_mode::open_loop;
  opts.offered_load_tps = 0;
  EXPECT_THROW(harness::run_workload(eng, w, db, opts),
               std::invalid_argument);
}

// --- targeted speculation-recovery scenarios --------------------------------

// Build a 3-txn chain on one record: T0 RMWs key K and aborts afterwards
// (abort check planted later in T0), T1 reads K (dirty under speculation),
// T2 reads what T1 wrote elsewhere. Verifies cascade depth 2.
TEST(SpecRecovery, CascadeChainsAcrossRecords) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 256;
  wcfg.ops_per_txn = 2;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  const txn::procedure* proc;
  {
    common::rng r(1);
    proc = w.make_txn(r)->proc;
  }

  auto mk = [&](std::initializer_list<txn::fragment> frags) {
    auto t = std::make_unique<txn::txn_desc>();
    t->proc = proc;
    std::uint16_t idx = 0;
    for (auto f : frags) {
      f.idx = idx++;
      t->frags.push_back(f);
    }
    return t;
  };
  auto frag = [](key_t key, txn::op_kind kind, std::uint16_t logic,
                 std::uint64_t aux, std::uint16_t out) {
    txn::fragment f;
    f.table = 0;
    f.key = key;
    f.part = static_cast<part_id_t>(key % 4);  // ycsb home partition rule
    f.kind = kind;
    f.logic = logic;
    f.aux = aux;
    f.output_slot = out;
    return f;
  };

  // T0: abortable check (doomed, aux=1) then RMW on key 10.
  auto check = frag(10, txn::op_kind::read, wl::ycsb::op_abort_check, 1,
                    txn::kNoSlot);
  check.abortable = true;
  auto t0 = mk({check,
                frag(10, txn::op_kind::update, wl::ycsb::op_rmw, 100, 0)});
  // T1: RMW key 10 (reads T0's dirty write), RMW key 20.
  auto t1 = mk({frag(10, txn::op_kind::update, wl::ycsb::op_rmw, 7, 0),
                frag(20, txn::op_kind::update, wl::ycsb::op_rmw, 3, 1)});
  // T2: reads key 20 (poisoned transitively through T1).
  auto t2 = mk({frag(20, txn::op_kind::read, wl::ycsb::op_read, 0, 0)});

  txn::batch b;
  txn::txn_desc& rt0 = b.add(std::move(t0));
  txn::txn_desc& rt1 = b.add(std::move(t1));
  txn::txn_desc& rt2 = b.add(std::move(t2));
  b.validate();

  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 2;
  cfg.execution = common::exec_model::speculative;
  core::quecc_engine eng(*db, cfg);
  common::run_metrics m;
  eng.run_batch(b, m);

  EXPECT_TRUE(rt0.aborted());
  EXPECT_FALSE(rt1.aborted());
  EXPECT_FALSE(rt2.aborted());

  // Final state must be as if T0 never ran: key10 = 7, key20 = 3, and T2
  // must have read T1's committed value.
  const auto& tab = db->at(0);
  EXPECT_EQ(storage::read_u64(tab.row(tab.lookup_local(10, 2)), 0), 7u);
  EXPECT_EQ(storage::read_u64(tab.row(tab.lookup_local(20, 0)), 0), 3u);
  EXPECT_EQ(rt2.slot_value(0), 3u);
  EXPECT_EQ(m.aborted, 1u);
  EXPECT_EQ(m.committed, 2u);
}

// A committed transaction that only *blind-writes* after an aborted writer
// still converges to the serial outcome (taint-by-write is handled).
TEST(SpecRecovery, BlindWriteAfterAbortedWriter) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 64;
  wcfg.ops_per_txn = 1;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto db_serial = db->clone();
  const txn::procedure* proc;
  {
    common::rng r(1);
    proc = w.make_txn(r)->proc;
  }

  auto frag = [](key_t key, txn::op_kind kind, std::uint16_t logic,
                 std::uint64_t aux) {
    txn::fragment f;
    f.table = 0;
    f.key = key;
    f.part = static_cast<part_id_t>(key % 4);  // ycsb home partition rule
    f.kind = kind;
    f.logic = logic;
    f.aux = aux;
    return f;
  };

  auto t0 = std::make_unique<txn::txn_desc>();
  t0->proc = proc;
  auto check = frag(5, txn::op_kind::read, wl::ycsb::op_abort_check, 1);
  check.abortable = true;
  check.idx = 0;
  t0->frags.push_back(check);
  auto w0 = frag(5, txn::op_kind::update, wl::ycsb::op_rmw, 50);
  w0.idx = 1;
  w0.output_slot = 0;
  t0->frags.push_back(w0);

  auto t1 = std::make_unique<txn::txn_desc>();
  t1->proc = proc;
  auto w1 = frag(5, txn::op_kind::update, wl::ycsb::op_write, 999);
  w1.idx = 0;
  t1->frags.push_back(w1);

  txn::batch b;
  b.add(std::move(t0));
  b.add(std::move(t1));
  b.validate();

  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  cfg.execution = common::exec_model::speculative;
  core::quecc_engine eng(*db, cfg);
  common::run_metrics m;
  eng.run_batch(b, m);

  testutil::replay_in_seq_order(*db_serial, b);
  EXPECT_EQ(db->state_hash(), db_serial->state_hash());
  const auto& tab = db->at(0);
  EXPECT_EQ(storage::read_u64(tab.row(tab.lookup_local(5, 1)), 0), 999u);
}

}  // namespace
}  // namespace quecc
