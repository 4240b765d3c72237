// Quickstart: build your own transactional application on the
// queue-oriented engine in ~100 lines.
//
// We model a tiny ticket-sales system: one SEATS table; a "reserve"
// transaction checks capacity (abortable fragment), decrements seats
// (update fragment), and records the sale price into a result slot the
// client can read back. Everything an application needs is shown here:
//   1. define a schema and load a table,
//   2. write fragment logic (one function, dispatched by fragment.logic),
//   3. compile transactions into fragments with dependencies,
//   4. submit them through a client session and wait on tickets — the
//      session's batch former turns the submissions into deterministic
//      batches (closing on size or deadline) behind your back.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "core/engine.hpp"
#include "protocols/session.hpp"
#include "storage/database.hpp"
#include "txn/procedure.hpp"

using namespace quecc;

namespace {

// Fragment logic selectors for our procedure.
enum logic : std::uint16_t { check_capacity = 0, reserve_seats = 1 };

// One function implements every fragment of the procedure. It must be
// deterministic: outputs depend only on args, ready slots, and row data.
txn::frag_status run_fragment(const txn::fragment& f, txn::txn_desc& t,
                              txn::frag_host& h) {
  switch (f.logic) {
    case check_capacity: {  // abortable read: enough seats left?
      const auto row = h.read_row(f, t);
      if (row.empty()) return txn::frag_status::abort;  // unknown event
      const auto available = storage::read_u64(row, 0);
      return available < f.aux ? txn::frag_status::abort
                               : txn::frag_status::ok;
    }
    case reserve_seats: {  // update: take the seats, report the price
      auto row = h.update_row(f, t);
      if (row.empty()) return txn::frag_status::ok;
      const auto left = storage::read_u64(row, 0) - f.aux;
      storage::write_u64(row, 0, left);
      const auto price = storage::read_u64(row, 8);
      t.produce(0, price * f.aux);  // slot 0: total charged
      return txn::frag_status::ok;
    }
  }
  return txn::frag_status::ok;
}

// Compile a "reserve `count` seats for `event`" transaction into fragments.
std::unique_ptr<txn::txn_desc> make_reserve(const txn::procedure& proc,
                                            quecc::key_t event,
                                            std::uint64_t count) {
  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &proc;

  txn::fragment check;
  check.table = 0;
  check.key = event;
  check.part = static_cast<part_id_t>(event % 4);
  check.kind = txn::op_kind::read;
  check.abortable = true;  // may deterministically abort the txn
  check.logic = check_capacity;
  check.aux = count;
  check.idx = 0;
  t->frags.push_back(check);

  txn::fragment reserve = check;
  reserve.kind = txn::op_kind::update;
  reserve.abortable = false;
  reserve.logic = reserve_seats;
  reserve.idx = 1;
  t->frags.push_back(reserve);
  return t;
}

}  // namespace

int main() {
  // 1. Storage: one SEATS table (available seats, unit price).
  storage::database db;
  auto& seats = db.create_table(
      "seats",
      storage::schema({{"AVAILABLE", storage::col_type::u64, 8},
                       {"PRICE", storage::col_type::u64, 8}}),
      /*capacity=*/64);
  std::vector<std::byte> row(16);
  for (quecc::key_t event = 0; event < 8; ++event) {
    std::span<std::byte> s(row);
    storage::write_u64(s, 0, 10);              // 10 seats per event
    storage::write_u64(s, 8, 25 + event * 5);  // price per seat
    seats.insert(event, row);
  }

  // 2. The stored procedure: fragment logic + number of value slots.
  txn::procedure reserve_proc("reserve", &run_fragment, /*slots=*/1);

  // 3. The engine: 2 planners, 2 executors, speculative execution,
  //    serializable isolation. batch_size is 1024 but we'll only submit
  //    20 transactions — the 1ms batch deadline closes the partial batch,
  //    so a trickle of traffic still commits promptly.
  common::config cfg;
  cfg.planner_threads = 2;
  cfg.executor_threads = 2;
  cfg.batch_deadline_micros = 1000;
  core::quecc_engine engine(db, cfg);

  // 4. Submit reservation requests through a client session (some will
  //    abort: only 10 seats per event). submit() is thread-safe and
  //    returns a ticket; wait() blocks until the transaction's batch
  //    committed and carries the final status, latency, and result slots.
  proto::session session(engine, cfg);
  std::vector<proto::session::ticket> tickets;
  for (int i = 0; i < 20; ++i) {
    tickets.push_back(session.submit(
        make_reserve(reserve_proc, /*event=*/i % 4, /*count=*/1 + i % 4)));
  }

  // 5. Inspect per-transaction outcomes from the tickets.
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto r = tickets[i].wait();
    if (r.status == txn::txn_status::aborted) {
      std::printf("txn %2zu: ABORTED (not enough seats)\n", i);
    } else {
      std::printf("txn %2zu: committed in %4.0fus (%3.0fus queued), "
                  "charged %llu\n",
                  i, r.e2e_nanos / 1e3, r.queue_nanos / 1e3,
                  static_cast<unsigned long long>(r.slots[0]));
    }
  }
  session.close();
  const auto& metrics = session.metrics();
  std::printf("\ncommitted=%llu aborted=%llu in %u batch(es)\n",
              static_cast<unsigned long long>(metrics.committed),
              static_cast<unsigned long long>(metrics.aborted),
              session.batches_formed());

  std::printf("\nremaining seats per event:\n");
  for (quecc::key_t event = 0; event < 8; ++event) {
    const auto rid = seats.lookup_local(event, 0);
    std::printf("  event %llu: %llu\n",
                static_cast<unsigned long long>(event),
                static_cast<unsigned long long>(
                    storage::read_u64(seats.row(rid), 0)));
  }
  return 0;
}
