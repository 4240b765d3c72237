#include "probes.hpp"

#include <algorithm>
#include <cstdint>

#include "common/stats.hpp"
#include "core/planner.hpp"
#include "log/plan_codec.hpp"

namespace qbench {

namespace q = quecc;

planner_probe probe_planner(std::vector<q::txn::batch>& batches,
                            q::storage::database& db,
                            const q::common::config& run_cfg) {
  q::common::config cfg = run_cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = static_cast<q::worker_id_t>(run_cfg.executor_threads *
                                                     run_cfg.nodes);
  q::core::planner p(0, cfg, db);
  q::core::plan_output out;
  std::vector<std::uint64_t> lengths(cfg.executor_threads, 0);
  std::uint64_t frags = 0;
  std::uint64_t txns = 0;
  std::uint64_t nanos = 0;
  for (auto& b : batches) {
    const std::uint64_t t0 = q::common::now_nanos();
    p.plan(b, out);
    nanos += q::common::now_nanos() - t0;
    frags += out.planned_frags;
    txns += b.size();
    for (std::size_t e = 0; e < out.conflict.size(); ++e) {
      lengths[e] += out.conflict[e].size();
    }
  }
  planner_probe r;
  if (txns == 0) return r;
  r.us_per_txn = static_cast<double>(nanos) / 1e3 / static_cast<double>(txns);
  r.frags_per_txn = static_cast<double>(frags) / static_cast<double>(txns);
  std::uint64_t total = 0;
  for (auto l : lengths) total += l;
  if (total > 0) {
    const double mean =
        static_cast<double>(total) / static_cast<double>(lengths.size());
    r.queue_imbalance =
        static_cast<double>(*std::max_element(lengths.begin(), lengths.end())) /
        mean;
  }
  return r;
}

namespace {

struct access {
  q::table_id_t table;
  q::part_id_t part;
  q::key_t key;
  q::key_t hi;
};

// Repeats `body` until it has run for at least 20 ms, so that short probes
// still time far more than the clock's resolution.
template <typename Fn>
double ns_per_item(std::uint64_t items_per_pass, Fn&& body) {
  if (items_per_pass == 0) return 0;
  std::uint64_t items = 0;
  const std::uint64_t t0 = q::common::now_nanos();
  std::uint64_t elapsed = 0;
  do {
    items += body();
    elapsed = q::common::now_nanos() - t0;
  } while (elapsed < 20'000'000);
  return items == 0 ? 0 : static_cast<double>(elapsed) /
                              static_cast<double>(items);
}

}  // namespace

storage_probe probe_storage(const std::vector<q::txn::batch>& batches,
                            const q::storage::database& db,
                            q::part_id_t partitions) {
  std::vector<access> hashed, ordered, scans;
  for (const auto& b : batches) {
    for (const auto& t : b) {
      for (const auto& f : t->frags) {
        if (f.kind == q::txn::op_kind::insert) continue;
        const bool is_ordered =
            db.at(f.table).index() == q::storage::index_kind::ordered;
        if (f.kind == q::txn::op_kind::scan) {
          if (f.part == q::txn::kAllParts) {
            for (q::part_id_t p = 0; p < partitions; ++p) {
              scans.push_back({f.table, p, f.key, f.key_hi});
            }
          } else {
            scans.push_back({f.table, f.part, f.key, f.key_hi});
          }
        } else {
          (is_ordered ? ordered : hashed)
              .push_back({f.table, f.part, f.key, 0});
        }
      }
    }
  }
  volatile std::uint64_t sink = 0;
  auto lookups = [&](const std::vector<access>& v) {
    return [&db, &v, &sink] {
      std::uint64_t s = 0;
      for (const auto& a : v) s += db.at(a.table).lookup_local(a.key, a.part);
      sink = sink + s;
      return static_cast<std::uint64_t>(v.size());
    };
  };
  storage_probe r;
  r.hash_lookup_ns = ns_per_item(hashed.size(), lookups(hashed));
  r.ordered_lookup_ns = ns_per_item(ordered.size(), lookups(ordered));
  std::uint64_t rows_per_pass = 0;
  auto scan_pass = [&] {
    std::uint64_t rows = 0;
    for (const auto& a : scans) {
      db.at(a.table).visit_range_in(
          a.part, a.key, a.hi,
          [](void* ctx, q::key_t, q::storage::row_id_t) {
            ++*static_cast<std::uint64_t*>(ctx);
            return true;
          },
          &rows);
    }
    return rows;
  };
  rows_per_pass = scan_pass();
  r.scan_ns_per_row = ns_per_item(rows_per_pass, scan_pass);
  return r;
}

double probe_encode_us(const std::vector<q::txn::batch>& batches) {
  if (batches.empty()) return 0;
  std::vector<std::byte> buf;
  std::uint64_t encoded = 0;
  const std::uint64_t t0 = q::common::now_nanos();
  std::uint64_t elapsed = 0;
  do {
    for (const auto& b : batches) {
      buf.clear();
      q::log::encode_batch(b, buf);
      ++encoded;
    }
    elapsed = q::common::now_nanos() - t0;
  } while (elapsed < 20'000'000);
  return static_cast<double>(elapsed) / 1e3 / static_cast<double>(encoded);
}

}  // namespace qbench
