#include "workload/ycsb.hpp"

#include <algorithm>

namespace quecc::wl {

namespace {

constexpr std::size_t kFields = 10;  ///< FIELD0..FIELD9, 8 bytes each

storage::schema make_schema() {
  std::vector<storage::column> cols;
  cols.reserve(kFields);
  for (std::size_t i = 0; i < kFields; ++i) {
    cols.push_back({"FIELD" + std::to_string(i), storage::col_type::u64, 8});
  }
  return storage::schema(std::move(cols));
}

txn::frag_status run_fragment(const txn::fragment& f, txn::txn_desc& t,
                              txn::frag_host& h) {
  switch (static_cast<ycsb::logic>(f.logic)) {
    // Law: fragment logic produces its declared output slot on every
    // non-abort path (even for missing rows), or downstream consumers
    // would wait forever.
    case ycsb::op_read: {
      const auto row = h.read_row(f, t);
      t.produce(f.output_slot, row.empty() ? 0 : storage::read_u64(row, 0));
      return txn::frag_status::ok;
    }
    case ycsb::op_write: {
      auto row = h.update_row(f, t);
      if (!row.empty()) storage::write_u64(row, 0, f.aux);
      if (f.output_slot != txn::kNoSlot) t.produce(f.output_slot, f.aux);
      return txn::frag_status::ok;
    }
    case ycsb::op_rmw: {
      auto row = h.update_row(f, t);
      const std::uint64_t v =
          (row.empty() ? 0 : storage::read_u64(row, 0)) + f.aux;
      if (!row.empty()) storage::write_u64(row, 0, v);
      if (f.output_slot != txn::kNoSlot) t.produce(f.output_slot, v);
      return txn::frag_status::ok;
    }
    case ycsb::op_dep_write: {
      auto row = h.update_row(f, t);
      const std::uint16_t in =
          static_cast<std::uint16_t>(__builtin_ctzll(f.input_mask));
      const std::uint64_t v = t.slot_value(in) + f.aux;
      if (!row.empty()) storage::write_u64(row, 0, v);
      if (f.output_slot != txn::kNoSlot) t.produce(f.output_slot, v);
      return txn::frag_status::ok;
    }
    case ycsb::op_abort_check: {
      // The abort decision is deterministic (carried in aux by the
      // generator) but still routed through a read so the fragment
      // participates in conflict/speculation dependency tracking.
      const auto row = h.read_row(f, t);
      (void)row;
      return f.aux != 0 ? txn::frag_status::abort : txn::frag_status::ok;
    }
    case ycsb::op_scan_sum: {
      // Sums FIELD0 over [key, key_hi). The partial is a u64 and addition
      // commutes, so the kAllParts contract holds: the planner arms the
      // output slot with the partition count and each per-partition
      // invocation contributes through produce_partial; serial hosts visit
      // every shard in one call and plain-produce the full sum.
      struct acc {
        std::uint64_t sum = 0;
      } a;
      h.scan_rows(
          f, t,
          [](void* raw, key_t, std::span<const std::byte> row) {
            static_cast<acc*>(raw)->sum += storage::read_u64(row, 0);
            return true;
          },
          &a);
      t.produce_partial(f.output_slot, a.sum);
      return txn::frag_status::ok;
    }
  }
  return txn::frag_status::ok;
}

}  // namespace

ycsb::ycsb(ycsb_config cfg)
    : cfg_(cfg),
      zipf_(cfg.table_size, cfg.zipf_theta),
      proc_("ycsb", &run_fragment,
            static_cast<std::uint16_t>(cfg.ops_per_txn + 1)) {}

void ycsb::load(storage::database& db) {
  // One arena per partition; key k's home partition is k % partitions, so
  // the even capacity split covers every shard's key share. Scans need
  // the ordered backend; otherwise the configured one applies.
  const storage::index_kind idx = cfg_.scan_ratio > 0
                                      ? storage::index_kind::ordered
                                      : cfg_.index;
  auto& tab = db.create_table("usertable", make_schema().with_index(idx),
                              cfg_.table_size + 16, cfg_.partitions);
  table_ = tab.id();
  std::vector<std::byte> row(tab.layout().row_size());
  for (std::uint64_t k = 0; k < cfg_.table_size; ++k) {
    // FIELD0 starts at 0 (tests sum it); other fields get key-derived
    // filler so rows are distinguishable in state hashes.
    std::span<std::byte> s(row);
    storage::write_u64(s, 0, 0);
    for (std::size_t fld = 1; fld < kFields; ++fld) {
      storage::write_u64(s, fld * 8, k * 1000 + fld);
    }
    tab.insert(k, row, static_cast<part_id_t>(k % cfg_.partitions));
  }
}

std::unique_ptr<txn::txn_desc> ycsb::make_txn(common::rng& r) {
  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &proc_;

  // --- YCSB-E style scan transaction --------------------------------------
  if (cfg_.scan_ratio > 0 && r.next_bool(cfg_.scan_ratio)) {
    const std::uint64_t len =
        std::min<std::uint64_t>(cfg_.scan_len, cfg_.table_size);
    const key_t lo =
        std::min<key_t>(zipf_.next(r), cfg_.table_size - len);
    txn::fragment f;
    f.table = table_;
    f.key = lo;
    f.key_hi = lo + len;
    f.part = txn::kAllParts;  // contiguous keys stripe across partitions
    f.kind = txn::op_kind::scan;
    f.logic = op_scan_sum;
    f.output_slot = 0;
    f.idx = 0;
    t->frags.push_back(f);
    return t;
  }

  // --- choose distinct keys -----------------------------------------------
  const bool multi_part =
      cfg_.multi_partition_ratio > 0 && r.next_bool(cfg_.multi_partition_ratio);
  const auto home =
      static_cast<part_id_t>(r.next_below(cfg_.partitions));
  std::vector<key_t> keys;
  keys.reserve(cfg_.ops_per_txn);
  while (keys.size() < cfg_.ops_per_txn) {
    key_t k = zipf_.next(r);
    if (multi_part) {
      // Spread ops across mp_parts partitions round-robin.
      const auto target = static_cast<part_id_t>(
          (home + keys.size() % cfg_.mp_parts) % cfg_.partitions);
      k = k - (k % cfg_.partitions) + target;
      if (k >= cfg_.table_size) k %= cfg_.table_size;
    } else {
      k = k - (k % cfg_.partitions) + home;
      if (k >= cfg_.table_size) k %= cfg_.table_size;
    }
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }

  const bool doomed = cfg_.abort_ratio > 0 && r.next_bool(cfg_.abort_ratio);
  const std::uint32_t abort_pos = cfg_.ops_per_txn / 2;

  // --- build fragments -----------------------------------------------------
  // One allocation instead of five doublings: generation is the client's
  // share of every closed-loop run.
  t->frags.reserve(cfg_.ops_per_txn + 1);
  std::uint16_t idx = 0;
  if (doomed || cfg_.abort_ratio > 0) {
    // Abortable fragments precede updates (conservative-liveness rule), so
    // the check reads the key the middle op would have touched.
    txn::fragment f;
    f.table = table_;
    f.key = keys[abort_pos];
    f.part = static_cast<part_id_t>(f.key % cfg_.partitions);
    f.kind = txn::op_kind::read;
    f.abortable = true;
    f.logic = op_abort_check;
    f.aux = doomed ? 1 : 0;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  for (std::uint32_t i = 0; i < cfg_.ops_per_txn; ++i) {
    txn::fragment f;
    f.table = table_;
    f.key = keys[i];
    f.part = static_cast<part_id_t>(f.key % cfg_.partitions);
    f.idx = idx++;
    const bool is_read = r.next_bool(cfg_.read_ratio);
    if (is_read) {
      f.kind = txn::op_kind::read;
      f.logic = op_read;
      f.output_slot = static_cast<std::uint16_t>(i);
    } else if (cfg_.dependent_ops && i > 0) {
      f.kind = txn::op_kind::update;
      f.logic = op_dep_write;
      f.input_mask = 1ull << (i - 1);
      f.output_slot = static_cast<std::uint16_t>(i);
      f.aux = r.next_below(100);
    } else if (cfg_.rmw) {
      f.kind = txn::op_kind::update;
      f.logic = op_rmw;
      f.output_slot = static_cast<std::uint16_t>(i);
      f.aux = r.next_below(100);
    } else {
      f.kind = txn::op_kind::update;  // blind write
      f.logic = op_write;
      f.aux = r.next_below(1000);
    }
    // dependent_ops chains need every op to produce its slot, reads and
    // writes alike; plain mixes only produce for reads/rmws (above).
    if (cfg_.dependent_ops && f.output_slot == txn::kNoSlot) {
      f.output_slot = static_cast<std::uint16_t>(i);
    }
    t->frags.push_back(f);
  }
  return t;
}

std::uint64_t ycsb::field0_sum(const storage::database& db) const {
  const auto& tab = db.at(table_);
  std::uint64_t sum = 0;
  tab.for_each_live([&](key_t, storage::row_id_t rid) {
    sum += storage::read_u64(tab.row(rid), 0);
  });
  return sum;
}

}  // namespace quecc::wl
