#include "protocols/mvto.hpp"

#include <cstring>
#include <memory>

#include "common/spinlock.hpp"
#include "common/thread_annotations.hpp"

namespace quecc::proto {

namespace {
/// Versions kept per row after pruning. Generous enough that only extreme
/// stragglers lose their snapshot (they abort and retry with a fresh ts).
constexpr std::size_t kKeepVersions = 8;
}  // namespace

/// Sidecar version chains, one record per (table, rid).
class mvto_engine::version_store {
 public:
  explicit version_store(storage::database& db) : db_(db) {
    // Sidecars mirror the tables' per-partition arenas: rids address a
    // (shard, slot), so each shard gets its own rec array.
    tables_.resize(db.table_count());
    for (table_id_t t = 0; t < db.table_count(); ++t) {
      const auto& tab = db.at(t);
      tables_[t].resize(tab.shard_count());
      for (part_id_t s = 0; s < tab.shard_count(); ++s) {
        tables_[t][s] = std::make_unique<rec[]>(tab.shard_capacity(s));
      }
    }
  }

  struct version {
    std::uint64_t wts = 0;
    bool committed = false;
    std::vector<std::byte> data;
  };

  struct rec {
    common::spinlock latch;
    std::uint64_t max_rts GUARDED_BY(latch) = 0;
    bool initialized GUARDED_BY(latch) = false;  ///< lazily base-row seeded
    std::vector<version> chain GUARDED_BY(latch);
  };

  rec& at(table_id_t table, storage::row_id_t rid) {
    return tables_[table][storage::rid_shard(rid)][storage::rid_slot(rid)];
  }

  /// Seed version 0 from the loaded base row on first touch.
  void ensure_seeded(table_id_t table, storage::row_id_t rid, rec& r)
      REQUIRES(r.latch) {
    if (r.initialized) return;
    const auto row = db_.at(table).row(rid);
    r.chain.push_back({0, true, {row.begin(), row.end()}});
    r.initialized = true;
  }

 private:
  storage::database& db_;
  std::vector<std::vector<std::unique_ptr<rec[]>>> tables_;
};

namespace {

using version_store = mvto_engine::version_store;

class mvto_ctx final : public worker_ctx, public txn::frag_host {
 public:
  mvto_ctx(storage::database& db, version_store& store,
           std::atomic<std::uint64_t>& ts_source)
      : db_(db), store_(store), ts_source_(ts_source) {}

  txn::frag_host& host() override { return *this; }

  void begin(txn::txn_desc&) override {
    cc_failed_ = false;
    // relaxed: timestamp allocation needs uniqueness, not ordering — every
    // chain access that uses ts_ happens under the record latch.
    ts_ = ts_source_.fetch_add(1, std::memory_order_relaxed);
    writes_.clear();
    read_bufs_.clear();
  }

  bool cc_failed() const noexcept override { return cc_failed_; }

  bool try_commit(txn::txn_desc&,
                  const std::function<void()>& at_serialization) override {
    // MVTO's serial order is timestamp order; the reads already enforced
    // it via max_rts, so commit just publishes pending versions.
    at_serialization();
    for (auto& w : writes_) {
      auto& tab = db_.at(w.table);
      if (w.op == txn::op_kind::insert) {
        const auto rid = tab.allocate_row(w.part);
        auto row = tab.row(rid);
        if (!w.buf.empty()) {  // empty data() is null; null memcpy src is UB
          std::memcpy(row.data(), w.buf.data(),
                      std::min(w.buf.size(), row.size()));
        }
        auto& r = store_.at(w.table, rid);
        common::spin_guard guard(r.latch);
        r.chain.push_back({ts_, true, std::move(w.buf)});
        r.initialized = true;
        if (!tab.index_row(w.key, rid)) {
          r.chain.clear();
          r.initialized = false;
          tab.retire_unindexed(rid);
        }
        continue;
      }
      auto& r = store_.at(w.table, w.rid);
      common::spin_guard guard(r.latch);
      for (auto& v : r.chain) {
        if (v.wts == ts_) {
          // Adopt the logic's private buffer as the version payload, then
          // mirror the newest committed version into the base row so the
          // harness's state hash sees MVTO's logical state.
          if (w.op == txn::op_kind::update) v.data = std::move(w.buf);
          v.committed = true;
          // Erase versions carry no payload, and memcpy from an empty
          // vector's data() (null) is UB even at size zero.
          if (!v.data.empty()) {
            std::memcpy(tab.row(w.rid).data(), v.data.data(), v.data.size());
          }
          break;
        }
      }
      prune(r);
      if (w.op == txn::op_kind::erase) {
        tab.erase(w.key, storage::rid_shard(w.rid));
      }
    }
    return true;
  }

  void abort_attempt(txn::txn_desc&) override {
    for (auto& w : writes_) {
      if (w.op == txn::op_kind::insert || w.rid == storage::kNoRow) continue;
      auto& r = store_.at(w.table, w.rid);
      common::spin_guard guard(r.latch);
      for (std::size_t i = 0; i < r.chain.size(); ++i) {
        if (r.chain[i].wts == ts_ && !r.chain[i].committed) {
          r.chain.erase(r.chain.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    writes_.clear();
    read_bufs_.clear();
  }

  // --- frag_host -----------------------------------------------------------
  std::span<const std::byte> read_row(const txn::fragment& f,
                                      txn::txn_desc&) override {
    if (auto* w = find_write(f.table, f.key)) return w->buf;
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup_local(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    auto& r = store_.at(f.table, rid);
    auto& buf = read_bufs_.emplace_back();
    {
      common::spin_guard guard(r.latch);
      store_.ensure_seeded(f.table, rid, r);
      // A pending writer older than us might commit underneath our read:
      // its outcome is unknown, so reading past it is unsafe.
      for (const auto& v : r.chain) {
        if (!v.committed && v.wts < ts_) {
          cc_failed_ = true;
          return {};
        }
      }
      const version_store::version* best = nullptr;
      for (const auto& v : r.chain) {
        if (v.committed && v.wts <= ts_ &&
            (best == nullptr || v.wts > best->wts)) {
          best = &v;
        }
      }
      if (best == nullptr) {  // snapshot pruned away: retry with fresh ts
        cc_failed_ = true;
        return {};
      }
      if (r.max_rts < ts_) r.max_rts = ts_;
      buf.assign(best->data.begin(), best->data.end());
    }
    return buf;
  }

  std::span<std::byte> update_row(const txn::fragment& f,
                                  txn::txn_desc&) override {
    if (auto* w = find_write(f.table, f.key)) return w->buf;
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup_local(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    auto& r = store_.at(f.table, rid);
    std::vector<std::byte> base;
    {
      common::spin_guard guard(r.latch);
      store_.ensure_seeded(f.table, rid, r);
      // Write rule: abort when a later reader already saw this row, when a
      // later version exists, or when another writer is pending.
      if (r.max_rts > ts_) {
        cc_failed_ = true;
        return {};
      }
      const version_store::version* latest = nullptr;
      for (const auto& v : r.chain) {
        if (!v.committed) {
          cc_failed_ = true;  // pending writer (any ts): first-writer-wins
          return {};
        }
        if (latest == nullptr || v.wts > latest->wts) latest = &v;
      }
      if (latest == nullptr || latest->wts > ts_) {
        cc_failed_ = true;
        return {};
      }
      base.assign(latest->data.begin(), latest->data.end());
      r.chain.push_back({ts_, false, std::move(base)});
    }
    auto& w = writes_.emplace_back();
    w.table = f.table;
    w.key = f.key;
    w.rid = rid;
    w.op = txn::op_kind::update;
    // Logic mutates a private buffer seeded from the predecessor version;
    // commit adopts it as the pending version's payload (the chain may
    // reallocate while unlatched, so handing out a span into it is unsafe).
    {
      common::spin_guard guard(r.latch);
      for (auto& v : r.chain) {
        if (v.wts == ts_ && !v.committed) {
          w.buf = v.data;
          break;
        }
      }
    }
    return w.buf;
  }

  std::span<std::byte> insert_row(const txn::fragment& f,
                                  txn::txn_desc&) override {
    auto& w = writes_.emplace_back();
    w.table = f.table;
    w.key = f.key;
    w.part = f.part;  // home arena for the install-time allocation
    w.op = txn::op_kind::insert;
    w.buf.assign(db_.at(f.table).layout().row_size(), std::byte{0});
    return w.buf;
  }

  bool erase_row(const txn::fragment& f, txn::txn_desc&) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup_local(f.key, f.part);
    if (rid == storage::kNoRow) return false;
    auto& r = store_.at(f.table, rid);
    {
      common::spin_guard guard(r.latch);
      store_.ensure_seeded(f.table, rid, r);
      if (r.max_rts > ts_) {
        cc_failed_ = true;
        return false;
      }
      for (const auto& v : r.chain) {
        if (!v.committed) {
          cc_failed_ = true;
          return false;
        }
      }
      r.chain.push_back({ts_, false, {}});
    }
    auto& w = writes_.emplace_back();
    w.table = f.table;
    w.key = f.key;
    w.rid = rid;
    w.op = txn::op_kind::erase;
    return true;
  }

 private:
  struct write_rec {
    table_id_t table;
    key_t key;
    part_id_t part = 0;  ///< home partition (insert install routes by it)
    storage::row_id_t rid = storage::kNoRow;
    txn::op_kind op = txn::op_kind::update;
    std::vector<std::byte> buf;
  };

  write_rec* find_write(table_id_t table, key_t key) {
    for (auto& w : writes_) {
      if (w.table == table && w.key == key && w.op != txn::op_kind::erase) {
        return &w;
      }
    }
    return nullptr;
  }

  void prune(version_store::rec& r) REQUIRES(r.latch) {
    // Drop oldest committed versions beyond the keep limit; pending
    // versions (there is at most one) are never pruned.
    while (r.chain.size() > kKeepVersions && r.chain.front().committed) {
      r.chain.erase(r.chain.begin());
    }
  }

  storage::database& db_;
  version_store& store_;
  std::atomic<std::uint64_t>& ts_source_;
  std::uint64_t ts_ = 0;
  bool cc_failed_ = false;
  std::vector<write_rec> writes_;
  std::vector<std::vector<std::byte>> read_bufs_;
};

}  // namespace

mvto_engine::mvto_engine(storage::database& db, const common::config& cfg)
    : nd_engine_base(db, cfg, "mvto"),
      store_(std::make_shared<version_store>(db)) {}

std::unique_ptr<worker_ctx> mvto_engine::make_worker(unsigned) {
  return std::make_unique<mvto_ctx>(db_, *store_, ts_source_);
}

}  // namespace quecc::proto
