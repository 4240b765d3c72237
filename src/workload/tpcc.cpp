#include "workload/tpcc.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace quecc::wl {

namespace {

// ---------------------------------------------------------------------------
// Column layouts. Offsets are fixed by construction order; the enums below
// name them so fragment logic stays readable.
// ---------------------------------------------------------------------------
storage::schema warehouse_schema() {
  return storage::schema({{"W_TAX", storage::col_type::f64, 8},
                          {"W_YTD", storage::col_type::f64, 8},
                          {"W_NAME", storage::col_type::bytes, 10}});
}
storage::schema district_schema() {
  return storage::schema({{"D_TAX", storage::col_type::f64, 8},
                          {"D_YTD", storage::col_type::f64, 8},
                          {"D_NEXT_O_ID", storage::col_type::u64, 8},
                          {"D_NAME", storage::col_type::bytes, 10}});
}
storage::schema customer_schema() {
  return storage::schema({{"C_BALANCE", storage::col_type::f64, 8},
                          {"C_YTD_PAYMENT", storage::col_type::f64, 8},
                          {"C_PAYMENT_CNT", storage::col_type::u64, 8},
                          {"C_DELIVERY_CNT", storage::col_type::u64, 8},
                          {"C_DISCOUNT", storage::col_type::f64, 8},
                          {"C_CREDIT", storage::col_type::u64, 8},
                          {"C_LAST", storage::col_type::bytes, 16},
                          {"C_DATA", storage::col_type::bytes, 32}});
}
storage::schema history_schema() {
  return storage::schema({{"H_AMOUNT", storage::col_type::f64, 8},
                          {"H_W_ID", storage::col_type::u64, 8},
                          {"H_D_ID", storage::col_type::u64, 8},
                          {"H_C_ID", storage::col_type::u64, 8},
                          {"H_DATE", storage::col_type::u64, 8}});
}
storage::schema new_order_schema() {
  return storage::schema({{"NO_O_ID", storage::col_type::u64, 8}});
}
storage::schema orders_schema() {
  return storage::schema({{"O_C_ID", storage::col_type::u64, 8},
                          {"O_ENTRY_D", storage::col_type::u64, 8},
                          {"O_CARRIER_ID", storage::col_type::u64, 8},
                          {"O_OL_CNT", storage::col_type::u64, 8},
                          {"O_ALL_LOCAL", storage::col_type::u64, 8}});
}
storage::schema order_line_schema() {
  return storage::schema({{"OL_I_ID", storage::col_type::u64, 8},
                          {"OL_SUPPLY_W_ID", storage::col_type::u64, 8},
                          {"OL_QUANTITY", storage::col_type::u64, 8},
                          {"OL_AMOUNT", storage::col_type::f64, 8},
                          {"OL_DELIVERY_D", storage::col_type::u64, 8}});
}
storage::schema item_schema() {
  return storage::schema({{"I_PRICE", storage::col_type::f64, 8},
                          {"I_IM_ID", storage::col_type::u64, 8},
                          {"I_NAME", storage::col_type::bytes, 24}});
}
storage::schema stock_schema() {
  return storage::schema({{"S_QUANTITY", storage::col_type::i64, 8},
                          {"S_YTD", storage::col_type::f64, 8},
                          {"S_ORDER_CNT", storage::col_type::u64, 8},
                          {"S_REMOTE_CNT", storage::col_type::u64, 8},
                          {"S_DATA", storage::col_type::bytes, 32}});
}

// Column byte offsets (kept in sync with the schemas above).
namespace col {
// warehouse
constexpr std::size_t w_tax = 0, w_ytd = 8;
// district
constexpr std::size_t d_tax = 0, d_ytd = 8, d_next_o_id = 16;
// customer
constexpr std::size_t c_balance = 0, c_ytd_payment = 8, c_payment_cnt = 16,
                      c_delivery_cnt = 24, c_discount = 32, c_credit = 40;
// history
constexpr std::size_t h_amount = 0, h_w_id = 8, h_d_id = 16, h_c_id = 24,
                      h_date = 32;
// new_order
constexpr std::size_t no_o_id = 0;
// orders
constexpr std::size_t o_c_id = 0, o_entry_d = 8, o_carrier_id = 16,
                      o_ol_cnt = 24, o_all_local = 32;
// order_line
constexpr std::size_t ol_i_id = 0, ol_supply_w_id = 8, ol_quantity = 16,
                      ol_amount = 24, ol_delivery_d = 32;
// item
constexpr std::size_t i_price = 0, i_im_id = 8;
// stock
constexpr std::size_t s_quantity = 0, s_ytd = 8, s_order_cnt = 16,
                      s_remote_cnt = 24;
}  // namespace col

// Slot assignments.
namespace slot {
// NewOrder: 0..14 item prices, then taxes/discount.
constexpr std::uint16_t w_tax = 15, d_tax = 16, c_discount = 17;
constexpr std::uint16_t no_slots = 18;
// Payment: new balance out.
constexpr std::uint16_t pay_balance = 0, pay_slots = 1;
// OrderStatus: balance, carrier, then per-line amounts.
constexpr std::uint16_t os_balance = 0, os_carrier = 1, os_line0 = 2,
                        os_slots = 2 + kMaxOrderLines;
// Delivery: 0..14 line amounts.
constexpr std::uint16_t dl_slots = kMaxOrderLines;
// StockLevel: 0..14 quantities, aggregate count, scanned line count.
constexpr std::uint16_t sl_count = 15, sl_lines = 16, sl_slots = 17;
}  // namespace slot

std::uint64_t d2b(double v) noexcept { return std::bit_cast<std::uint64_t>(v); }
double b2d(std::uint64_t v) noexcept { return std::bit_cast<double>(v); }

/// Deterministic per-key pseudo-random value for loaders.
std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0) noexcept {
  std::uint64_t h = a * 0x9e3779b97f4a7c15ull + b + 1;
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 29;
  return h;
}

double item_price(std::uint64_t i) noexcept {
  return 1.0 + static_cast<double>(mix(i, 11) % 9900) / 100.0;  // 1..100
}

// ---------------------------------------------------------------------------
// Fragment logic
// ---------------------------------------------------------------------------
enum no_logic : std::uint16_t {
  no_item_check = 0,
  no_warehouse_read,
  no_district_update,
  no_customer_read,
  no_order_insert,
  no_new_order_insert,
  no_stock_update,
  no_order_line_insert,
};

enum pay_logic : std::uint16_t {
  pay_warehouse = 0,
  pay_district,
  pay_customer,
  pay_history_insert,
};

enum os_logic : std::uint16_t {
  os_customer = 0,
  os_order,
  os_order_line,
  os_line_scan,  ///< scan_profiles: one range scan over the order's lines
};

enum dl_logic : std::uint16_t {
  dl_new_order_erase = 0,
  dl_order_update,
  dl_order_line_update,
  dl_customer_update,
};

enum sl_logic : std::uint16_t {
  sl_stock_read = 0,
  sl_aggregate,
  sl_line_scan,  ///< scan_profiles: range scan over the last 20 orders' lines
};

// NewOrder args layout.
namespace noa {
constexpr std::size_t w = 0, d = 1, c = 2, o_id = 3, ol_cnt = 4, date = 5,
                      items = 6;  // triples: i_id, supply_w, qty
constexpr std::size_t i_id(std::size_t j) { return items + 3 * j; }
constexpr std::size_t supply_w(std::size_t j) { return items + 3 * j + 1; }
constexpr std::size_t qty(std::size_t j) { return items + 3 * j + 2; }
}  // namespace noa

txn::frag_status run_new_order(const txn::fragment& f, txn::txn_desc& t,
                               txn::frag_host& h) {
  const std::size_t j = f.aux;  // item index for per-item fragments
  switch (static_cast<no_logic>(f.logic)) {
    case no_item_check: {
      const auto row = h.read_row(f, t);
      if (row.empty()) return txn::frag_status::abort;  // invalid item
      t.produce(static_cast<std::uint16_t>(j),
                d2b(storage::read_f64(row, col::i_price)));
      return txn::frag_status::ok;
    }
    case no_warehouse_read: {
      const auto row = h.read_row(f, t);
      t.produce(slot::w_tax,
                row.empty() ? 0 : d2b(storage::read_f64(row, col::w_tax)));
      return txn::frag_status::ok;
    }
    case no_district_update: {
      auto row = h.update_row(f, t);
      if (row.empty()) {
        t.produce(slot::d_tax, 0);
        return txn::frag_status::ok;
      }
      t.produce(slot::d_tax, d2b(storage::read_f64(row, col::d_tax)));
      // Commutative max-write keeps D_NEXT_O_ID equal to (max issued
      // order id + 1) under every commit order the baselines can produce;
      // in sequence order it degenerates to the spec's read-increment.
      const std::uint64_t next = storage::read_u64(row, col::d_next_o_id);
      storage::write_u64(row, col::d_next_o_id, std::max(next, f.aux));
      return txn::frag_status::ok;
    }
    case no_customer_read: {
      const auto row = h.read_row(f, t);
      t.produce(slot::c_discount,
                row.empty() ? 0
                            : d2b(storage::read_f64(row, col::c_discount)));
      return txn::frag_status::ok;
    }
    case no_order_insert: {
      auto row = h.insert_row(f, t);
      if (row.empty()) return txn::frag_status::ok;  // duplicate: no-op
      storage::write_u64(row, col::o_c_id, t.args[noa::c]);
      storage::write_u64(row, col::o_entry_d, t.args[noa::date]);
      storage::write_u64(row, col::o_carrier_id, 0);
      storage::write_u64(row, col::o_ol_cnt, t.args[noa::ol_cnt]);
      storage::write_u64(row, col::o_all_local, f.aux);
      return txn::frag_status::ok;
    }
    case no_new_order_insert: {
      auto row = h.insert_row(f, t);
      if (row.empty()) return txn::frag_status::ok;
      storage::write_u64(row, col::no_o_id, t.args[noa::o_id]);
      return txn::frag_status::ok;
    }
    case no_stock_update: {
      auto row = h.update_row(f, t);
      if (row.empty()) return txn::frag_status::ok;  // invalid item's stock
      const auto qty = static_cast<std::int64_t>(t.args[noa::qty(j)]);
      std::int64_t s = storage::read_i64(row, col::s_quantity);
      s = (s - qty >= 10) ? s - qty : s - qty + 91;
      storage::write_i64(row, col::s_quantity, s);
      storage::write_f64(row, col::s_ytd,
                         storage::read_f64(row, col::s_ytd) +
                             static_cast<double>(qty));
      storage::write_u64(row, col::s_order_cnt,
                         storage::read_u64(row, col::s_order_cnt) + 1);
      if (t.args[noa::supply_w(j)] != t.args[noa::w]) {
        storage::write_u64(row, col::s_remote_cnt,
                           storage::read_u64(row, col::s_remote_cnt) + 1);
      }
      return txn::frag_status::ok;
    }
    case no_order_line_insert: {
      auto row = h.insert_row(f, t);
      if (row.empty()) return txn::frag_status::ok;
      const double price = b2d(t.slot_value(static_cast<std::uint16_t>(j)));
      const double w_tax = b2d(t.slot_value(slot::w_tax));
      const double d_tax = b2d(t.slot_value(slot::d_tax));
      const double disc = b2d(t.slot_value(slot::c_discount));
      const auto qty = static_cast<double>(t.args[noa::qty(j)]);
      storage::write_u64(row, col::ol_i_id, t.args[noa::i_id(j)]);
      storage::write_u64(row, col::ol_supply_w_id, t.args[noa::supply_w(j)]);
      storage::write_u64(row, col::ol_quantity, t.args[noa::qty(j)]);
      storage::write_f64(row, col::ol_amount,
                         qty * price * (1.0 + w_tax + d_tax) * (1.0 - disc));
      storage::write_u64(row, col::ol_delivery_d, 0);
      return txn::frag_status::ok;
    }
  }
  return txn::frag_status::ok;
}

// Payment args layout.
namespace paya {
constexpr std::size_t w = 0, d = 1, c_w = 2, c_d = 3, c = 4, amount = 5,
                      date = 6;
}

txn::frag_status run_payment(const txn::fragment& f, txn::txn_desc& t,
                             txn::frag_host& h) {
  const double amt = b2d(t.args[paya::amount]);
  switch (static_cast<pay_logic>(f.logic)) {
    case pay_warehouse: {
      auto row = h.update_row(f, t);
      if (row.empty()) return txn::frag_status::ok;
      storage::write_f64(row, col::w_ytd,
                         storage::read_f64(row, col::w_ytd) + amt);
      return txn::frag_status::ok;
    }
    case pay_district: {
      auto row = h.update_row(f, t);
      if (row.empty()) return txn::frag_status::ok;
      storage::write_f64(row, col::d_ytd,
                         storage::read_f64(row, col::d_ytd) + amt);
      return txn::frag_status::ok;
    }
    case pay_customer: {
      auto row = h.update_row(f, t);
      if (row.empty()) {
        t.produce(slot::pay_balance, 0);
        return txn::frag_status::ok;
      }
      const double bal = storage::read_f64(row, col::c_balance) - amt;
      storage::write_f64(row, col::c_balance, bal);
      storage::write_f64(row, col::c_ytd_payment,
                         storage::read_f64(row, col::c_ytd_payment) + amt);
      storage::write_u64(row, col::c_payment_cnt,
                         storage::read_u64(row, col::c_payment_cnt) + 1);
      t.produce(slot::pay_balance, d2b(bal));
      return txn::frag_status::ok;
    }
    case pay_history_insert: {
      auto row = h.insert_row(f, t);
      if (row.empty()) return txn::frag_status::ok;
      storage::write_f64(row, col::h_amount, amt);
      storage::write_u64(row, col::h_w_id, t.args[paya::w]);
      storage::write_u64(row, col::h_d_id, t.args[paya::d]);
      storage::write_u64(row, col::h_c_id, t.args[paya::c]);
      storage::write_u64(row, col::h_date, t.args[paya::date]);
      return txn::frag_status::ok;
    }
  }
  return txn::frag_status::ok;
}

txn::frag_status run_order_status(const txn::fragment& f, txn::txn_desc& t,
                                  txn::frag_host& h) {
  switch (static_cast<os_logic>(f.logic)) {
    case os_customer: {
      const auto row = h.read_row(f, t);
      t.produce(slot::os_balance,
                row.empty() ? 0 : d2b(storage::read_f64(row, col::c_balance)));
      return txn::frag_status::ok;
    }
    case os_order: {
      const auto row = h.read_row(f, t);
      t.produce(slot::os_carrier,
                row.empty() ? 0 : storage::read_u64(row, col::o_carrier_id));
      return txn::frag_status::ok;
    }
    case os_order_line: {
      const auto row = h.read_row(f, t);
      t.produce(static_cast<std::uint16_t>(slot::os_line0 + f.aux),
                row.empty() ? 0 : d2b(storage::read_f64(row, col::ol_amount)));
      return txn::frag_status::ok;
    }
    case os_line_scan: {
      // One ordered range scan over [ol 0, ol 16) of the order's key
      // block. Single partition (the order's home warehouse), so every
      // host visits the same lines in ascending key order and the double
      // sum is bit-deterministic.
      struct acc {
        double sum = 0.0;
      } a;
      h.scan_rows(
          f, t,
          [](void* raw, key_t, std::span<const std::byte> row) {
            static_cast<acc*>(raw)->sum +=
                storage::read_f64(row, col::ol_amount);
            return true;
          },
          &a);
      t.produce(slot::os_line0, d2b(a.sum));
      return txn::frag_status::ok;
    }
  }
  return txn::frag_status::ok;
}

// Delivery args layout.
namespace dla {
constexpr std::size_t w = 0, d = 1, o = 2, c = 3, ol_cnt = 4, carrier = 5,
                      date = 6;
}

txn::frag_status run_delivery(const txn::fragment& f, txn::txn_desc& t,
                              txn::frag_host& h) {
  switch (static_cast<dl_logic>(f.logic)) {
    case dl_new_order_erase: {
      h.erase_row(f, t);  // missing (aborted NewOrder): skip, per spec
      return txn::frag_status::ok;
    }
    case dl_order_update: {
      auto row = h.update_row(f, t);
      if (row.empty()) return txn::frag_status::ok;
      storage::write_u64(row, col::o_carrier_id, t.args[dla::carrier]);
      return txn::frag_status::ok;
    }
    case dl_order_line_update: {
      auto row = h.update_row(f, t);
      if (row.empty()) {
        t.produce(static_cast<std::uint16_t>(f.aux), d2b(0.0));
        return txn::frag_status::ok;
      }
      storage::write_u64(row, col::ol_delivery_d, t.args[dla::date]);
      t.produce(static_cast<std::uint16_t>(f.aux),
                d2b(storage::read_f64(row, col::ol_amount)));
      return txn::frag_status::ok;
    }
    case dl_customer_update: {
      auto row = h.update_row(f, t);
      if (row.empty()) return txn::frag_status::ok;
      double sum = 0.0;
      for (std::uint64_t m = f.input_mask; m != 0; m &= m - 1) {
        sum += b2d(t.slot_value(
            static_cast<std::uint16_t>(__builtin_ctzll(m))));
      }
      storage::write_f64(row, col::c_balance,
                         storage::read_f64(row, col::c_balance) + sum);
      storage::write_u64(row, col::c_delivery_cnt,
                         storage::read_u64(row, col::c_delivery_cnt) + 1);
      return txn::frag_status::ok;
    }
  }
  return txn::frag_status::ok;
}

// StockLevel args layout.
namespace sla {
constexpr std::size_t w = 0, d = 1, threshold = 2, count = 3;
}

txn::frag_status run_stock_level(const txn::fragment& f, txn::txn_desc& t,
                                 txn::frag_host& h) {
  switch (static_cast<sl_logic>(f.logic)) {
    case sl_stock_read: {
      const auto row = h.read_row(f, t);
      // Missing stock (invalid item): report "plenty" so it never counts.
      t.produce(static_cast<std::uint16_t>(f.aux),
                row.empty()
                    ? static_cast<std::uint64_t>(1) << 40
                    : static_cast<std::uint64_t>(
                          storage::read_i64(row, col::s_quantity)));
      return txn::frag_status::ok;
    }
    case sl_aggregate: {
      const auto row = h.read_row(f, t);  // district anchor (unused value)
      (void)row;
      const auto threshold = t.args[sla::threshold];
      std::uint64_t below = 0;
      for (std::uint64_t m = f.input_mask; m != 0; m &= m - 1) {
        const auto q = t.slot_value(
            static_cast<std::uint16_t>(__builtin_ctzll(m)));
        if (q < threshold) ++below;
      }
      t.produce(slot::sl_count, below);
      return txn::frag_status::ok;
    }
    case sl_line_scan: {
      // Counts order lines across the recent-order window — the genuine
      // range read the spec's "last 20 orders" join opens with. u64 count,
      // single partition, ascending key order on every host.
      struct acc {
        std::uint64_t lines = 0;
      } a;
      h.scan_rows(
          f, t,
          [](void* raw, key_t, std::span<const std::byte>) {
            ++static_cast<acc*>(raw)->lines;
            return true;
          },
          &a);
      t.produce(slot::sl_lines, a.lines);
      return txn::frag_status::ok;
    }
  }
  return txn::frag_status::ok;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------
tpcc::tpcc(tpcc_config cfg)
    : cfg_(cfg),
      new_order_proc_("tpcc-new-order", &run_new_order, slot::no_slots),
      payment_proc_("tpcc-payment", &run_payment, slot::pay_slots),
      order_status_proc_("tpcc-order-status", &run_order_status,
                         slot::os_slots),
      delivery_proc_("tpcc-delivery", &run_delivery, slot::dl_slots),
      stock_level_proc_("tpcc-stock-level", &run_stock_level,
                        slot::sl_slots) {
  dstate_.resize(static_cast<std::size_t>(cfg_.warehouses) *
                 kDistrictsPerWarehouse);
}

void tpcc::load(storage::database& db) {
  const std::uint64_t W = cfg_.warehouses;
  const part_id_t P = cfg_.partitions;
  const std::uint64_t n0 = cfg_.initial_orders_per_district;
  const std::uint64_t order_cap =
      W * kDistrictsPerWarehouse *
      (n0 + cfg_.order_headroom_per_district);

  // Warehouse-keyed tables get one arena per partition, sized from the
  // shard's actual warehouse share (warehouses stripe as w % partitions,
  // so shares are uneven whenever W % P != 0 — classic 1-warehouse TPC-C
  // puts everything in shard 0). The +1 keeps empty shards constructible.
  std::vector<std::uint64_t> wshare(P, 0);
  for (std::uint64_t w = 0; w < W; ++w) ++wshare[part_of_warehouse(w)];
  const auto by_warehouse = [&](std::uint64_t rows_per_warehouse) {
    std::vector<std::size_t> caps(P);
    for (part_id_t s = 0; s < P; ++s) {
      caps[s] = static_cast<std::size_t>(wshare[s] * rows_per_warehouse) + 1;
    }
    return caps;
  };
  const std::uint64_t orders_per_warehouse =
      kDistrictsPerWarehouse * (n0 + cfg_.order_headroom_per_district);

  // Index selection rides in the schema (storage::schema::with_index):
  // every table follows cfg_.index, and ORDER-LINE is forced onto the
  // ordered backend when the scan profiles are on — its key packing
  // (order block * 16 + line number) makes an order's lines, and a
  // district's recent orders, contiguous key ranges.
  const storage::index_kind idx = cfg_.index;
  const storage::index_kind ol_idx =
      cfg_.scan_profiles ? storage::index_kind::ordered : idx;

  auto& wh = db.create_table("warehouse", warehouse_schema().with_index(idx),
                             by_warehouse(1));
  auto& di = db.create_table("district", district_schema().with_index(idx),
                             by_warehouse(kDistrictsPerWarehouse));
  auto& cu = db.create_table("customer", customer_schema().with_index(idx),
                             by_warehouse(kDistrictsPerWarehouse *
                                          kCustomersPerDistrict));
  // HISTORY keys are a global insert counter, so the home partition (the
  // payment's warehouse) is not derivable from the key and the per-shard
  // share is workload-skew dependent: keep it a single arena.
  auto& hi = db.create_table("history", history_schema().with_index(idx),
                             order_cap * 2);
  auto& no = db.create_table("new_order", new_order_schema().with_index(idx),
                             by_warehouse(orders_per_warehouse));
  auto& od = db.create_table("orders", orders_schema().with_index(idx),
                             by_warehouse(orders_per_warehouse));
  auto& ol = db.create_table("order_line",
                             order_line_schema().with_index(ol_idx),
                             by_warehouse(orders_per_warehouse *
                                          kMaxOrderLines));
  // ITEM is read-only and replicated per partition: one shard that every
  // partition's (lock-free) lookups route to.
  auto& it = db.create_table("item", item_schema().with_index(idx),
                             kItems + 1);
  it.set_replicated(true);
  auto& st = db.create_table("stock", stock_schema().with_index(idx),
                             by_warehouse(kItems + 16));

  warehouse_ = wh.id();
  district_ = di.id();
  customer_ = cu.id();
  history_ = hi.id();
  new_order_ = no.id();
  orders_ = od.id();
  order_line_ = ol.id();
  item_ = it.id();
  stock_ = st.id();

  std::vector<std::byte> buf(128);
  const auto row = [&buf](std::size_t n) {
    return std::span<std::byte>(buf.data(), n);
  };

  // Items (shared across warehouses).
  for (std::uint64_t i = 0; i < kItems; ++i) {
    auto r = row(it.layout().row_size());
    std::fill(r.begin(), r.end(), std::byte{0});
    storage::write_f64(r, col::i_price, item_price(i));
    storage::write_u64(r, col::i_im_id, mix(i, 2) % 10000);
    it.insert(item_key(i), r);
  }

  for (std::uint64_t w = 0; w < W; ++w) {
    const part_id_t part = part_of_warehouse(w);
    {
      auto r = row(wh.layout().row_size());
      std::fill(r.begin(), r.end(), std::byte{0});
      storage::write_f64(r, col::w_tax,
                         static_cast<double>(mix(w, 3) % 2000) / 10000.0);
      storage::write_f64(r, col::w_ytd, 300000.0);
      wh.insert(warehouse_key(w), r, part);
    }
    for (std::uint64_t i = 0; i < kItems; ++i) {
      auto r = row(st.layout().row_size());
      std::fill(r.begin(), r.end(), std::byte{0});
      storage::write_i64(r, col::s_quantity,
                         10 + static_cast<std::int64_t>(mix(w, i) % 91));
      st.insert(stock_key(w, i), r, part);
    }
    for (std::uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
      district_state& ds = district_of(w, d);
      ds.next_o_id = n0;
      ds.delivery_ptr = n0 * 7 / 10;
      ds.orders.reserve(n0 + cfg_.order_headroom_per_district);
      {
        auto r = row(di.layout().row_size());
        std::fill(r.begin(), r.end(), std::byte{0});
        storage::write_f64(r, col::d_tax,
                           static_cast<double>(mix(w * 10 + d, 4) % 2000) /
                               10000.0);
        storage::write_f64(r, col::d_ytd, 30000.0);
        storage::write_u64(r, col::d_next_o_id, n0);
        di.insert(district_key(w, d), r, part);
      }
      for (std::uint64_t c = 0; c < kCustomersPerDistrict; ++c) {
        auto r = row(cu.layout().row_size());
        std::fill(r.begin(), r.end(), std::byte{0});
        storage::write_f64(r, col::c_balance, -10.0);
        storage::write_f64(r, col::c_ytd_payment, 10.0);
        storage::write_f64(r, col::c_discount,
                           static_cast<double>(mix(c, 5) % 5000) / 10000.0);
        storage::write_u64(r, col::c_credit, mix(c, 6) % 10 == 0 ? 1 : 0);
        cu.insert(customer_key(w, d, c), r, part);
      }
      // Initial order history: the first 70% are delivered (no NEW-ORDER
      // row, carrier set); the rest await Delivery transactions.
      for (std::uint64_t o = 0; o < n0; ++o) {
        order_meta meta;
        meta.customer = static_cast<std::uint32_t>((o * 7 + d) %
                                                   kCustomersPerDistrict);
        meta.ol_cnt = static_cast<std::uint8_t>(5 + mix(o, d) % 11);
        const bool delivered = o < ds.delivery_ptr;
        {
          auto r = row(od.layout().row_size());
          std::fill(r.begin(), r.end(), std::byte{0});
          storage::write_u64(r, col::o_c_id, meta.customer);
          storage::write_u64(r, col::o_entry_d, o);
          storage::write_u64(r, col::o_carrier_id,
                             delivered ? 1 + o % 10 : 0);
          storage::write_u64(r, col::o_ol_cnt, meta.ol_cnt);
          storage::write_u64(r, col::o_all_local, 1);
          od.insert(order_key(w, d, o), r, part);
        }
        if (!delivered) {
          auto r = row(no.layout().row_size());
          std::fill(r.begin(), r.end(), std::byte{0});
          storage::write_u64(r, col::no_o_id, o);
          no.insert(order_key(w, d, o), r, part);
        }
        for (std::uint64_t l = 0; l < meta.ol_cnt; ++l) {
          const std::uint64_t i = mix(o * 16 + l, d) % kItems;
          meta.items[l] = static_cast<std::uint32_t>(i);
          auto r = row(ol.layout().row_size());
          std::fill(r.begin(), r.end(), std::byte{0});
          storage::write_u64(r, col::ol_i_id, i);
          storage::write_u64(r, col::ol_supply_w_id, w);
          storage::write_u64(r, col::ol_quantity, 5);
          storage::write_f64(r, col::ol_amount, 5.0 * item_price(i));
          storage::write_u64(r, col::ol_delivery_d, delivered ? 1 : 0);
          ol.insert(order_line_key(w, d, o, l + 1), r, part);
        }
        ds.orders.push_back(meta);
      }
    }
  }
}

std::unique_ptr<txn::txn_desc> tpcc::make_txn(common::rng& r) {
  const double mix_total = cfg_.new_order_ratio + cfg_.payment_ratio +
                           cfg_.order_status_ratio + cfg_.delivery_ratio +
                           cfg_.stock_level_ratio;
  double roll = r.next_double() * mix_total;
  if ((roll -= cfg_.new_order_ratio) < 0) return make_new_order(r);
  if ((roll -= cfg_.payment_ratio) < 0) return make_payment(r);
  if ((roll -= cfg_.order_status_ratio) < 0) return make_order_status(r);
  if ((roll -= cfg_.delivery_ratio) < 0) return make_delivery(r);
  return make_stock_level(r);
}

std::unique_ptr<txn::txn_desc> tpcc::make_new_order(common::rng& r) {
  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &new_order_proc_;

  const std::uint64_t w = r.next_below(cfg_.warehouses);
  const std::uint64_t d = r.next_below(kDistrictsPerWarehouse);
  const std::uint64_t c = r.next_below(kCustomersPerDistrict);
  const std::uint32_t ol_cnt = static_cast<std::uint32_t>(r.next_in(5, 15));
  const bool doomed = r.next_bool(cfg_.invalid_item_ratio);
  const part_id_t home = part_of_warehouse(w);

  district_state& ds = district_of(w, d);
  const std::uint64_t o_id = ds.next_o_id;  // pre-assigned (deterministic DB)

  order_meta meta;
  meta.customer = static_cast<std::uint32_t>(c);
  meta.ol_cnt = static_cast<std::uint8_t>(ol_cnt);

  t->args = {w, d, c, o_id, ol_cnt, date_counter_++};
  bool all_local = true;
  for (std::uint32_t j = 0; j < ol_cnt; ++j) {
    std::uint64_t i_id = r.next_below(kItems);
    if (doomed && j == ol_cnt - 1) i_id = kInvalidItem;  // plant user abort
    std::uint64_t supply_w = w;
    if (cfg_.warehouses > 1 && r.next_bool(cfg_.remote_stock_ratio)) {
      supply_w = r.next_below(cfg_.warehouses);
      if (supply_w != w) all_local = false;
    }
    meta.items[j] = static_cast<std::uint32_t>(i_id);
    t->args.push_back(i_id);
    t->args.push_back(supply_w);
    t->args.push_back(r.next_in(1, 10));
  }

  std::uint16_t idx = 0;
  // Abortable item checks first (conservative-liveness ordering).
  for (std::uint32_t j = 0; j < ol_cnt; ++j) {
    txn::fragment f;
    f.table = item_;
    f.key = item_key(t->args[noa::i_id(j)]);
    f.part = static_cast<part_id_t>(f.key % cfg_.partitions);
    f.kind = txn::op_kind::read;
    f.abortable = true;
    f.logic = no_item_check;
    f.output_slot = static_cast<std::uint16_t>(j);
    f.aux = j;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = warehouse_;
    f.key = warehouse_key(w);
    f.part = home;
    f.kind = txn::op_kind::read;
    f.logic = no_warehouse_read;
    f.output_slot = slot::w_tax;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = district_;
    f.key = district_key(w, d);
    f.part = home;
    f.kind = txn::op_kind::update;
    f.logic = no_district_update;
    f.output_slot = slot::d_tax;
    f.aux = o_id + 1;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = customer_;
    f.key = customer_key(w, d, c);
    f.part = home;
    f.kind = txn::op_kind::read;
    f.logic = no_customer_read;
    f.output_slot = slot::c_discount;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  for (std::uint32_t j = 0; j < ol_cnt; ++j) {
    txn::fragment f;
    f.table = stock_;
    f.key = stock_key(t->args[noa::supply_w(j)], t->args[noa::i_id(j)]);
    f.part = part_of_warehouse(t->args[noa::supply_w(j)]);
    f.kind = txn::op_kind::update;
    f.logic = no_stock_update;
    f.aux = j;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = orders_;
    f.key = order_key(w, d, o_id);
    f.part = home;
    f.kind = txn::op_kind::insert;
    f.logic = no_order_insert;
    f.aux = all_local ? 1 : 0;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = new_order_;
    f.key = order_key(w, d, o_id);
    f.part = home;
    f.kind = txn::op_kind::insert;
    f.logic = no_new_order_insert;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  for (std::uint32_t j = 0; j < ol_cnt; ++j) {
    txn::fragment f;
    f.table = order_line_;
    f.key = order_line_key(w, d, o_id, j + 1);
    f.part = home;
    f.kind = txn::op_kind::insert;
    f.logic = no_order_line_insert;
    f.aux = j;
    f.input_mask = (1ull << j) | (1ull << slot::w_tax) |
                   (1ull << slot::d_tax) | (1ull << slot::c_discount);
    f.idx = idx++;
    t->frags.push_back(f);
  }

  // Generator bookkeeping mirrors the deterministic outcome: doomed
  // NewOrders abort and consume no order id.
  if (!doomed) {
    ds.orders.push_back(meta);
    ds.next_o_id += 1;
  }
  return t;
}

std::unique_ptr<txn::txn_desc> tpcc::make_payment(common::rng& r) {
  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &payment_proc_;

  const std::uint64_t w = r.next_below(cfg_.warehouses);
  const std::uint64_t d = r.next_below(kDistrictsPerWarehouse);
  std::uint64_t c_w = w, c_d = d;
  if (cfg_.warehouses > 1 && r.next_bool(cfg_.remote_payment_ratio)) {
    c_w = r.next_below(cfg_.warehouses);
    c_d = r.next_below(kDistrictsPerWarehouse);
  }
  const std::uint64_t c = r.next_below(kCustomersPerDistrict);
  const double amount = 1.0 + static_cast<double>(r.next_below(499900)) / 100.0;

  t->args = {w, d, c_w, c_d, c, d2b(amount), date_counter_++};

  std::uint16_t idx = 0;
  {
    txn::fragment f;
    f.table = warehouse_;
    f.key = warehouse_key(w);
    f.part = part_of_warehouse(w);
    f.kind = txn::op_kind::update;
    f.logic = pay_warehouse;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = district_;
    f.key = district_key(w, d);
    f.part = part_of_warehouse(w);
    f.kind = txn::op_kind::update;
    f.logic = pay_district;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = customer_;
    f.key = customer_key(c_w, c_d, c);
    f.part = part_of_warehouse(c_w);  // remote customer: multi-partition
    f.kind = txn::op_kind::update;
    f.logic = pay_customer;
    f.output_slot = slot::pay_balance;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = history_;
    f.key = history_counter_++;
    f.part = part_of_warehouse(w);
    f.kind = txn::op_kind::insert;
    f.logic = pay_history_insert;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  return t;
}

std::unique_ptr<txn::txn_desc> tpcc::make_order_status(common::rng& r) {
  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &order_status_proc_;

  const std::uint64_t w = r.next_below(cfg_.warehouses);
  const std::uint64_t d = r.next_below(kDistrictsPerWarehouse);
  district_state& ds = district_of(w, d);
  const std::uint64_t o = r.next_below(ds.next_o_id);
  const order_meta& meta = ds.orders[o];
  const part_id_t home = part_of_warehouse(w);

  t->args = {w, d, meta.customer, o, meta.ol_cnt};

  std::uint16_t idx = 0;
  {
    txn::fragment f;
    f.table = customer_;
    f.key = customer_key(w, d, meta.customer);
    f.part = home;
    f.kind = txn::op_kind::read;
    f.logic = os_customer;
    f.output_slot = slot::os_balance;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = orders_;
    f.key = order_key(w, d, o);
    f.part = home;
    f.kind = txn::op_kind::read;
    f.logic = os_order;
    f.output_slot = slot::os_carrier;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  if (cfg_.scan_profiles) {
    // One range scan over the order's whole line block [ol 0, ol 16)
    // replaces the per-line point reads; the sum of OL_AMOUNT lands in
    // the first line slot.
    txn::fragment f;
    f.table = order_line_;
    f.key = order_line_key(w, d, o, 0);
    f.key_hi = order_line_key(w, d, o, kMaxOrderLines + 1);
    f.part = home;
    f.kind = txn::op_kind::scan;
    f.logic = os_line_scan;
    f.output_slot = slot::os_line0;
    f.idx = idx++;
    t->frags.push_back(f);
    return t;
  }
  for (std::uint32_t l = 0; l < meta.ol_cnt; ++l) {
    txn::fragment f;
    f.table = order_line_;
    f.key = order_line_key(w, d, o, l + 1);
    f.part = home;
    f.kind = txn::op_kind::read;
    f.logic = os_order_line;
    f.aux = l;
    f.output_slot = static_cast<std::uint16_t>(slot::os_line0 + l);
    f.idx = idx++;
    t->frags.push_back(f);
  }
  return t;
}

std::unique_ptr<txn::txn_desc> tpcc::make_delivery(common::rng& r) {
  const std::uint64_t w = r.next_below(cfg_.warehouses);
  const std::uint64_t d = r.next_below(kDistrictsPerWarehouse);
  district_state& ds = district_of(w, d);
  if (ds.delivery_ptr >= ds.next_o_id) {
    return make_payment(r);  // nothing to deliver in this district
  }
  const std::uint64_t o = ds.delivery_ptr++;
  const order_meta& meta = ds.orders[o];
  const part_id_t home = part_of_warehouse(w);

  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &delivery_proc_;
  t->args = {w,          d,
             o,          meta.customer,
             meta.ol_cnt, 1 + r.next_below(10),
             date_counter_++};

  std::uint16_t idx = 0;
  {
    txn::fragment f;
    f.table = new_order_;
    f.key = order_key(w, d, o);
    f.part = home;
    f.kind = txn::op_kind::erase;
    f.logic = dl_new_order_erase;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = orders_;
    f.key = order_key(w, d, o);
    f.part = home;
    f.kind = txn::op_kind::update;
    f.logic = dl_order_update;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  std::uint64_t line_mask = 0;
  for (std::uint32_t l = 0; l < meta.ol_cnt; ++l) {
    txn::fragment f;
    f.table = order_line_;
    f.key = order_line_key(w, d, o, l + 1);
    f.part = home;
    f.kind = txn::op_kind::update;
    f.logic = dl_order_line_update;
    f.aux = l;
    f.output_slot = static_cast<std::uint16_t>(l);
    f.idx = idx++;
    t->frags.push_back(f);
    line_mask |= 1ull << l;
  }
  {
    txn::fragment f;
    f.table = customer_;
    f.key = customer_key(w, d, meta.customer);
    f.part = home;
    f.kind = txn::op_kind::update;
    f.logic = dl_customer_update;
    f.input_mask = line_mask;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  return t;
}

std::unique_ptr<txn::txn_desc> tpcc::make_stock_level(common::rng& r) {
  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &stock_level_proc_;

  const std::uint64_t w = r.next_below(cfg_.warehouses);
  const std::uint64_t d = r.next_below(kDistrictsPerWarehouse);
  district_state& ds = district_of(w, d);
  const std::uint64_t o = ds.next_o_id - 1;  // most recent order
  const order_meta& meta = ds.orders[o];
  const part_id_t home = part_of_warehouse(w);
  const std::uint64_t threshold = r.next_in(10, 20);

  t->args = {w, d, threshold, meta.ol_cnt};

  std::uint16_t idx = 0;
  std::uint64_t qty_mask = 0;
  for (std::uint32_t l = 0; l < meta.ol_cnt; ++l) {
    txn::fragment f;
    f.table = stock_;
    f.key = stock_key(w, meta.items[l]);
    f.part = home;
    f.kind = txn::op_kind::read;
    f.logic = sl_stock_read;
    f.aux = l;
    f.output_slot = static_cast<std::uint16_t>(l);
    f.idx = idx++;
    t->frags.push_back(f);
    qty_mask |= 1ull << l;
  }
  if (cfg_.scan_profiles) {
    // The spec's "last 20 orders" join opens with a range read: scan the
    // order-line key range covering the district's 20 most recent orders
    // (contiguous by key packing) and report the line count.
    const std::uint64_t o_lo =
        ds.next_o_id > 20 ? ds.next_o_id - 20 : 0;
    txn::fragment f;
    f.table = order_line_;
    f.key = order_line_key(w, d, o_lo, 0);
    f.key_hi = order_line_key(w, d, ds.next_o_id, 0);
    f.part = home;
    f.kind = txn::op_kind::scan;
    f.logic = sl_line_scan;
    f.output_slot = slot::sl_lines;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  {
    txn::fragment f;
    f.table = district_;
    f.key = district_key(w, d);
    f.part = home;
    f.kind = txn::op_kind::read;
    f.logic = sl_aggregate;
    f.input_mask = qty_mask;
    f.output_slot = slot::sl_count;
    f.idx = idx++;
    t->frags.push_back(f);
  }
  return t;
}

bool tpcc::check_consistency(const storage::database& db,
                             std::string* why) const {
  const auto& od = db.at(orders_);
  const auto& di = db.at(district_);
  std::vector<std::uint64_t> max_o(dstate_.size(), 0);
  od.for_each_live([&](key_t k, storage::row_id_t) {
    const std::uint64_t district = k / kOrderSpace;
    const std::uint64_t o = k % kOrderSpace;
    if (district < max_o.size()) max_o[district] = std::max(max_o[district], o);
  });
  for (std::size_t district = 0; district < dstate_.size(); ++district) {
    const auto rid = di.lookup_local(
        district, part_of_warehouse(district / kDistrictsPerWarehouse));
    if (rid == storage::kNoRow) continue;
    const std::uint64_t next =
        storage::read_u64(di.row(rid), col::d_next_o_id);
    if (next != max_o[district] + 1) {
      if (why != nullptr) {
        *why = "district " + std::to_string(district) + ": D_NEXT_O_ID=" +
               std::to_string(next) + " but max order id=" +
               std::to_string(max_o[district]);
      }
      return false;
    }
  }
  return true;
}

double tpcc::money_sum(const storage::database& db) const {
  const auto& cu = db.at(customer_);
  double sum = 0.0;
  cu.for_each_live([&](key_t, storage::row_id_t rid) {
    const auto row = cu.row(rid);
    sum += storage::read_f64(row, col::c_balance) +
           storage::read_f64(row, col::c_ytd_payment);
  });
  return sum;
}

}  // namespace quecc::wl
