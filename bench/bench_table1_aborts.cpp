// Table 1 (§5.2): abort rates (%) per transaction class for five system
// configurations — 500 clients (1 site × 1 CPU), 1000 clients (1 site ×
// 3 CPU and 3 sites × 1 CPU), 1500 clients (1 site × 6 CPU and 6 sites ×
// 1 CPU).
#include <cstdio>

#include "common.hpp"
#include "tpcc/profile.hpp"

using namespace dbsm;

int main(int argc, char** argv) {
  util::flag_set flags;
  bench::declare_common_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  struct column {
    const char* label;
    unsigned clients, sites, cpus;
  };
  const std::vector<column> columns = {
      {"500cl 1sx1c", 500, 1, 1},  {"1000cl 1sx3c", 1000, 1, 3},
      {"1000cl 3sx1c", 1000, 3, 1}, {"1500cl 1sx6c", 1500, 1, 6},
      {"1500cl 6sx1c", 1500, 6, 1},
  };

  std::vector<core::experiment_result> results;
  for (const column& col : columns) {
    auto cfg = bench::paper_config();
    bench::apply_common_flags(flags, cfg);
    cfg.clients = col.clients;
    cfg.sites = col.sites;
    cfg.cpus_per_site = col.cpus;
    results.push_back(bench::run_point(cfg, col.label));
  }

  // Paper row order.
  const std::vector<db::txn_class> row_order = {
      tpcc::c_delivery,          tpcc::c_neworder,
      tpcc::c_payment_long,      tpcc::c_payment_short,
      tpcc::c_orderstatus_long,  tpcc::c_orderstatus_short,
      tpcc::c_stocklevel,
  };

  util::text_table t;
  std::vector<std::string> header{"Transaction"};
  for (const column& col : columns) header.push_back(col.label);
  t.header(header);
  for (db::txn_class cls : row_order) {
    std::vector<util::cell> row{tpcc::class_name(cls)};
    for (const auto& r : results)
      row.push_back(util::fmt(r.stats.of(cls).abort_rate_pct(), 2));
    t.row(std::move(row));
  }
  std::vector<util::cell> all_row{"All"};
  for (const auto& r : results)
    all_row.push_back(util::fmt(r.stats.abort_rate_pct(), 2));
  t.row(std::move(all_row));

  std::puts("=== Table 1: abort rates (%) ===");
  if (!bench::emit(t, flags.get_string("csv"))) return 1;
  std::puts(
      "\nPaper shapes: payment dominates and grows with replication "
      "degree; long > short;\norderstatus(short) and stocklevel are 0.00; "
      "neworder stays ~1.5%; replication\nimpacts mainly payment (the "
      "warehouse hotspot, §5.2).");
  return 0;
}
