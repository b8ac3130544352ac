// Figure 5 (§5.1): throughput (committed tpm), average latency, and abort
// rate versus number of clients (100–2000), for five system
// configurations: centralized with 1/3/6 CPUs and replicated with 3/6
// single-CPU sites.
#include <map>

#include "common.hpp"

using namespace dbsm;

int main(int argc, char** argv) {
  util::flag_set flags;
  bench::declare_common_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const bool quick = flags.get_bool("quick");
  const auto clients = bench::fig5_client_points(quick);
  const auto& systems = bench::fig5_systems();

  struct point {
    double tpm, latency_ms, abort_pct;
  };
  std::map<std::string, std::map<unsigned, point>> series;

  for (const auto& sys : systems) {
    for (unsigned n : clients) {
      auto cfg = bench::paper_config();
      bench::apply_common_flags(flags, cfg);
      cfg.sites = sys.sites;
      cfg.cpus_per_site = sys.cpus;
      cfg.clients = n;
      const auto label =
          std::string(sys.label) + " / " + std::to_string(n) + " clients";
      const auto r = bench::run_point(cfg, label);
      series[sys.label][n] = {r.tpm(), r.stats.mean_latency_ms(),
                              r.stats.abort_rate_pct()};
    }
  }

  bool written = true;
  auto print_metric = [&](const char* title, auto pick) {
    util::text_table t;
    std::vector<std::string> header{"Clients"};
    for (const auto& sys : systems) header.push_back(sys.label);
    t.header(header);
    for (unsigned n : clients) {
      std::vector<util::cell> row{std::to_string(n)};
      for (const auto& sys : systems)
        row.push_back(util::fmt(pick(series[sys.label][n]), 1));
      t.row(std::move(row));
    }
    std::printf("\n=== Figure 5: %s ===\n", title);
    const std::string csv = flags.get_string("csv");
    written &= bench::emit(t, csv.empty() ? "" : csv + "." + title + ".csv");
  };

  print_metric("throughput_tpm",
               [](const point& p) { return p.tpm; });
  print_metric("latency_ms",
               [](const point& p) { return p.latency_ms; });
  print_metric("abort_rate_pct",
               [](const point& p) { return p.abort_pct; });

  std::puts(
      "\nPaper shapes: 3 sites ~ 3-CPU centralized, 6 sites ~ 6-CPU; "
      "1 CPU saturates near 500 clients (~2600 tpm), 3 sites near 1500 "
      "(~7000 tpm), 6 sites scale past 2000 (~9000 tpm).");
  return written ? 0 : 1;
}
