// Figure 4 (§4.2): Q-Q plots of transaction latency, simulation vs real
// system, for (a) read-only and (b) update transactions — a run of the
// TPC-C benchmark with 20 clients and 5000 transactions on one site.
//
// Substitution (DESIGN.md): the paper compares its model against a real
// PostgreSQL testbed run. We compare the simulation against a *reference
// run* — an independently-seeded execution with multiplicative measurement
// noise — standing in for the profiled real system; matching quantiles
// validate that the latency distribution is stable and moment-faithful,
// which is what the paper's near-diagonal Q-Q plots demonstrate.
#include <cstdio>

#include "common.hpp"
#include "tpcc/profile.hpp"

using namespace dbsm;

namespace {

struct latency_split {
  util::sample_set read_only_ms;
  util::sample_set update_ms;
};

latency_split collect(std::uint64_t seed, bool add_noise) {
  core::experiment_config cfg = bench::paper_config();
  cfg.sites = 1;
  cfg.cpus_per_site = 1;
  cfg.clients = 20;  // §4.2: "a run of the TPC-C benchmark with 20 clients"
  cfg.target_responses = 5000;
  cfg.seed = seed;
  const auto result = core::run_experiment(cfg);

  util::rng noise(seed ^ 0xabcdef);
  latency_split out;
  for (db::txn_class c = 0;
       c < static_cast<db::txn_class>(result.stats.classes()); ++c) {
    const auto& samples = result.stats.of(c).commit_latency_ms;
    for (double v : samples.sorted()) {
      const double measured =
          add_noise ? v * (1.0 + noise.normal(0.0, 0.05)) : v;
      if (result.class_is_update[c]) {
        out.update_ms.add(measured);
      } else {
        out.read_only_ms.add(measured);
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags;
  flags.declare("seed", "42", "simulation seed");
  flags.declare("points", "20", "quantile points per plot");
  flags.declare("csv", "", "optional CSV output path");
  if (!flags.parse(argc, argv)) return 1;

  const auto seed = flags.get_u64("seed");
  std::fprintf(stderr, "[run] simulation run (seed %llu)...\n",
               static_cast<unsigned long long>(seed));
  const latency_split sim_run = collect(seed, false);
  std::fprintf(stderr, "[run] reference ('real') run...\n");
  const latency_split real_run = collect(seed + 1000, true);

  const auto n = static_cast<std::size_t>(flags.get_int("points"));
  bool written = true;
  auto print_qq = [&](const char* title, const util::sample_set& a,
                      const util::sample_set& b) {
    util::text_table t;
    // The console shows 2 digits; the CSV series keeps 4.
    t.columns({{"Simulation (ms)", ""}, {"Real (ms)", ""}, {"", "sim_ms"},
               {"", "real_ms"}});
    double max_rel_err = 0;
    for (const auto& [x, y] : util::qq_series(a, b, n)) {
      t.row({util::fmt(x, 2), util::fmt(y, 2), util::fmt(x, 4),
             util::fmt(y, 4)});
      if (x > 1.0) {
        max_rel_err = std::max(max_rel_err, std::abs(y - x) / x);
      }
    }
    std::printf("\n=== Figure 4: Q-Q %s (n_sim=%zu, n_real=%zu) ===\n",
                title, a.size(), b.size());
    const std::string csv = flags.get_string("csv");
    written &= bench::emit(t, csv.empty() ? "" : csv + "." + title + ".csv");
    std::printf("max relative quantile deviation: %.1f%%\n",
                max_rel_err * 100.0);
  };

  print_qq("read_only", sim_run.read_only_ms, real_run.read_only_ms);
  print_qq("update", sim_run.update_ms, real_run.update_ms);
  std::puts(
      "\nPaper shape: both Q-Q plots lie close to the diagonal — the "
      "simulated latency\ndistribution approximates the real system's.");
  return written ? 0 : 1;
}
