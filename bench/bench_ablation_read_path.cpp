// Ablation: the local read-only fast path (src/read/) vs the certified
// baseline, on the YCSB read-mostly mixes. Three modes per mix:
//
//   off        — the paper's §5.1 termination: read-only transactions
//                certify locally against the replica's own index (no
//                broadcast, but every read pays certification probes and
//                can certification-abort);
//   certified  — the all-certified baseline: read-only transactions ship
//                an empty-write-set payload through the total order and
//                certify at the delivery point (what a protocol without
//                local reads does — one broadcast per read);
//   fast       — epoch-lease snapshot reads: served locally AT the
//                uniform-delivered watermark, zero broadcasts and zero
//                certification probes, falling back to the certified path
//                when the lease is stale.
//
// Reported per point: committed throughput, abort rate, read-only
// broadcasts (counter-verified zero for fast/off), fast-path hit rate,
// and the read_snapshot monitor verdict (every fast read cross-checked
// against the reference agreed order).
//
//   $ ./bench_ablation_read_path [--clients N] [--txns N] [--csv out.csv]
//                                [--json out.json] [--smoke]
//
// --json writes the machine-readable baseline (bench/BENCH_reads.json);
// --smoke runs the quick matrix and exits nonzero on a monitor violation,
// a read-only broadcast on the fast path at YCSB-C, or an idle fast path
// (CI wiring).
#include <cstdio>

#include "common.hpp"
#include "workload/kv.hpp"

using namespace dbsm;

namespace {

struct point_result {
  std::string mix;
  std::string mode;
  core::experiment_result res;
  std::uint64_t fast = 0;
  std::uint64_t fallback = 0;
  std::uint64_t ro_bcast = 0;
  std::uint64_t revocations = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags;
  bench::declare_common_flags(flags);
  flags.declare("clients", "360", "KV clients across 3 sites (enough "
                                  "load that the broadcast path, not "
                                  "think time, bounds throughput)");
  flags.declare("keys", "20000", "keyspace size");
  flags.declare("json", "", "optional JSON baseline output path");
  flags.declare("smoke", "false",
                "CI mode: quick matrix, nonzero exit on monitor "
                "violation or fast-path broadcast");
  if (!flags.parse(argc, argv)) return 1;
  const bool smoke = flags.get_bool("smoke");

  const struct { const char* name; kv::mix preset; } mixes[] = {
      {"b", kv::mix::ycsb_b},
      {"c", kv::mix::ycsb_c},
  };
  const read::mode modes[] = {read::mode::off, read::mode::certified,
                              read::mode::fast};

  std::vector<point_result> points;
  for (const auto& m : mixes) {
    for (const read::mode mode : modes) {
      core::experiment_config cfg = bench::paper_config();
      cfg.clients = static_cast<unsigned>(flags.get_int("clients"));
      bench::apply_common_flags(flags, cfg);
      if (!flags.is_set("txns"))
        cfg.target_responses = smoke || flags.get_bool("quick") ? 800 : 2400;
      kv::kv_config k;
      k.keys = static_cast<std::uint32_t>(flags.get_int("keys"));
      k.preset = m.preset;
      k.think_time = util::exponential_dist(0.5);
      cfg.workload = kv::factory(k);
      cfg.replica_cfg.read.path = mode;

      point_result p;
      p.mix = m.name;
      p.mode = read::mode_name(mode);
      p.res = bench::run_point(cfg, std::string("read path ycsb-") +
                                        m.name + " mode=" + p.mode);
      for (const core::site_report& sr : p.res.sites) {
        p.fast += sr.fast_path_reads;
        p.fallback += sr.fallback_reads;
        p.ro_bcast += sr.ro_broadcasts;
        p.revocations += sr.lease_revocations;
      }
      points.push_back(std::move(p));
    }
  }

  util::text_table t;
  t.columns({{"Mix", "mix"}, {"Mode", "mode"}, {"tpm", "tpm"},
             {"Abort %", "abort_pct"}, {"RO bcast", "ro_broadcasts"},
             {"Fast reads", "fast_reads"}, {"Fallback", "fallback_reads"},
             {"Hit %", "hit_pct"}, {"", "lease_revocations"},
             {"Checks", "checks_ok"}});
  t.field("benchmark", "read_path_ablation");
  bool failed = false;
  for (const point_result& p : points) {
    const std::uint64_t served = p.fast + p.fallback;
    const double hit =
        served == 0 ? 0.0
                    : 100.0 * static_cast<double>(p.fast) /
                          static_cast<double>(served);
    if (!p.res.checks.ok || !p.res.safety.ok) {
      std::fprintf(stderr, "[read-path] FAIL %s/%s: %s\n", p.mix.c_str(),
                   p.mode.c_str(), p.res.checks.summary().c_str());
      failed = true;
    }
    // The whole point of the fast path: a healthy YCSB-C run never
    // broadcasts — counter-verified, not assumed.
    if (p.mode == std::string("fast")) {
      if (p.mix == "c" && p.ro_bcast != 0) {
        std::fprintf(stderr,
                     "[read-path] FAIL: fast mode at ycsb-c issued %llu "
                     "read-only broadcasts (expected 0)\n",
                     static_cast<unsigned long long>(p.ro_bcast));
        failed = true;
      }
      if (p.fast == 0) {
        std::fprintf(stderr, "[read-path] FAIL: fast path at ycsb-%s "
                             "served zero reads\n", p.mix.c_str());
        failed = true;
      }
    }
    t.row({p.mix, p.mode, util::num(p.res.tpm(), 0),
           util::num(p.res.stats.abort_rate_pct(), 2), util::num(p.ro_bcast),
           util::num(p.fast), util::num(p.fallback), util::num(hit, 1),
           util::num(p.revocations), util::verdict(p.res.checks.ok)});
  }

  if (!bench::emit(t, flags.get_string("csv"), flags.get_string("json")))
    return 1;
  return failed ? 1 : 0;
}
