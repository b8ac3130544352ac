// Ablation: Zipf skew vs. abort rate under the KV workload — the
// scenario the pluggable workload seam exists for. TPC-C partitions
// contention by home warehouse, so its conflict rates barely move with
// load placement; the KV workload concentrates writes on a global hot
// key set that every site hammers concurrently. Sweeping zipf_theta
// shows certification conflicts (escalated scans racing hot-granule
// writes) and lock/preemption conflicts rising together, while committed
// throughput erodes.
//
//   $ ./bench_ablation_skew [--clients N] [--txns N] [--csv out.csv]
//                           [--json out.json]
//
// --json writes the machine-readable baseline (bench/BENCH_kv.json).
#include <cstdio>

#include "common.hpp"
#include "workload/kv.hpp"

using namespace dbsm;

int main(int argc, char** argv) {
  util::flag_set flags;
  bench::declare_common_flags(flags);
  flags.declare("clients", "60", "KV clients across 3 sites");
  flags.declare("keys", "20000", "keyspace size");
  flags.declare("granule", "128", "keys per scan granule");
  flags.declare("dist", "zipfian",
                "key distribution: zipfian (stationary), latest "
                "(YCSB-D drifting hot set), or scrambled (Zipf "
                "frequencies, bit-mixed key placement)");
  flags.declare("mix", "custom",
                "operation mix: custom (30/30/25 default), a (YCSB-A "
                "50/50), b (YCSB-B 95/5), or c (YCSB-C pure reads)");
  flags.declare("json", "", "optional JSON baseline output path");
  if (!flags.parse(argc, argv)) return 1;

  const std::string dist_name = flags.get_string("dist");
  if (dist_name != "zipfian" && dist_name != "latest" &&
      dist_name != "scrambled") {
    std::fprintf(stderr, "unknown --dist '%s' (zipfian|latest|scrambled)\n",
                 dist_name.c_str());
    return 1;
  }
  const std::string mix_name = flags.get_string("mix");
  if (mix_name != "custom" && mix_name != "a" && mix_name != "b" &&
      mix_name != "c") {
    std::fprintf(stderr, "unknown --mix '%s' (custom|a|b|c)\n",
                 mix_name.c_str());
    return 1;
  }

  const std::vector<double> thetas =
      flags.get_bool("quick")
          ? std::vector<double>{0.0, 0.6, 0.95}
          : std::vector<double>{0.0, 0.3, 0.5, 0.6, 0.8, 0.9, 0.95, 0.99};

  util::text_table t;
  t.columns({{"Zipf theta", "theta"}, {"tpm", "tpm"},
             {"Cert aborts", "cert_aborts"}, {"Cert %", "cert_abort_pct"},
             {"Preempt %", "preempt_abort_pct"}, {"Lock %", "lock_abort_pct"},
             {"Abort %", "abort_pct"}});
  t.field("benchmark", "kv_zipf_skew_sweep");
  t.field("dist", dist_name);
  t.field("mix", mix_name);

  for (const double theta : thetas) {
    core::experiment_config cfg = bench::paper_config();
    cfg.clients = static_cast<unsigned>(flags.get_int("clients"));
    bench::apply_common_flags(flags, cfg);
    // The sweep needs less volume than a figure reproduction: 2400
    // responses resolve the abort trend unless --txns overrides.
    if (!flags.is_set("txns")) cfg.target_responses = 2400;
    kv::kv_config k;
    k.keys = static_cast<std::uint32_t>(flags.get_int("keys"));
    k.keys_per_granule =
        static_cast<std::uint32_t>(flags.get_int("granule"));
    k.zipf_theta = theta;
    k.dist = dist_name == "latest"      ? kv::key_dist::latest
             : dist_name == "scrambled" ? kv::key_dist::scrambled
                                        : kv::key_dist::zipfian;
    k.mix_read = 0.30;
    k.mix_update = 0.30;
    k.mix_scan = 0.25;
    k.preset = mix_name == "a"   ? kv::mix::ycsb_a
               : mix_name == "b" ? kv::mix::ycsb_b
               : mix_name == "c" ? kv::mix::ycsb_c
                                 : kv::mix::custom;
    k.think_time = util::exponential_dist(0.5);
    cfg.workload = kv::factory(k);

    const auto r = bench::run_point(
        cfg, "kv skew theta=" + util::fmt(theta, 2));
    std::uint64_t lock = 0, preempt = 0, cert = 0, total = 0;
    for (db::txn_class cls = 0; cls < kv::num_classes; ++cls) {
      lock += r.stats.of(cls).aborted_lock;
      preempt += r.stats.of(cls).aborted_preempt;
      cert += r.stats.of(cls).aborted_cert;
      total += r.stats.of(cls).total();
    }
    const double denom = total == 0 ? 1.0 : static_cast<double>(total);
    const double cert_pct = 100.0 * static_cast<double>(cert) / denom;
    const double preempt_pct =
        100.0 * static_cast<double>(preempt) / denom;
    const double lock_pct = 100.0 * static_cast<double>(lock) / denom;

    t.row({util::num(theta, 2), util::num(r.tpm(), 0), util::num(cert),
           util::num(cert_pct, 2), util::num(preempt_pct, 2),
           util::num(lock_pct, 2), util::num(r.stats.abort_rate_pct(), 2)});
  }

  return bench::emit(t, flags.get_string("csv"), flags.get_string("json"))
             ? 0
             : 1;
}
