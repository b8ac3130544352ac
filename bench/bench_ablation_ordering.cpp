// Ablation: the §5.3 sequencer bottleneck, measured at the protocol layer
// on an update-heavy KV mix (YCSB-A) under the online monitors and the
// off-line §5.3 safety check.
//
// The contended resource is the sequencer site's CPU: under the fixed
// sequencer one site mints and multicasts every assignment record on top
// of its normal certify/apply work, so its protocol-CPU figure stands out.
// Reported: committed throughput, abort rate, cert-latency p95, the
// per-site protocol-CPU spread (max/min across sites — the concentration
// signal), peak-site protocol CPU, view changes, and the monitor verdict.
//
//   $ ./bench_ablation_ordering [--clients N] [--txns N] [--csv out.csv]
//                               [--json out.json] [--smoke]
//
// --json writes the machine-readable baseline (bench/BENCH_ordering.json);
// --smoke runs a quick point and exits nonzero on a monitor or safety
// violation, or when the sequencer site's protocol CPU does not stand out
// (spread <= 1) (CI wiring).
#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "util/rng.hpp"
#include "workload/kv.hpp"

using namespace dbsm;

int main(int argc, char** argv) {
  util::flag_set flags;
  bench::declare_common_flags(flags);
  flags.declare("clients", "1500", "KV clients across 3 sites (enough "
                                   "load that ordering CPU matters)");
  flags.declare("keys", "20000", "keyspace size");
  flags.declare("json", "", "optional JSON baseline output path");
  flags.declare("smoke", "false",
                "CI mode: quick point, nonzero exit on a monitor/safety "
                "violation or a sequencer site whose protocol CPU does not "
                "stand out");
  if (!flags.parse(argc, argv)) return 1;
  const bool quick = flags.get_bool("smoke") || flags.get_bool("quick");

  core::experiment_config cfg = bench::paper_config();
  cfg.clients = static_cast<unsigned>(flags.get_int("clients"));
  bench::apply_common_flags(flags, cfg);
  if (!flags.is_set("txns"))
    cfg.target_responses = quick ? 6 * cfg.clients : 20 * cfg.clients;
  // The protocol-bound regime (same profile as the batching ablation):
  // light execution and a fast engine, so the ordering path — not the
  // calibrated PIII commit CPU or the RAID — is the binding resource and
  // the sequencer site's concentration is visible.
  kv::kv_config k;
  k.keys = static_cast<std::uint32_t>(flags.get_int("keys"));
  k.preset = kv::mix::ycsb_a;
  k.zipf_theta = 0.5;
  k.value_bytes = 32;
  k.cpu_per_op = util::constant_dist(20e-6);
  k.think_time = util::exponential_dist(0.1);
  cfg.workload = kv::factory(k);
  cfg.replica_cfg.server.commit_cpu = microseconds(200);
  cfg.replica_cfg.server.remote_apply_cpu = microseconds(100);
  cfg.replica_cfg.server.storage.request_latency = microseconds(170);

  const char* name = "fixed_sequencer";
  const core::experiment_result r =
      bench::run_point(cfg, std::string("ordering ") + name);
  double lo = 1.0, hi = 0.0;
  for (const core::site_report& s : r.sites) {
    lo = std::min(lo, s.protocol_cpu);
    hi = std::max(hi, s.protocol_cpu);
  }
  const double spread = hi / std::max(lo, 1e-9);
  const double p95 =
      r.cert_latency_ms.empty() ? 0.0 : r.cert_latency_ms.quantile(0.95);

  const std::vector<std::string> row = {
      name,
      util::fmt(r.tpm(), 0),
      util::fmt(r.stats.abort_rate_pct(), 2),
      util::fmt(p95, 2),
      util::fmt(100.0 * r.cpu_utilization, 1),
      util::fmt(100.0 * hi, 1),
      util::fmt(spread, 2),
      util::fmt(r.view_changes)};
  util::text_table t;
  t.header({"Ordering", "tpm", "Abort %", "Cert p95 ms", "CPU %",
            "Peak proto %", "Proto spread", "Views", "Safety", "Checks"});
  std::vector<std::string> shown = row;
  shown.push_back(r.safety.ok ? "ok" : "VIOLATION");
  shown.push_back(r.checks.ok ? "ok" : "VIOLATION");
  t.row(shown);
  std::vector<std::vector<std::string>> csv_rows;
  csv_rows.push_back({"ordering", "tpm", "abort_pct", "cert_p95_ms",
                      "cpu_pct", "peak_protocol_cpu_pct",
                      "protocol_cpu_spread", "view_changes", "safety_ok",
                      "checks_ok"});
  std::vector<std::string> csv_row = row;
  csv_row.push_back(r.safety.ok ? "1" : "0");
  csv_row.push_back(r.checks.ok ? "1" : "0");
  csv_rows.push_back(csv_row);
  const std::string json =
      std::string("{\n  \"benchmark\": \"ordering_ablation\",\n"
                  "  \"mix\": \"ycsb_a\",\n  \"points\": [\n") +
      "    {\"ordering\": \"" + name + "\"" +
      ", \"tpm\": " + row[1] + ", \"abort_pct\": " + row[2] +
      ", \"cert_p95_ms\": " + row[3] + ", \"cpu_pct\": " + row[4] +
      ", \"peak_protocol_cpu_pct\": " + row[5] +
      ", \"protocol_cpu_spread\": " + row[6] +
      ", \"view_changes\": " + row[7] +
      ", \"safety_ok\": " + (r.safety.ok ? "true" : "false") +
      ", \"checks_ok\": " + (r.checks.ok ? "true" : "false") + "}\n" +
      "  ]\n}\n";

  // The gates run in every mode; the simulation is deterministic, so
  // these are real signals, not noise.
  bool failed = false;
  if (!r.checks.ok || !r.safety.ok) {
    std::fprintf(stderr, "[ordering] FAIL %s: %s\n", name,
                 r.checks.summary().c_str());
    failed = true;
  }
  if (spread <= 1.0) {
    std::fprintf(stderr,
                 "[ordering] FAIL: protocol-CPU spread %.3f — the sequencer "
                 "site does not carry the ordering work\n",
                 spread);
    failed = true;
  }

  bench::emit(t, flags.get_string("csv"), csv_rows);
  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::fprintf(stderr, "[json] wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "[json] cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return failed ? 1 : 0;
}
