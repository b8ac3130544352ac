// Benchmark runner: runs one workload at one seed for a given host-time
// budget and prints one JSON object with its metrics.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0: every leg of the workload through core::run_experiment, then
//   legs again until the budget is spent, each call preceded by a timed
//   set-up. Reports the end-to-end metrics: host cost (run_s, setup_s,
//   peak_rss_mb) and modeled results (tpm, latency_p50_ms,
//   latency_p99_ms, abort_pct).
// --trace 1: the same untraced runs, then one traced run through the
//   harness (traced.hpp) and replays of its captured payloads through
//   cert, db and place. Reports the per-layer metrics.
//
// Every run must pass the workload's correctness gate, every repetition
// must reproduce the first one's modeled results and commit-log hash,
// and the traced run must reproduce them too; any failure is listed under
// "errors" and makes "correct" false (exit code 1).
#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cert/sharded_certifier.hpp"
#include "db/lock_table.hpp"
#include "measure.hpp"
#include "place/granule_store.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace dbsm;
using namespace perfbench;

namespace {

constexpr int replay_repetitions = 5;

struct metric {
  double value;
  const char* unit;
};

struct outcome {
  std::vector<std::string> errors;
  std::map<std::string, metric> metrics;
  /// Host seconds of every run_experiment call, per leg.
  std::vector<std::vector<double>> leg_runs_s;
  std::vector<double> setups_s;
  std::vector<modeled> legs;
  /// Client latency samples of every leg's first call.
  util::sample_set latencies_ms;
  /// run_experiment calls (and the traced run), and those of them that
  /// failed the gate or did not reproduce their leg's first result.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Fastest call of leg `i`.
  double leg_s(std::size_t i) const {
    return *std::min_element(leg_runs_s.at(i).begin(),
                             leg_runs_s.at(i).end());
  }
  /// Fastest call of the run. Other processes on a shared host only add
  /// time to a call, so the minimum is the steadiest estimate of the
  /// workbench's own cost; every call's time is in the record.
  double run_s() const {
    double best = leg_s(0);
    for (std::size_t i = 1; i < leg_runs_s.size(); ++i)
      best = std::min(best, leg_s(i));
    return best;
  }
};

/// Untraced runs: every leg once through run_experiment, then legs again
/// in order (each must reproduce its first result) until `seconds` of host
/// time are spent. A timed set-up of the same leg precedes every call, so
/// the set-up samples spread over the whole run.
void untraced(const workload_spec& w, double seconds, outcome& out) {
  out.leg_runs_s.resize(w.legs);
  const double start = host_now();
  for (std::uint64_t call = 0;
       call < w.legs || host_now() - start < seconds; ++call) {
    const unsigned leg = static_cast<unsigned>(call % w.legs);
    const core::experiment_config cfg = leg_config(w, leg);
    out.setups_s.push_back(time_setup(cfg));
    const double t0 = host_now();
    const core::experiment_result r = core::run_experiment(cfg);
    out.leg_runs_s[leg].push_back(host_now() - t0);
    ++out.attempted;
    const std::string at = "leg " + std::to_string(leg) + " call " +
                           std::to_string(call) + ": ";
    const std::size_t errors_before = out.errors.size();
    for (const std::string& e : gate(w, r)) out.errors.push_back(at + e);
    if (call < w.legs) {
      out.legs.push_back(summarize(r));
      const util::sample_set latencies = r.stats.pooled_latency_ms();
      for (double v : latencies.sorted()) out.latencies_ms.add(v);
    } else if (const modeled m = summarize(r); !(m == out.legs[leg])) {
      out.errors.push_back(at + "nondeterministic: gave " + m.describe() +
                           ", first call gave " +
                           out.legs[leg].describe());
    }
    if (out.errors.size() != errors_before) ++out.failed;
  }
}

/// Median host nanoseconds per item of `replay`, over repetitions.
template <typename Fn>
double replay_ns(std::size_t items, Fn&& replay) {
  if (items == 0) return 0;
  std::vector<double> per_item;
  for (int k = 0; k < replay_repetitions; ++k) {
    const double t0 = host_now();
    replay();
    per_item.push_back((host_now() - t0) * 1e9 /
                       static_cast<double>(items));
  }
  return median(per_item);
}

/// One traced run of leg 0, its replays, and the per-layer metrics.
void traced(const workload_spec& w, outcome& out) {
  const core::experiment_config cfg = leg_config(w, 0);
  probes p;
  const double t0 = host_now();
  auto h = std::make_unique<harness>(cfg, &p);
  const double t_loop = host_now();
  h->run();
  const double loop_s = host_now() - t_loop;
  const std::uint64_t events = h->cluster().sim().executed();
  const core::experiment_result r = h->gather();
  const double t_down = host_now();
  h.reset();
  const double t_end = host_now();
  const double run_s = t_end - t0;
  const double teardown_s = t_end - t_down;

  ++out.attempted;
  const std::size_t errors_before = out.errors.size();
  for (const std::string& e : gate(w, r))
    out.errors.push_back("traced run: " + e);
  const modeled m = summarize(r);
  if (!(m == out.legs.at(0))) {
    out.errors.push_back(
        "traced harness diverged from core::run_experiment at seed " +
        std::to_string(cfg.seed) + ": traced " + m.describe() +
        ", run_experiment " + out.legs.at(0).describe() +
        " (perfbench/src/traced.cpp no longer mirrors "
        "core/experiment.cpp)");
  }
  if (out.errors.size() != errors_before) ++out.failed;

  // --- replays of the payloads site 0 certified, in delivery order ---
  const std::vector<cert::txn_payload>& txns = p.decided;
  std::vector<const cert::txn_payload*> committed;
  for (std::size_t i = 0; i < txns.size(); ++i)
    if (p.verdicts[i]) committed.push_back(&txns[i]);

  const core::cluster::config ccfg = cluster_config(cfg);
  bool cert_diverged = false;
  const double certify_ns = replay_ns(txns.size(), [&] {
    cert::sharded_certifier c(ccfg.replica_cfg.cert);
    for (std::size_t i = 0; i < txns.size(); ++i) {
      const cert::txn_payload& t = txns[i];
      (void)c.certify_read_only(t.begin_pos, t.read_set);
      if (c.certify_update(t.begin_pos, t.read_set, t.write_set) !=
          p.verdicts[i])
        cert_diverged = true;
    }
  });
  if (cert_diverged)
    out.errors.push_back("cert replay decisions differ from the run's");

  bool codec_diverged = false;
  const double codec_ns = replay_ns(txns.size(), [&] {
    for (const cert::txn_payload& t : txns) {
      const cert::txn_payload back = cert::decode_txn(cert::encode_txn(t));
      if (back.write_set != t.write_set || back.read_set != t.read_set)
        codec_diverged = true;
    }
  });
  if (codec_diverged)
    out.errors.push_back("codec round trip changed a payload");

  const double lock_ns = replay_ns(committed.size(), [&] {
    db::lock_table lt;
    std::uint64_t id = 0;
    for (const cert::txn_payload* t : committed) {
      ++id;
      lt.acquire(id, std::span<const db::item_id>(t->write_set), true, {},
                 {});
      lt.release_commit(id);
    }
  });

  const double apply_ns = replay_ns(committed.size(), [&] {
    place::granule_store store(ccfg.replica_cfg.placement, 0);
    for (const cert::txn_payload* t : committed)
      store.apply(t->write_set, t->update_bytes);
  });

  // --- per-layer metrics ---
  std::uint64_t runs = 0, run_payloads = 0, join_bytes = 0, fast = 0,
                fallback = 0, revocations = 0;
  double protocol_cpu_max = 0;
  for (const core::site_report& s : r.sites) {
    runs += s.delivery_runs;
    run_payloads += s.run_payloads;
    join_bytes += s.join_snapshot_bytes + s.join_chunk_bytes;
    fast += s.fast_path_reads;
    fallback += s.fallback_reads;
    revocations += s.lease_revocations;
    protocol_cpu_max = std::max(protocol_cpu_max, s.protocol_cpu);
  }
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  auto& mx = out.metrics;
  mx["sim.events"] = {count(events), "count"};
  mx["sim.ns_per_event"] = {ratio(loop_s * 1e9, count(events)), "ns"};
  mx["sim.sim_s"] = {to_seconds(r.duration), "s"};
  mx["csrt.cpu_util"] = {r.cpu_utilization, "ratio"};
  mx["csrt.protocol_cpu_max"] = {protocol_cpu_max, "ratio"};
  mx["net.wire_kbps"] = {r.network_kbps, "KB/s"};
  mx["db.disk_util"] = {r.disk_utilization, "ratio"};
  mx["db.lock_ns"] = {lock_ns, "ns"};
  mx["gcs.order_wait_p50_ms"] = {r.cert_latency_ms.quantile(0.50), "ms"};
  mx["gcs.order_wait_p95_ms"] = {r.cert_latency_ms.quantile(0.95), "ms"};
  mx["gcs.payloads_per_run"] = {ratio(count(run_payloads), count(runs)),
                                "count"};
  mx["gcs.blocked_ms"] = {r.blocked_ms, "ms"};
  mx["gcs.naks"] = {count(r.naks_sent), "count"};
  mx["gcs.retransmissions"] = {count(r.retransmissions), "count"};
  mx["gcs.view_changes"] = {count(r.view_changes), "count"};
  mx["gcs.rejoin_sim_s"] = {p.rejoin_sim_s, "s"};
  mx["gcs.join_bytes"] = {count(join_bytes), "bytes"};
  mx["cert.decisions"] = {count(txns.size()), "count"};
  mx["cert.commit_ratio"] = {ratio(count(committed.size()),
                                   count(txns.size())),
                             "ratio"};
  mx["cert.certify_ns"] = {certify_ns, "ns"};
  mx["cert.codec_ns"] = {codec_ns, "ns"};
  mx["place.applies"] = {count(p.applies), "count"};
  mx["place.apply_ns"] = {apply_ns, "ns"};
  mx["read.fast_share"] = {ratio(count(fast), count(fast + fallback)),
                           "ratio"};
  mx["read.lease_revocations"] = {count(revocations), "count"};
  mx["check.host_s"] = {p.check_s, "s"};
  mx["check.ns_per_decision"] = {ratio(p.check_s * 1e9,
                                       count(p.check_decisions)),
                                 "ns"};
  mx["workload.next_ns"] = {ratio(p.next_s * 1e9, count(p.next_calls)),
                            "ns"};
  mx["core.teardown_s"] = {teardown_s, "s"};
  const double base = out.leg_s(0);
  mx["trace.overhead_pct"] = {100.0 * (run_s - base) / base, "%"};
}

void end_to_end(outcome& out) {
  const modeled m = pool(out.legs, out.latencies_ms);
  auto& mx = out.metrics;
  mx["run_s"] = {out.run_s(), "s"};
  mx["setup_s"] = {*std::min_element(out.setups_s.begin(),
                                     out.setups_s.end()),
                   "s"};
  mx["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  mx["tpm"] = {m.tpm, "1/min"};
  mx["latency_p50_ms"] = {m.latency_p50_ms, "ms"};
  mx["latency_p99_ms"] = {m.latency_p99_ms, "ms"};
  mx["abort_pct"] = {m.abort_pct, "%"};
}

std::string json_string(const std::string& s) {
  std::string o(1, '"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      o += ' ';
    } else {
      o += ch;
    }
  }
  o += '"';
  return o;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Appends a JSON array of `n` items; `item(i)` appends the i-th.
template <typename Fn>
void append_array(std::string& o, std::size_t n, Fn&& item) {
  o += '[';
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) o += ',';
    item(i);
  }
  o += ']';
}

void append_numbers(std::string& o, const std::vector<double>& v) {
  append_array(o, v.size(), [&](std::size_t i) { o += json_number(v[i]); });
}

void print(const workload_spec& w, bool trace, const outcome& out) {
  std::string o = "{\"workload\":";
  o += json_string(w.name);
  o += ",\"seed\":" + std::to_string(w.cfg.seed);
  o += ",\"trace\":";
  o += trace ? "1" : "0";
  o += ",\"correct\":";
  o += out.errors.empty() ? "true" : "false";
  o += ",\"attempted\":" + std::to_string(out.attempted);
  o += ",\"failed\":" + std::to_string(out.failed);
  o += ",\"errors\":";
  append_array(o, out.errors.size(),
               [&](std::size_t i) { o += json_string(out.errors[i]); });
  o += ",\"metrics\":{";
  for (auto it = out.metrics.begin(); it != out.metrics.end(); ++it) {
    if (it != out.metrics.begin()) o += ',';
    o += json_string(it->first);
    o += ":{\"value\":";
    o += json_number(it->second.value);
    o += ",\"unit\":";
    o += json_string(it->second.unit);
    o += '}';
  }
  o += "},\"legs\":";
  append_array(o, out.legs.size(), [&](std::size_t i) {
    o += "{\"runs_s\":";
    append_numbers(o, out.leg_runs_s[i]);
    o += ",\"modeled\":";
    o += json_string(out.legs[i].describe());
    o += '}';
  });
  o += ",\"pooled\":";
  o += json_string(pool(out.legs, out.latencies_ms).describe());
  o += ",\"setups_s\":";
  append_numbers(o, out.setups_s);
  o += ",\"build_type\":";
  o += json_string(PERFBENCH_BUILD_TYPE);
  o += ",\"compiler\":";
  o += json_string(PERFBENCH_COMPILER);
  o += '}';
  std::printf("%s\n", o.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace"))
    return usage();

  workload_spec w;
  double seconds = 0;
  bool trace = false;
  try {
    w = make_workload(args["workload"], std::stoull(args["seed"]));
    seconds = std::stod(args["seconds"]);
    trace = args["trace"] == "1";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return usage();
  }

  outcome out;
  untraced(w, seconds, out);
  if (trace) {
    traced(w, out);
  } else {
    end_to_end(out);
  }
  print(w, trace, out);
  return out.errors.empty() ? 0 : 1;
}
