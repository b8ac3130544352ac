// Determinism self-test of the benchmark. For leg 0 of every workload:
// two core::run_experiment calls at one seed must give identical
// modeled metrics and an identical FNV-1a hash over the commit logs, and
// the traced harness must reproduce both. A different seed must change
// the commit-log hash (the seed reaches the inputs). Exit code 0 on
// success, 1 with a report on stderr otherwise.
//
//   ctest --test-dir .bench_build/perfbench --output-on-failure
#include <cstdio>
#include <memory>

#include "measure.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace dbsm;
using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "[%s] %s\n", ok ? " ok " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

modeled traced_run(const workload_spec& w) {
  probes p;
  auto h = std::make_unique<harness>(w.cfg, &p);
  h->run();
  const core::experiment_result r = h->gather();
  h.reset();
  expect(gate(w, r).empty(), w.name + ": traced run passes the gate");
  return summarize(r);
}

}  // namespace

int main() {
  constexpr std::uint64_t seed = 5;
  for (const std::string& name : workload_names()) {
    const workload_spec w = make_workload(name, seed);
    const core::experiment_result r1 = core::run_experiment(w.cfg);
    const core::experiment_result r2 = core::run_experiment(w.cfg);
    for (const std::string& e : gate(w, r1))
      expect(false, name + ": gate: " + e);
    const modeled m1 = summarize(r1);
    const modeled m2 = summarize(r2);
    std::fprintf(stderr, "%s seed %llu: %s\n", name.c_str(),
                 static_cast<unsigned long long>(seed),
                 m1.describe().c_str());
    expect(m1 == m2, name + ": two runs at one seed agree");
    expect(log_hash(r1.commit_logs) == log_hash(r2.commit_logs),
           name + ": commit-log hashes agree");
    expect(traced_run(w) == m1,
           name + ": traced run reproduces run_experiment");

    const workload_spec other = make_workload(name, seed + 1);
    expect(summarize(core::run_experiment(other.cfg)).log_hash != m1.log_hash,
           name + ": another seed gives another commit log");
  }
  std::fprintf(stderr, "perfbench self-test: %s\n",
               failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
