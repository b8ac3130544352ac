// Shared scaffolding for the per-figure/table benchmark binaries.
//
// Every binary reproduces one table or figure of the paper's evaluation
// (§4–5) with the calibrated testbed model (PIII 1 GHz × configurable
// CPUs, 100 Mbps switched Ethernet, 9.486 MB/s RAID write ceiling) and
// prints the same rows/series the paper reports. CSV and JSON output are
// optional and rendered from the same table.
#ifndef DBSM_BENCH_COMMON_HPP
#define DBSM_BENCH_COMMON_HPP

#include <string>

#include "core/experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace dbsm::bench {

/// The paper's testbed configuration (§4.1) as an experiment config.
core::experiment_config paper_config();

/// Declares the flags every bench shares (--txns, --seed, --quick, --csv).
void declare_common_flags(util::flag_set& flags);

/// Applies common flags onto a config. --quick scales the run down for
/// smoke use (fewer transactions); --txns overrides the response target.
void apply_common_flags(const util::flag_set& flags,
                        core::experiment_config& cfg);

/// The five system configurations of Fig 5/6 in paper order.
struct system_config {
  const char* label;
  unsigned sites;
  unsigned cpus;
};
const std::vector<system_config>& fig5_systems();

/// Client counts swept in Fig 5/6.
std::vector<unsigned> fig5_client_points(bool quick);

/// Runs one configured point and prints a one-line progress note.
core::experiment_result run_point(core::experiment_config cfg,
                                  const std::string& label);

/// Writes `text` to `path` (nothing when the path is empty). Returns false,
/// after a message on stderr, when the file cannot be written.
bool write_file(const std::string& path, const std::string& text);

/// Prints `table`, and writes it as CSV to `csv_path` and as a JSON
/// baseline to `json_path` when those are set. False when a write fails.
bool emit(const util::text_table& table, const std::string& csv_path,
          const std::string& json_path = "");

}  // namespace dbsm::bench

#endif  // DBSM_BENCH_COMMON_HPP
