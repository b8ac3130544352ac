// Data placement for partial replication (§6 / [24] — the paper's own
// mitigation of the read-one/write-all disk ceiling it measures in
// Fig 6(b), protocol shape after *Fault-Tolerant Partial Replication in
// Large-Scale Database Systems*).
//
// A place::placement maps every granule (db::granule_of — the unit the
// certification prototype already escalates locks to) to an explicit
// replica set of `degree` sites. Write sets are split per the placement:
// a site stores, applies and makes durable only the slice of each
// committed update that falls into granules it replicates. Certification
// stays GLOBAL — the total order is still delivered everywhere, every
// site runs the same deterministic certification over the full write
// stream and logs the same committed sequence (the §5.3 safety property
// and the check/ cert-oracle monitor both require it) — partiality is a
// property of storage, application and durability, not of the decision.
//
// Everything here is a pure function of (strategy, sites, degree) and the
// granule id: deterministic across sites and runs, snapshot-able in a few
// bytes, and cheap enough to evaluate per delivered write-set element.
// The default-constructed placement is FULL replication over any cluster
// size and is gated out of every hot path (`is_full()`), so default
// configurations stay bit-identical to the pre-placement code.
#ifndef DBSM_PLACE_PLACEMENT_HPP
#define DBSM_PLACE_PLACEMENT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "db/item.hpp"
#include "util/byte_buffer.hpp"
#include "util/types.hpp"

namespace dbsm::place {

enum class strategy : std::uint8_t {
  full = 0,         // every site replicates every granule
  round_robin = 1,  // replica set = k consecutive sites from a per-granule base
  hashed = 2,       // replica set = k consecutive sites from a hashed base
};

const char* strategy_name(strategy s);

/// Experiment-level placement request, resolved against the cluster size
/// at build time (experiment_config carries a spec because the total site
/// count may not be known yet — e.g. dedicated_sequencer adds one).
/// degree == 0 or degree >= sites means full replication.
struct spec {
  strategy kind = strategy::full;
  unsigned degree = 0;
};

class placement {
 public:
  /// Full replication over any cluster size (the compatibility default).
  placement() = default;

  static placement full(unsigned sites);
  static placement round_robin(unsigned sites, unsigned degree);
  static placement hashed(unsigned sites, unsigned degree);
  /// Resolves a spec against the actual cluster size (degree clamped).
  static placement make(const spec& s, unsigned sites);

  /// True when every site replicates everything — the gate that keeps the
  /// default path code-identical to pre-placement behavior.
  bool is_full() const {
    return sites_ == 0 || degree_ == 0 || degree_ >= sites_;
  }
  strategy kind() const { return kind_; }
  unsigned sites() const { return sites_; }
  /// Effective replicas per granule (== sites() when full).
  unsigned degree() const { return is_full() ? sites_ : degree_; }

  /// First replica of the item's granule (the shard-alignment anchor for
  /// placement-aligned certification sharding).
  unsigned primary(db::item_id id) const;

  /// Whether `site` replicates the granule of `id` (always true when
  /// full — including the unbound default, which knows no site count).
  bool stores(unsigned site, db::item_id id) const;

  /// The item's full replica set, ascending site order.
  void replica_set(db::item_id id, std::vector<unsigned>& out) const;

  /// Splits a write set: `out` receives the elements whose granule `site`
  /// replicates, in input order (granule markers follow their own granule,
  /// tuples follow theirs — a sorted input yields a sorted slice).
  void slice(const std::vector<db::item_id>& write_set, unsigned site,
             std::vector<db::item_id>& out) const;

  /// True when `site` replicates at least one element of the write set
  /// (a genuine multicast would ship the payload only to such sites).
  bool interested(unsigned site,
                  const std::vector<db::item_id>& write_set) const;

  /// How many sites a genuine multicast of this write set would reach.
  unsigned interested_sites(const std::vector<db::item_id>& write_set) const;

  /// A few bytes: (version, kind, sites, degree). Donor and joiner check
  /// agreement at state-transfer time (a placement mismatch would silently
  /// mis-route every slice).
  void snapshot(util::buffer_writer& w) const;
  static placement restore(util::buffer_reader& r);

  bool operator==(const placement& o) const {
    return kind_ == o.kind_ && sites_ == o.sites_ && degree_ == o.degree_;
  }
  bool operator!=(const placement& o) const { return !(*this == o); }

  /// e.g. "hash k=2 of 6" or "full".
  std::string describe() const;

 private:
  placement(strategy k, unsigned sites, unsigned degree)
      : kind_(k), sites_(sites), degree_(degree) {}

  /// First replica of a granule id (callers pass db::granule_of output).
  unsigned base_of(db::item_id granule) const;

  strategy kind_ = strategy::full;
  unsigned sites_ = 0;  // 0: unbound full placement
  unsigned degree_ = 0;
};

}  // namespace dbsm::place

#endif  // DBSM_PLACE_PLACEMENT_HPP
