// Host-side system model (Table I, "Evaluation System").
//
// The host is a 6-core out-of-order x86 at 3.6 GHz with DDR4-2400 main
// memory; the PIM module sits on the memory bus next to a regular DRAM rank.
// Query execution uses 4 worker threads, each owning a contiguous quarter of
// the relation's pages (Section V-A). We model the host at the level that
// drives the paper's results: cache-line transfer costs (streaming vs.
// dependent random), PIM request issue cost (uncacheable store + fence), a
// fixed per-phase synchronization overhead (threads join between query
// phases), and per-record CPU costs for host-side aggregation.
//
// Reading PIM data always moves 64 B lines; one line carries one 16-bit
// chunk from each of the 32 crossbars of a page row. Reading a bit column
// (a filter result) therefore costs one line per page row — the "filter
// latency is dominated by the filter result reads" effect of Section IV.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace bbpim::host {

struct HostConfig {
  /// Worker threads executing a query (the paper uses 4 of the 6 cores).
  std::uint32_t threads = 4;

  /// Per-thread cost of one sequential line transfer from the PIM module,
  /// e.g. sweeping a page's filter-result rows. PIM-resident pages are read
  /// around the cache hierarchy to preserve the scope-consistency model of
  /// [18], so streaming gains little over the raw memory latency.
  TimeNs line_stream_ns = 160.0;

  /// Per-thread cost of one dependent random line read (host-gb record
  /// fetches; dominated by full memory latency, little overlap).
  TimeNs line_random_ns = 200.0;

  /// Cost for the host to issue one PIM macro request: an uncacheable
  /// store carrying the request descriptor plus the ordering fence.
  TimeNs issue_ns = 800.0;

  /// Fixed cost of one PIM phase (thread barrier + kernel interaction for
  /// the scope-consistency fence of [18]).
  TimeNs phase_overhead_ns = 50000.0;

  /// Outstanding-request window per thread; 0 = unlimited (page controllers
  /// are independent, so issuance is the only serialization). Non-zero
  /// values exist for the power-throttling ablation bench.
  std::uint32_t request_window = 0;

  /// CPU cost to classify + hash-aggregate one record during host-gb.
  TimeNs cpu_ns_per_record = 14.0;

  /// CPU cost per sampled record during GROUP-BY estimation (Section IV).
  TimeNs cpu_ns_per_sample = 8.0;

  /// Fixed cost of evaluating the latency model / choosing k for one query.
  TimeNs plan_overhead_ns = 5000.0;

  /// Worker threads for the *simulator's* page-parallel execution (how fast
  /// the simulation itself runs on this machine — NOT the modeled host
  /// threads above, and deliberately excluded from the model-cache config
  /// fingerprint). 0 = all hardware threads, 1 = serial. Results, modeled
  /// times, energy, wear, and traces are bit-identical at any value.
  std::uint32_t sim_threads = 0;

  /// Zone-map pruning: skip pages the sketches prove cannot match, replace
  /// provably all-true per-part filter programs by a synthesized validity
  /// copy, skip refuted (subgroup, page) pairs in pim-gb, and early-exit
  /// aggregation when every page is statically skipped. Result rows are
  /// byte-identical with pruning on or off, and pages that do execute run
  /// the exact same programs at the exact same modeled cost. Like
  /// sim_threads, deliberately excluded from the model-cache config
  /// fingerprint: pruning only removes work, so models fitted without it
  /// stay valid with it.
  bool prune = false;
};

}  // namespace bbpim::host
