// Planned maintenance: drain a replica by migrating its in-flight KV state
// to peers instead of throwing the work away.
//
// The fault path takes a replica out by evacuating it: all progress is
// lost and recomputed elsewhere. For *planned* events (kernel
// upgrades, recabling, host reboots) the source is still healthy, so its
// KV blocks can be shipped to a peer over the datacenter fabric and the
// sequence resumes where it left off. The transfer is priced by
// hw::Interconnect over the configured link and serialized per source
// replica (one NIC), so the recompute-vs-migrate tradeoff is a real
// crossover: tiny contexts re-prefill faster than they ship, deep
// contexts are far cheaper to move.
//
// The drain fabric rides the same network the control plane does: with
// partition.sever_drain_fabric set, a cut that isolates the source replica
// aborts its in-flight migrations mid-stripe (and blocks new ones) — the
// drain falls back to evacuate-and-recompute until the cut heals (see
// control_plane.h, PartitionConfig).
#pragma once

#include "common/error.h"
#include "fleet/faults.h"
#include "hw/interconnect.h"

namespace mib::fleet {

/// One planned outage: replica unavailable for [start_s, end_s). Work is
/// drained at start_s; the replica returns cold at end_s.
using MaintenanceWindow = FaultWindow;

struct MigrationConfig {
  /// true: ship KV to a peer and resume; false: evacuate-and-recompute
  /// (progress lost, re-dispatched immediately — the fault path's
  /// treatment, kept as the crossover study's baseline).
  bool migrate_kv = true;
  /// Fabric the KV blocks cross between replicas (distinct nodes).
  hw::LinkSpec link = hw::ib_ndr400();
  /// Fixed per-sequence handoff cost (control-plane RPC, block table).
  double per_sequence_overhead_s = 0.002;
  /// Parallel fabric links the drain can stripe KV transfers across (a
  /// multi-NIC host). 1 = a single serialized NIC.
  int stripe_links = 1;
  /// true: the source keeps decoding a sequence while its KV ships
  /// layer-wise; only the delta produced during the copy is re-sent at the
  /// cutover. false: the sequence freezes for the whole transfer.
  bool overlap_decode = false;

  void validate() const {
    MIB_ENSURE(link.bandwidth > 0.0, "migration link bandwidth must be > 0");
    MIB_ENSURE(link.latency >= 0.0, "negative migration link latency");
    MIB_ENSURE(per_sequence_overhead_s >= 0.0,
               "negative migration overhead");
    MIB_ENSURE(stripe_links >= 1, "drain needs at least one stripe link");
  }
};

}  // namespace mib::fleet
