// FleetSimulator — N identical engine replicas behind a front-end router.
//
// The single-replica layer answers "how fast is one node"; this layer
// answers the capacity question one level up: how does a fleet route,
// admit, scale and survive failures while holding latency SLOs. The
// simulation is event-driven: replicas advance one continuous-batching
// step at a time (priced by the shared LayerCostModel), and between steps
// the router dispatches arrivals, the admission controller sheds load, the
// fault schedule kills/revives replicas (evacuated work is retried with
// backoff), and the autoscaler reacts to queue depth. Everything is
// deterministic for a fixed seed.
//
// The next pass happens at the earliest of three clocks (fleet/calendar.h).
// The event calendar holds schedule edges, compiled into it when a run
// starts, and the timers that are never moved or cancelled once set: view
// syncs, hedge triggers, client patience and autoscaler ticks. The waiting
// queues hold parked work (overlap-drain handoffs, KV migrations, retries,
// router fail-overs) and the next arrival, in (time, request id) order.
// The per-replica timers are each replica's own state: its step end, its
// next heartbeat and its breaker deadline, which a heartbeat pushes back
// and a suspension disarms in place. One scan of the pool per pass reads
// the earliest of each. Everything but the step ends is a fleet event.
// Each replica's fault state and brownout x warm-up scale are held state
// too: a pass applies its due fault and scale edges once, before any
// handler runs (a scale edge reprices the replica, and a fault edge stays
// due only if it flips the replica), and the handlers read the held
// state. The control plane's cut, fence and router states are held the
// same way: a pass with a plane edge due advances the plane to it, after
// charging the view-disagreement slice that ends there, which still reads
// the cut held through it.
// Within a pass the handlers run in EventKind order up to step ends, then
// the waiting queues are served (handoffs, migrations, arrivals, retries,
// fail-overs), then hedges, client patience and the autoscaler; a handler
// runs only when its kind or its queue's head is due. The timed handlers
// visit only the targets their due entries name, in target order: client
// patience that expires for several requests at one instant is served by
// request id. Router fault, partition cut, heal and quorum-fence edges are
// entries too, so the heal handler runs only on a pass where one is due.
// Nothing the loop waits on goes stale, so every pass has something due:
// a pass that finds only parked work or an arrival due and leaves some of
// it untaken would repeat forever, and fails the run as a livelock.
// FleetReport::passes counts the passes.
//
// A step end reaches past its own replica in three ways only: it cancels
// another copy (hedging or partitions), it orphans a reply or arms client
// patience (partitions), or a view refreshed and a disagreement slice
// summed on every pass see it (partitions or stale views). A run with none
// of the three is independent: before each pass, each replica in turn runs
// its own steps up to the next fleet event, so the loop makes one pass per
// fleet event. A step end tied with that event waits for the event's pass,
// so an arrival at a step end's very instant joins the step that begins
// there. Every other run gives each step end a pass of its own; on a pass
// with only step ends due the other handlers find nothing due and are
// skipped, so it runs the step-end handler plus the two that act on every
// pass, view refresh and heal settling. Only hedged, partitioned and
// stale-view runs therefore depend on the pass sequence: partitioned
// runs refresh router views on every pass and the view-disagreement clock
// sums per-pass slices, so an extra or a missing pass (even one that only
// delivers a heartbeat, or one that advances time by zero) changes a
// partitioned report. perfbench's fleet_chaos canonical digest pins both,
// so a modelled view-refresh cadence waits for a change to that benchmark.
//
// Partial-failure resilience: replicas can also be *slow* instead
// of dead (DegradationWindow, priced on derated hardware), the front-end
// detects failures through heartbeats and circuit breakers instead of
// reading the fault schedule (HealthMonitor — detection lag, false
// positives and recovery probes become measurable), straggling requests
// are hedged to a second replica, and planned maintenance drains a
// replica by migrating its in-flight KV to peers over the datacenter
// fabric instead of recomputing from scratch.
//
// Correlated failures and control-plane redundancy: replicas
// attach to a failure-domain tree (node -> rack -> switch -> zone) and
// fault/degradation events injected at any domain take out everything
// below it at once, so the detector sees a simultaneous suspicion burst
// instead of independent opens. The front end itself is N replicated
// routers with eventually-consistent breaker views (requests strand at a
// dead router until client fail-over; stale views cause measurable
// mis-dispatches), recovered replicas ramp back through a short warm-up
// window instead of returning at full speed, drains can stripe KV across
// parallel links and overlap the copy with continued decode on the
// source, and hedge copies respect admission capacity — shed first under
// overload.
//
// Partition tolerance: a network partition
// (control.partition.windows) splits routers and a slice of replicas into
// majority/minority sides. The minority keeps serving on its frozen
// breaker view — genuine split-brain, not benign staleness: minority-homed
// requests the cut-off side cannot answer in time are re-admitted by the
// majority (double dispatch), duplicate decode burns fleet capacity that
// goodput never credits, each side's autoscaler signal diverges, and at
// heal time a configurable policy (fence-the-minority or
// first-commit-wins) drains the duplicates and frees their KV.
#pragma once

#include <vector>

#include <memory>

#include "common/stats.h"
#include "engine/engine.h"
#include "fleet/admission.h"
#include "fleet/autoscaler.h"
#include "fleet/control_plane.h"
#include "fleet/degradation.h"
#include "fleet/faults.h"
#include "fleet/health.h"
#include "fleet/hedge.h"
#include "fleet/migration.h"
#include "fleet/replica.h"
#include "fleet/router.h"
#include "fleet/slo.h"
#include "fleet/topology.h"
#include "workload/arrivals.h"
#include "workload/generator.h"

namespace mib::fleet {

/// One request as the fleet front-end sees it: the engine request (with its
/// arrival stamp) plus conversation identity for affinity routing and
/// prefix caching.
struct FleetRequest {
  engine::Request request;
  std::uint64_t prefix_hash = 0;  ///< conversation identity; 0 = none
  int prefix_tokens = 0;          ///< reusable prefix length
};

/// Wrap a plain request trace (no conversation structure).
std::vector<FleetRequest> as_fleet_trace(
    const std::vector<engine::Request>& trace);

/// Wrap a conversation workload, interleaved turn-major (turn 0 of every
/// conversation, then turn 1, ...) so consecutive turns of one conversation
/// are separated by other traffic and the earlier turn can finish — and
/// publish its prefix — before the next one arrives.
std::vector<FleetRequest> as_fleet_trace(
    const std::vector<workload::Turn>& turns);

/// Stamp arrival times onto a fleet trace in order.
void stamp_arrivals(const workload::ArrivalConfig& cfg,
                    std::vector<FleetRequest>& trace);

struct FleetConfig {
  engine::EngineConfig engine;  ///< every replica runs this engine
  ReplicaConfig replica;
  /// Replicas in service at t=0 (the autoscaler may grow to its ceiling).
  int n_replicas = 2;
  RoutePolicy policy = RoutePolicy::kLeastOutstanding;
  AdmissionConfig admission;
  RetryPolicy retry;
  std::vector<FaultWindow> faults;
  /// Brownouts: replicas running slow (throttle, ECC, contended fabric).
  std::vector<DegradationWindow> degradations;
  /// Failure-domain tree the replicas attach to; empty = every replica is
  /// its own isolated node (failures are independent).
  TopologyConfig topology;
  /// Correlated outages: every replica under the named domain goes down.
  std::vector<DomainFault> domain_faults;
  /// Correlated brownouts: every replica under the domain runs derated.
  std::vector<DomainDegradation> domain_degradations;
  /// Post-recovery warm-up ramp after fault / maintenance recovery edges.
  WarmupConfig warmup;
  /// Replicated front-end routers + view-sync staleness + router faults.
  ControlPlaneConfig control;
  /// Planned outages, drained via KV migration or evacuate-and-recompute.
  std::vector<MaintenanceWindow> maintenance;
  MigrationConfig migration;
  /// Heartbeat failure detection + circuit breakers. When disabled the
  /// router is an oracle (it sees the fault schedule).
  HealthConfig health;
  HedgeConfig hedge;
  AutoscalerConfig autoscaler;
  SloConfig slo;
  std::uint64_t seed = 1;

  void validate() const;
};

/// Per-replica share of one run.
struct ReplicaReport {
  int replica = 0;
  long long completed = 0;
  long long steps = 0;
  int preemptions = 0;
  double busy_s = 0.0;
  double utilization = 0.0;  ///< busy_s / makespan
  long long prefix_lookups = 0;
  long long prefix_hits = 0;
  Samples ttft_s, itl_s, e2e_s;
};

struct FleetReport {
  double makespan_s = 0.0;
  double throughput_tok_s = 0.0;  ///< (in+out) tokens of completed / makespan

  long long submitted = 0;
  long long completed = 0;
  long long rejected = 0;  ///< shed at admission
  long long expired = 0;   ///< deadline passed while queued
  long long lost = 0;      ///< retry budget exhausted
  long long retries = 0;   ///< re-routes after replica failures

  Samples ttft_s, itl_s, e2e_s;  ///< fleet-wide, completed requests
  SloSummary slo;                ///< goodput under the configured SLOs

  long long prefix_lookups = 0;
  long long prefix_hits = 0;
  double prefix_hit_rate() const {
    return prefix_lookups > 0
               ? static_cast<double>(prefix_hits) /
                     static_cast<double>(prefix_lookups)
               : 0.0;
  }

  // --- resilience ---
  long long hedges_issued = 0;     ///< second copies dispatched
  long long hedges_won = 0;        ///< requests whose hedge copy won
  long long hedges_cancelled = 0;  ///< loser copies removed, KV freed
  long long circuit_opens = 0;
  long long false_circuit_opens = 0;  ///< opened while the replica was up
  /// Failure until the front-end learned of it (circuit open or observed
  /// restart) — the cost of not having an oracle.
  Samples detection_lag_s;
  long long hedges_shed = 0;       ///< hedge copies refused or dropped
                                   ///< under admission pressure
  long long migrations = 0;            ///< sequences drain-migrated with KV
  long long migrated_kv_tokens = 0;
  Samples migration_s;                 ///< per-sequence KV transfer time
  long long drain_evacuations = 0;     ///< drained by recompute instead
  /// Decode tokens produced on the source while its KV copy was already in
  /// flight (the overlap-drain win; 0 with overlap_decode off).
  long long overlap_decode_tokens = 0;
  std::vector<CircuitEvent> circuit_events;

  // --- correlated failures & warm-up ---
  int warmup_recoveries = 0;  ///< recovery edges that began a warm-up ramp
  /// Suspicion bursts: >= 2 circuit opens within one heartbeat interval of
  /// each other — the detector-side signature of a domain-level event.
  int suspicion_bursts = 0;
  int largest_suspicion_burst = 0;  ///< replicas in the biggest burst

  // --- control plane ---
  /// Requests that found their home router dead and paid the client-side
  /// fail-over lag before re-entering at a survivor.
  long long router_stranded = 0;
  /// Dispatches made on a stale breaker view (the live state said the
  /// replica was not routable).
  long long stale_dispatches = 0;
  /// Total time any two routers' breaker views disagreed.
  double view_disagreement_s = 0.0;

  // --- split-brain partitions ---
  /// Requests admitted by both partition sides (the minority could not
  /// answer within the client's retry patience, so the majority admitted
  /// a second copy). Goodput still counts each request at most once.
  long long double_dispatches = 0;
  /// Replica time burned by non-winning copies of double-dispatched
  /// requests — capacity charged to the fleet that served nobody.
  double duplicate_decode_s = 0.0;
  /// Duplicate copies cancelled on the minority side at heal time under
  /// the fence-the-minority policy (their KV freed).
  long long fenced_requests = 0;
  /// Autoscaler ticks during a partition where the two sides, each seeing
  /// only its own queues, would have decided differently.
  long long autoscaler_conflicts = 0;
  /// Per healed window: heal edge until the last split-brain duplicate
  /// resolved (fence drains immediately; first-commit-wins races on).
  Samples partition_heal_lag_s;

  // --- gray failures ---
  /// Copies that decoded to completion behind an asymmetric cut whose
  /// completion could not cross back to the dispatching side.
  long long orphaned_completions = 0;
  /// Replica time burned by orphaned decodes — work done, result lost.
  double lost_completion_s = 0.0;
  /// Client re-sends issued after every live copy of a request had been
  /// lost (orphaned or crashed with no retry pending).
  long long client_resends = 0;
  /// Dispatches refused by a self-fenced minority router (quorum lost)
  /// and re-homed to the majority survivor.
  long long quorum_fenced = 0;
  /// Cut -> heal edges observed; a flapping window counts every episode.
  long long partition_flaps = 0;
  /// KV drains aborted (or never attempted) because the partition severed
  /// the replica-to-replica fabric; each falls back to recompute.
  long long migration_aborts = 0;
  /// Hedges withheld by the utilization gate (hedge.max_utilization).
  long long hedges_suppressed = 0;

  /// Replicas that executed at least one step (shows autoscaler growth).
  int replicas_used = 0;
  /// Passes the event loop made. Not simulated output: the same report can
  /// come from more or fewer passes, and the report digests leave it out.
  long long passes = 0;
  std::vector<ReplicaReport> replicas;     ///< one per pool slot
  std::vector<ScaleEvent> scale_events;
  std::vector<RequestRecord> requests;     ///< per-request outcomes
};

class FleetSimulator {
 public:
  explicit FleetSimulator(FleetConfig cfg);

  const FleetConfig& config() const { return cfg_; }
  /// KV token capacity of each replica.
  long long kv_token_capacity() const { return kv_capacity_tokens_; }
  /// Provisioned pool (n_replicas, or the autoscaler ceiling if larger).
  int pool_size() const;

  /// Fault schedule after domain events expanded over the topology
  /// (interval-unioned with the explicit per-replica windows).
  const std::vector<FaultWindow>& expanded_faults() const {
    return faults_expanded_;
  }
  /// Degradation schedule after domain events expanded over the topology.
  const std::vector<DegradationWindow>& expanded_degradations() const {
    return degr_expanded_;
  }
  /// Warm-up staircase windows planned off the expanded fault schedule.
  const std::vector<DegradationWindow>& warmup_windows() const {
    return warmup_windows_;
  }

  /// Serve a trace to resolution: every request completes, is rejected,
  /// expires, or is lost. Deterministic for a fixed seed.
  FleetReport run(const std::vector<FleetRequest>& trace) const;

 private:
  FleetConfig cfg_;
  engine::LayerCostModel cost_;
  engine::MemoryModel mem_;
  long long kv_capacity_tokens_ = 0;
  /// Domain events expanded into per-replica schedules (== the explicit
  /// schedules when no topology is configured).
  std::vector<FaultWindow> faults_expanded_;
  std::vector<DegradationWindow> degr_expanded_;
  /// Self-clearing post-recovery ramps, kept apart from the scheduled
  /// brownouts and composed multiplicatively at query time.
  std::vector<DegradationWindow> warmup_windows_;
  int warmup_recoveries_ = 0;
  /// One LayerCostModel per distinct degradation scale (built after
  /// validation, hence the indirection).
  std::unique_ptr<DegradedCostPool> degraded_costs_;
};

}  // namespace mib::fleet
