#include "fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/rng.h"

namespace mib::fleet {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Stateless hash combine for the retry-jitter key.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  return splitmix64(state);
}

/// Validate one per-replica schedule: every window well-formed, disjoint
/// per replica, and naming a replica inside the pool. `what` is the window
/// kind in messages ("fault", "degradation", "maintenance").
template <typename W>
void validate_schedule(const std::vector<W>& windows, int pool,
                       const std::string& what) {
  for (const auto& w : windows) {
    w.validate();
    MIB_ENSURE(w.replica < pool, what << " window names replica " << w.replica
                                      << " outside the pool of " << pool);
  }
  ensure_disjoint_windows(windows, (what + " windows for replica").c_str());
}
}  // namespace

std::vector<FleetRequest> as_fleet_trace(
    const std::vector<engine::Request>& trace) {
  std::vector<FleetRequest> out;
  out.reserve(trace.size());
  for (const auto& r : trace) out.push_back(FleetRequest{r, 0, 0});
  return out;
}

std::vector<FleetRequest> as_fleet_trace(
    const std::vector<workload::Turn>& turns) {
  std::vector<const workload::Turn*> order;
  order.reserve(turns.size());
  for (const auto& t : turns) order.push_back(&t);
  std::stable_sort(order.begin(), order.end(),
                   [](const workload::Turn* a, const workload::Turn* b) {
                     return std::tie(a->turn, a->conversation) <
                            std::tie(b->turn, b->conversation);
                   });
  std::vector<FleetRequest> out;
  out.reserve(turns.size());
  for (const auto* t : order) {
    FleetRequest fr;
    fr.request = t->request;
    // Conversation identity: a stateless splitmix64 hash of the
    // conversation id (forced nonzero; 0 means "no prefix").
    std::uint64_t state = static_cast<std::uint64_t>(t->conversation) +
                          0x9E3779B97F4A7C15ull;
    fr.prefix_hash = splitmix64(state) | 1ull;
    fr.prefix_tokens = t->shared_prefix_tokens;
    out.push_back(fr);
  }
  return out;
}

void stamp_arrivals(const workload::ArrivalConfig& cfg,
                    std::vector<FleetRequest>& trace) {
  MIB_ENSURE(!trace.empty(), "cannot stamp an empty trace");
  const auto times =
      workload::generate_arrivals(cfg, static_cast<int>(trace.size()));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].request.arrival_s = times[i];
  }
}

void FleetConfig::validate() const {
  engine.validate();
  replica.validate();
  MIB_ENSURE(replica.policy == engine::QueuePolicy::kFcfs &&
                 replica.continuous_batching,
             "fleet replicas serve FCFS with continuous batching");
  MIB_ENSURE(n_replicas >= 1, "fleet needs at least one replica");
  admission.validate();
  retry.validate();
  migration.validate();
  if (health.enabled) health.validate();
  if (hedge.enabled) hedge.validate();
  if (warmup.enabled) warmup.validate();
  control.validate();
  if (autoscaler.enabled) {
    autoscaler.validate();
    MIB_ENSURE(n_replicas >= autoscaler.min_replicas &&
                   n_replicas <= autoscaler.max_replicas,
               "initial replica count outside autoscaler bounds");
  }
  slo.validate();
  const int pool = autoscaler.enabled
                       ? std::max(n_replicas, autoscaler.max_replicas)
                       : n_replicas;
  validate_schedule(faults, pool, "fault");
  validate_schedule(degradations, pool, "degradation");
  validate_schedule(maintenance, pool, "maintenance");
  topology.validate(pool);
  MIB_ENSURE(domain_faults.empty() || topology.enabled(),
             "domain faults configured without a topology");
  MIB_ENSURE(domain_degradations.empty() || topology.enabled(),
             "domain degradations configured without a topology");
  for (const auto& e : domain_faults) e.validate();
  for (const auto& e : domain_degradations) e.validate();
  for (const auto& w : control.partition.windows) {
    for (int r : w.minority_replicas) {
      MIB_ENSURE(r < pool, "partition window names replica "
                               << r << " outside the pool of " << pool);
    }
  }
}

FleetSimulator::FleetSimulator(FleetConfig cfg)
    : cfg_(std::move(cfg)),
      cost_(cfg_.engine.model, cfg_.engine.cluster, cfg_.engine.plan,
            cfg_.engine.cost),
      mem_(cfg_.engine.model, cfg_.engine.plan, cfg_.engine.cost.weight_dtype,
           cfg_.engine.cost.kv_dtype, cfg_.engine.cost.act_dtype) {
  cfg_.validate();
  kv_capacity_tokens_ = mem_.kv_token_capacity(
      cfg_.engine.cluster.device(), cfg_.replica.prefill_tokens_per_step);
  // Expand domain events over the topology into the per-replica schedules
  // the event loop prices. With no topology and no domain events these are
  // the explicit schedules unchanged.
  const Topology topo(cfg_.topology, pool_size());
  faults_expanded_ = expand_domain_faults(topo, cfg_.domain_faults, cfg_.faults);
  degr_expanded_ = expand_domain_degradations(topo, cfg_.domain_degradations,
                                              cfg_.degradations);
  WarmupPlan warm = plan_warmup(cfg_.warmup, faults_expanded_, cfg_.maintenance);
  warmup_windows_ = std::move(warm.windows);
  warmup_recoveries_ = warm.recoveries;
  degraded_costs_ = std::make_unique<DegradedCostPool>(
      &cost_, cfg_.engine, scales_for(degr_expanded_, warmup_windows_));
}

int FleetSimulator::pool_size() const {
  return cfg_.autoscaler.enabled
             ? std::max(cfg_.n_replicas, cfg_.autoscaler.max_replicas)
             : cfg_.n_replicas;
}

FleetReport FleetSimulator::run(const std::vector<FleetRequest>& trace) const {
  MIB_ENSURE(!trace.empty(), "empty fleet trace");
  const auto n = trace.size();

  // --- intake: validate, fold vision tokens, sort by arrival ---
  std::vector<Sequence> intake;
  intake.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& fr = trace[i];
    fr.request.validate();
    MIB_ENSURE(fr.prefix_tokens >= 0, "negative prefix length");
    Sequence s;
    s.request_id = static_cast<int>(i);
    s.arrival_s = fr.request.arrival_s;
    s.input_tokens = cost_.effective_prompt_tokens(fr.request.input_tokens,
                                                   fr.request.n_images);
    s.output_tokens = fr.request.output_tokens;
    s.prefix_hash = fr.prefix_hash;
    s.prefix_tokens = std::min(fr.prefix_tokens, s.input_tokens - 1);
    if (cfg_.admission.deadline_s > 0.0) {
      s.deadline_s = s.arrival_s + cfg_.admission.deadline_s;
    }
    MIB_ENSURE(s.input_tokens + s.output_tokens <= kv_capacity_tokens_,
               "request " << i << " exceeds replica KV capacity even alone");
    intake.push_back(s);
  }
  // Pristine copy per request id (hedge copies restart from here).
  std::vector<Sequence> blank(n);
  for (const auto& s : intake) {
    blank[static_cast<std::size_t>(s.request_id)] = s;
  }
  std::stable_sort(intake.begin(), intake.end(),
                   [](const Sequence& a, const Sequence& b) {
                     return a.arrival_s < b.arrival_s;
                   });

  // --- fleet state ---
  const int pool = pool_size();
  const bool oracle = !cfg_.health.enabled;
  std::vector<Replica> reps;
  reps.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    reps.emplace_back(&cost_, kv_capacity_tokens_, cfg_.replica);
  }
  std::vector<bool> active(static_cast<std::size_t>(pool), false);
  std::vector<bool> draining(static_cast<std::size_t>(pool), false);
  std::vector<bool> was_up(static_cast<std::size_t>(pool), true);
  std::vector<bool> in_maint(static_cast<std::size_t>(pool), false);
  for (int i = 0; i < cfg_.n_replicas; ++i) active[static_cast<std::size_t>(i)] = true;

  const FaultSchedule faults(faults_expanded_);
  const FaultSchedule maint(cfg_.maintenance);
  const DegradationSchedule degr(degr_expanded_);
  // Warm-up ramps live in their own schedule: they may overlap scheduled
  // brownouts (the one sanctioned composition) and are multiplied in at
  // query time.
  const DegradationSchedule warm(warmup_windows_);
  ControlPlane plane(cfg_.control, cfg_.policy, cfg_.seed, pool);
  // Every split-brain path below is gated on this: with no partition
  // windows configured none of them runs.
  const bool partitions = plane.partition_enabled();
  AdmissionController admission(cfg_.admission);
  const Autoscaler scaler(cfg_.autoscaler);
  HealthMonitor monitor(cfg_.health, pool);
  HedgePlanner hedge(cfg_.hedge);
  const hw::Interconnect migration_link(cfg_.migration.link);
  const double kv_bytes_per_token =
      mem_.kv_bytes_per_token_per_device() *
      static_cast<double>(cfg_.engine.cluster.size());

  // Failure-domain spread groups for topology-aware autoscaler placement
  // (empty strings when the feature or the topology is off).
  std::vector<std::string> spread_group(static_cast<std::size_t>(pool));
  if (cfg_.autoscaler.enabled && cfg_.autoscaler.topology_aware &&
      cfg_.topology.enabled()) {
    const Topology topo(cfg_.topology, pool);
    for (int i = 0; i < pool; ++i) {
      spread_group[static_cast<std::size_t>(i)] = topo.spread_group_of(i);
    }
  }

  FleetReport rep;
  rep.submitted = static_cast<long long>(n);
  rep.requests.resize(n);
  rep.replicas.resize(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    rep.replicas[static_cast<std::size_t>(i)].replica = i;
  }

  /// Work parked until `ready_s`. `src` is the replica a KV migration
  /// ships out of (drain-fabric severing aborts in-flight transfers whose
  /// source lands behind a cut); -1 for everything else.
  struct Pending {
    double ready_s = 0.0;
    Sequence seq;
    int src = -1;
  };
  /// Backoff retries, drain re-dispatches and parked dispatches.
  std::vector<Pending> retries;
  /// KV migrations in flight to their cutover.
  std::vector<Pending> migrations;
  /// Overlap drain: a running sequence whose KV snapshot copy completes at
  /// `at`; the delta it decodes meanwhile is re-shipped at the cutover.
  struct PendingHandoff {
    double at = 0.0;
    int replica = -1;
    int id = -1;
    long long snapshot_kv = 0;
    double drain_start = 0.0;
  };
  std::vector<PendingHandoff> handoffs;
  std::vector<bool> overlap_drain(static_cast<std::size_t>(pool), false);
  /// Requests waiting out the client fail-over lag at a dead home router.
  std::vector<Pending> router_pending;
  /// Work that was on a replica when it died, held until the front-end
  /// *learns* of the failure (circuit opens or the restart is observed).
  std::vector<std::vector<Sequence>> stranded(static_cast<std::size_t>(pool));
  /// Unplanned-failure start times awaiting detection (lag metric).
  std::vector<double> fault_started_at(static_cast<std::size_t>(pool), -1.0);

  // Per-request resolution and copy accounting. `copies[id]` counts live
  // copies of a request anywhere in the system (replica queues, retry
  // holds, stranded lists, migrations); hedging and split-brain double
  // dispatch are the only ways it exceeds 1.
  std::vector<char> done(n, 0);
  std::vector<int> copies(n, 0);
  struct HedgeTimer {
    double at = 0.0;
    int id = -1;
    bool operator<(const HedgeTimer& o) const { return at > o.at; }  // min-heap
  };
  std::priority_queue<HedgeTimer> hedge_timers;
  std::vector<char> hedge_fired(n, 0);

  // Split-brain state: the client's retry patience arms a timer per
  // affected dispatch; when it fires with the partition still up and no
  // first token visible, the majority admits a duplicate copy. With
  // max_client_retries > 1 the patience re-arms on a full-jitter
  // exponential backoff (the gray-failure client model); the defaults
  // are a single fixed timer.
  struct DupTimer {
    double at = 0.0;
    int id = -1;
    bool operator<(const DupTimer& o) const { return at > o.at; }  // min-heap
  };
  std::priority_queue<DupTimer> dup_timers;
  /// Patience attempts armed so far per request, and whether one is
  /// currently pending in `dup_timers`.
  std::vector<int> client_attempts(n, 0);
  std::vector<char> client_timer_pending(n, 0);
  /// Requests ever double-dispatched (heal-lag drain scan).
  std::vector<int> dup_ids;
  /// Heal edges whose duplicates have not all resolved yet.
  std::vector<double> pending_heals;
  const PartitionWindow* active_part =
      partitions ? plane.partition_at(0.0) : nullptr;

  // Heartbeats and degradation state.
  std::vector<double> next_hb(static_cast<std::size_t>(pool), kInf);
  std::vector<PerfScale> cur_scale(static_cast<std::size_t>(pool));
  /// Effective scale right now: scheduled brownout x post-recovery warm-up.
  auto scale_at = [&](int i, double t) {
    return compose(degr.at(i, t), warm.at(i, t));
  };
  auto hb_period = [&](int i, double t) {
    // A degraded replica services its control plane late in proportion to
    // its worst-hit resource.
    return cfg_.health.heartbeat_interval_s / scale_at(i, t).worst();
  };
  if (!oracle) {
    for (int i = 0; i < cfg_.n_replicas; ++i) {
      monitor.resume(i, 0.0);
      next_hb[static_cast<std::size_t>(i)] = hb_period(i, 0.0);
    }
  }

  std::size_t next_arrival = 0;
  std::size_t resolved = 0;
  double now = 0.0;
  double next_tick = cfg_.autoscaler.enabled ? cfg_.autoscaler.interval_s : kInf;

  // Runaway guard, scaled like the single-replica simulator plus the retry
  // budget (every retry can redo a request's full work), hedging (a second
  // copy per request) and maintenance (evacuate-and-recompute redoes work
  // once per window).
  long long max_steps = 0;
  for (const auto& s : intake) {
    max_steps += s.input_tokens + s.output_tokens + 4;
  }
  max_steps =
      std::max<long long>(max_steps, 1024) * 4 *
      (1 + cfg_.retry.max_retries) * (cfg_.hedge.enabled ? 2 : 1) *
      (partitions ? 1 + std::max(1, cfg_.control.partition.max_client_retries) +
                        static_cast<long long>(plane.partition_cuts())
                  : 1) *
      (1 + static_cast<long long>(cfg_.maintenance.size()));

  auto total_steps = [&] {
    long long t = 0;
    for (const auto& r : reps) t += r.steps();
    return t;
  };
  auto physically_up = [&](int i, double t) { return faults.up(i, t); };
  // The front end's ground-truth knowledge of a replica: the breaker state
  // when detection is on, the fault schedule itself in legacy oracle mode.
  auto live_routable = [&](int i, double t) {
    return oracle ? faults.up(i, t) : monitor.routable(i);
  };
  // What router `rtr` believes is routable: its (possibly stale) breaker
  // view when views age independently, the live truth otherwise. A
  // partitioned minority router routes on the view frozen at the cut and
  // can only reach replicas on its own side. The
  // active/draining/maintenance gates are front-end-initiated state every
  // router knows instantly.
  auto routable_for = [&](int rtr, double t) {
    std::vector<int> up;
    const bool frozen = partitions && plane.frozen_view(rtr, t);
    for (int i = 0; i < pool; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (!active[u] || draining[u] || in_maint[u]) continue;
      if (partitions && !plane.reachable(rtr, i, t)) continue;
      const bool ok = (plane.stale_views() || frozen) ? plane.view_ok(rtr, i)
                                                      : live_routable(i, t);
      if (ok) up.push_back(i);
    }
    return up;
  };
  auto queued_total = [&] {
    long long q = 0;
    for (const auto& r : reps) q += r.queue_depth();
    return q;
  };
  auto record_terminal = [&](const Sequence& s, RequestStatus status) {
    const auto u = static_cast<std::size_t>(s.request_id);
    MIB_ENSURE(!done[u], "request " << s.request_id << " resolved twice");
    done[u] = 1;
    auto& rec = rep.requests[u];
    rec.status = status;
    rec.arrival_s = s.arrival_s;
    rec.input_tokens = s.input_tokens;
    rec.output_tokens = s.output_tokens;
    rec.retries = s.retries;
    rec.had_prefix = s.prefix_hash != 0;
    ++resolved;
  };
  // Price the waste when a copy of a double-dispatched request is removed:
  // whatever replica time it consumed served nobody, but the fleet paid
  // for it. A no-op for everything else (hedges keep their own counters).
  auto charge_duplicate = [&](const Sequence& s) {
    if (rep.requests[static_cast<std::size_t>(s.request_id)]
            .double_dispatched) {
      rep.duplicate_decode_s += s.served_s;
    }
  };
  // Loser-copy accounting: split-brain duplicates are priced as waste,
  // everything else counts toward hedges_cancelled as before. (Never both:
  // a double-dispatched request's copies would otherwise push the hedge
  // counter past hedges_issued.)
  auto count_cancelled = [&](const Sequence& s) {
    if (rep.requests[static_cast<std::size_t>(s.request_id)]
            .double_dispatched) {
      rep.duplicate_decode_s += s.served_s;
    } else {
      ++rep.hedges_cancelled;
    }
  };
  // Arm (or re-arm) the client's patience timer for `id` at time t.
  // Attempt k fires after client_retry_s * retry_multiplier^(k-1), shrunk
  // by full jitter when retry_jitter > 0; the jitter key is a distinct
  // salt from the server-side retry stream so the two schedules never
  // correlate. Returns false when an attempt is already pending or the
  // client's retry budget is spent. The defaults (multiplier 1, jitter 0,
  // one attempt) are a single fixed patience.
  auto arm_client_timer = [&](int id, double t) {
    const auto u = static_cast<std::size_t>(id);
    const auto& pc = cfg_.control.partition;
    if (client_timer_pending[u] || client_attempts[u] >= pc.max_client_retries) {
      return false;
    }
    const int attempt = ++client_attempts[u];
    client_timer_pending[u] = 1;
    double delay = pc.client_retry_s;
    for (int k = 1; k < attempt; ++k) delay *= pc.retry_multiplier;
    if (pc.retry_jitter > 0.0) {
      const std::uint64_t key =
          mix(cfg_.seed ^ 0xC11E27ull,
              mix(static_cast<std::uint64_t>(id),
                  static_cast<std::uint64_t>(attempt)));
      delay *= 1.0 - pc.retry_jitter * jitter_uniform(key);
    }
    dup_timers.push(DupTimer{t + delay, id});
    return true;
  };
  auto dispatch_via = [&](int rtr, Sequence seq, double t) {
    const auto up = routable_for(rtr, t);
    if (up.empty()) {
      // Whole fleet dark as far as this router knows: park until
      // something can change that — a fault transition (oracle mode or a
      // restart), a breaker deadline, a maintenance edge, a view sync, a
      // router recovery, or the next autoscaler tick.
      double wake = faults.next_transition_after(t);
      wake = std::min(wake, maint.next_transition_after(t));
      if (!oracle) wake = std::min(wake, monitor.next_event_after(t));
      wake = std::min(wake, plane.next_sync_after(t));
      wake = std::min(wake, plane.next_router_transition_after(t));
      // A partition edge changes reachability (a minority router with no
      // same-side replica parks exactly until the heal).
      if (partitions) {
        wake = std::min(wake, plane.next_partition_transition_after(t));
      }
      if (cfg_.autoscaler.enabled) {
        wake = std::min(wake, next_tick > t
                                  ? next_tick
                                  : next_tick + cfg_.autoscaler.interval_s);
      }
      MIB_ENSURE(std::isfinite(wake),
                 "no replica in service and none scheduled to recover");
      MIB_ENSURE(wake > t, "fleet parked without a future wake event");
      retries.push_back(Pending{wake, seq});
      return;
    }
    const int idx = plane.router(rtr).route(seq, reps, up);
    if (!live_routable(idx, t)) {
      // Only a stale breaker view — aged out under staggered syncs or
      // frozen on the minority side of a partition — can pick a replica
      // the live state has already fenced off.
      MIB_ENSURE(plane.stale_views() || (partitions && plane.frozen_view(rtr, t)),
                 "dispatch to a replica with an open circuit");
      ++rep.stale_dispatches;
      if (!faults.up(idx, t)) {
        // Connection refused by a dead node: the client times out after
        // the usual detection lag, then re-enters at its home router
        // (whose view has had time to catch up).
        retries.push_back(
            Pending{t + cfg_.control.failover_detection_s, seq});
        return;
      }
      // Breaker open but the node is alive (a false-positive open): the
      // stale dispatch lands and is simply served.
    }
    if (partitions && !plane.reply_reachable(idx, rtr, t)) {
      // Cross-cut dispatch over an asymmetric link: the copy can decode
      // to completion without the dispatching side ever hearing back.
      // Patience must be ticking or the request would leak with its
      // orphan.
      arm_client_timer(seq.request_id, t);
    }
    seq.via_router = rtr;
    reps[static_cast<std::size_t>(idx)].enqueue(seq);
  };
  auto dispatch = [&](Sequence seq, double t) {
    const int home = plane.assigned_router(seq.request_id);
    if (partitions) {
      const auto u = static_cast<std::size_t>(seq.request_id);
      if (seq.is_partition_dup) {
        // The duplicate is the client's majority-side retry: while the
        // partition holds it re-enters at a majority router, never back
        // at its cut-off home.
        if (plane.partition_at(t) != nullptr) {
          const int rtr = plane.majority_survivor(t);
          if (rtr >= 0) {
            dispatch_via(rtr, std::move(seq), t);
            return;
          }
          // No live majority router: fall through to the home-router
          // stranding machinery below.
        }
      } else if (plane.router_fenced(home, t)) {
        // Quorum self-fencing: the minority home router knows it lost the
        // router majority and refuses the dispatch outright, so the
        // client re-homes to the majority survivor instead of burning
        // patience against a side that will not answer.
        ++rep.quorum_fenced;
        rep.requests[u].quorum_rehomed = true;
        const int rtr = plane.majority_survivor(t);
        if (rtr >= 0) {
          dispatch_via(rtr, std::move(seq), t);
          return;
        }
        // No live majority router either: strand client-side until the
        // fail-over lag passes (3i' re-checks fencing on re-entry).
        router_pending.push_back(
            Pending{t + cfg_.control.failover_detection_s, seq});
        return;
      } else if (plane.router_minority(home, t)) {
        // Minority-homed dispatch during a partition: the client's retry
        // patience starts ticking toward a majority-side double dispatch.
        arm_client_timer(seq.request_id, t);
      }
    }
    if (!plane.router_up(home, t)) {
      // Home router dead: the request strands client-side until the
      // fail-over timeout fires, then re-enters at a survivor.
      ++rep.router_stranded;
      rep.requests[static_cast<std::size_t>(seq.request_id)].router_failover =
          true;
      router_pending.push_back(
          Pending{t + cfg_.control.failover_detection_s, seq});
      return;
    }
    dispatch_via(home, std::move(seq), t);
  };
  // A copy of `id` resolved; remove every other live copy (hedge losers,
  // parked retries, stranded or migrating duplicates) and free their KV.
  // The winner's own replica is scanned too: a retried original and its
  // hedge can land on the same replica, and the winning copy is already
  // out of the running set by the time this runs.
  auto cancel_other_copies = [&](int id) {
    const auto u = static_cast<std::size_t>(id);
    if (copies[u] <= 1) return;
    for (int r = 0; r < pool; ++r) {
      // A cancel cannot cross an active partition unless the cut leaves
      // the majority->minority direction open: a stray copy behind a full
      // cut keeps burning until the heal fences it (or until it completes
      // as a photo-finish loser).
      if (partitions && !plane.cancel_reachable(r, now)) continue;
      Sequence s;
      while (copies[u] > 1 && reps[static_cast<std::size_t>(r)].take(id, &s)) {
        --copies[u];
        count_cancelled(s);
      }
    }
    auto drop_from = [&](auto& list) {
      for (auto it = list.begin(); it != list.end();) {
        if (it->seq.request_id == id) {
          count_cancelled(it->seq);
          it = list.erase(it);
          --copies[u];
        } else {
          ++it;
        }
      }
    };
    drop_from(retries);
    drop_from(migrations);
    drop_from(router_pending);
    for (auto& list : stranded) {
      for (auto it = list.begin(); it != list.end();) {
        if (it->request_id == id) {
          count_cancelled(*it);
          it = list.erase(it);
          --copies[u];
        } else {
          ++it;
        }
      }
    }
  };
  // Route work off a dead replica: everything still on it plus everything
  // stranded there since the crash goes through the retry path (with
  // jittered backoff and a budget), duplicates of hedged requests are
  // simply dropped.
  auto release_failed = [&](int i, double t) {
    const auto u = static_cast<std::size_t>(i);
    auto work = reps[u].evacuate();
    for (auto& s : stranded[u]) work.push_back(s);
    stranded[u].clear();
    for (auto& s : work) {
      const auto id = static_cast<std::size_t>(s.request_id);
      if (done[id] || copies[id] > 1) {
        charge_duplicate(s);
        --copies[id];  // another copy carries the request (or it's over)
        continue;
      }
      if (s.retries >= cfg_.retry.max_retries) {
        record_terminal(s, RequestStatus::kLost);
        --copies[id];
        ++rep.lost;
        continue;
      }
      ++s.retries;
      ++rep.retries;
      const std::uint64_t key =
          mix(cfg_.seed, mix(static_cast<std::uint64_t>(s.request_id),
                             static_cast<std::uint64_t>(s.retries)));
      retries.push_back(
          Pending{t + cfg_.retry.delay(s.retries, key), s});
    }
  };
  // Learn of a failure (detection or observed restart): lag metric.
  auto mark_detected = [&](int i, double t) {
    const auto u = static_cast<std::size_t>(i);
    if (fault_started_at[u] >= 0.0) {
      rep.detection_lag_s.add(t - fault_started_at[u]);
      fault_started_at[u] = -1.0;
    }
  };

  // Layer-wise chunks stripe across the configured parallel links, so a
  // transfer's wire time divides by the stripe width.
  const double stripe_bytes =
      kv_bytes_per_token / static_cast<double>(cfg_.migration.stripe_links);
  // Drain-fabric time to ship one sequence's KV snapshot.
  auto ship_s = [&](long long kv_tokens) {
    return cfg_.migration.per_sequence_overhead_s +
           migration_link.p2p(static_cast<double>(kv_tokens) * stripe_bytes);
  };
  // Drain by KV migration: `seq` leaves replica `src` (its drain began at
  // `since`) and re-enters service elsewhere once its KV lands at `ready`.
  auto migrate = [&](Sequence seq, int src, double since, double ready) {
    ++rep.migrations;
    rep.migrated_kv_tokens += seq.kv_tokens();
    rep.migration_s.add(ready - since);
    rep.requests[static_cast<std::size_t>(seq.request_id)].migrated = true;
    migrations.push_back(Pending{ready, std::move(seq), src});
  };
  // Drain by evacuate-and-recompute: progress is lost and the sequence
  // re-dispatches at t. Planned drains are front-end initiated, so no
  // backoff and no retry-budget charge.
  auto recompute = [&](Sequence seq, double t) {
    if (seq.kv_tokens() > 0) ++rep.drain_evacuations;
    seq.prefilled = 0;
    seq.generated = 0;
    seq.first_token_s = -1.0;
    seq.prefix_hit = false;
    retries.push_back(Pending{t, std::move(seq)});
  };
  // Take the entries of a pending list that are due at `now`, in a
  // deterministic order: list order, then stable-sorted by (time, id).
  auto take_due = [&now](auto& list, auto time_of, auto id_of) {
    using Entry = typename std::decay_t<decltype(list)>::value_type;
    const auto split = std::stable_partition(
        list.begin(), list.end(),
        [&](const Entry& e) { return time_of(e) > now; });
    std::vector<Entry> due(std::make_move_iterator(split),
                           std::make_move_iterator(list.end()));
    list.erase(split, list.end());
    std::stable_sort(due.begin(), due.end(),
                     [&](const Entry& a, const Entry& b) {
                       return std::make_pair(time_of(a), id_of(a)) <
                              std::make_pair(time_of(b), id_of(b));
                     });
    return due;
  };
  auto ready_of = [](const Pending& p) { return p.ready_s; };
  auto id_of = [](const Pending& p) { return p.seq.request_id; };

  while (resolved < n) {
    // --- 1. kick every in-service replica that is idle but has work ---
    for (int i = 0; i < pool; ++i) {
      const auto u = static_cast<std::size_t>(i);
      // A replica in maintenance normally sits dark — unless it is still
      // overlap-draining, in which case it keeps decoding its running
      // batch while the KV copies out behind it.
      if (!active[u] || (in_maint[u] && !overlap_drain[u]) ||
          !faults.up(i, now)) {
        continue;
      }
      Replica& r = reps[u];
      if (r.mid_step()) continue;
      for (auto& s : r.drop_expired(now)) {
        const auto id = static_cast<std::size_t>(s.request_id);
        MIB_ENSURE(!done[id], "expired copy of a resolved request");
        if (copies[id] > 1) {
          charge_duplicate(s);
          --copies[id];  // the other copy still carries the request
          continue;
        }
        --copies[id];
        admission.count_expired();
        record_terminal(s, RequestStatus::kExpired);
        ++rep.expired;
      }
      if (r.has_work()) r.begin_step(now);
    }
    // Draining replicas deactivate once empty.
    for (int i = 0; i < pool; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (draining[u] && !reps[u].mid_step() && !reps[u].has_work()) {
        draining[u] = false;
        active[u] = false;
        if (!oracle) {
          monitor.suspend(i);
          next_hb[u] = kInf;
        }
      }
    }
    // An overlap drain completes when the last sequence has cut over: the
    // source is empty, no snapshot copies are pending, and the node can
    // finally go down for its maintenance.
    for (int i = 0; i < pool; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (!overlap_drain[u]) continue;
      bool pending = false;
      for (const auto& h : handoffs) pending = pending || h.replica == i;
      if (!pending && !reps[u].mid_step() && !reps[u].has_work()) {
        overlap_drain[u] = false;
        reps[u].finish_drain();
      }
    }
    if (resolved >= n) break;

    // --- 2. next event time ---
    double t_next = kInf;
    if (next_arrival < intake.size()) {
      t_next = std::min(t_next, intake[next_arrival].arrival_s);
    }
    for (const auto& r : reps) {
      if (r.mid_step()) t_next = std::min(t_next, r.step_end_s());
    }
    for (const auto& p : retries) t_next = std::min(t_next, p.ready_s);
    for (const auto& p : migrations) t_next = std::min(t_next, p.ready_s);
    for (const auto& h : handoffs) t_next = std::min(t_next, h.at);
    for (const auto& p : router_pending) t_next = std::min(t_next, p.ready_s);
    t_next = std::min(t_next, faults.next_transition_after(now));
    t_next = std::min(t_next, degr.next_transition_after(now));
    t_next = std::min(t_next, warm.next_transition_after(now));
    t_next = std::min(t_next, maint.next_transition_after(now));
    t_next = std::min(t_next, plane.next_sync_after(now));
    t_next = std::min(t_next, plane.next_router_transition_after(now));
    if (!oracle) {
      for (int i = 0; i < pool; ++i) {
        t_next = std::min(t_next, next_hb[static_cast<std::size_t>(i)]);
      }
      t_next = std::min(t_next, monitor.next_event_after(now));
    }
    if (!hedge_timers.empty()) {
      t_next = std::min(t_next, hedge_timers.top().at);
    }
    if (partitions) {
      t_next = std::min(t_next, plane.next_partition_transition_after(now));
      if (!dup_timers.empty()) t_next = std::min(t_next, dup_timers.top().at);
    }
    if (cfg_.autoscaler.enabled) t_next = std::min(t_next, next_tick);
    MIB_ENSURE(std::isfinite(t_next), "fleet event loop stalled");
    MIB_ENSURE(t_next >= now - 1e-12, "fleet simulation time went backwards");
    const double t_prev = now;
    now = std::max(now, t_next);
    // Charge the elapsed slice to the view-disagreement clock while any
    // two routers held different breaker snapshots.
    plane.accumulate_disagreement(t_prev, now);

    // --- 3a. heartbeats emitted up to now (monitor mode) ---
    if (!oracle) {
      for (int i = 0; i < pool; ++i) {
        const auto u = static_cast<std::size_t>(i);
        while (next_hb[u] <= now) {
          const double emit = next_hb[u];
          // A minority replica's heartbeats cannot cross a full cut: the
          // (majority-side) monitor will suspect it and open its breaker
          // even though it is up and serving its own side. An asymmetric
          // cut with the minority->majority direction open still delivers
          // them — the gray failure where the node looks healthy while
          // its replies are lost.
          if (active[u] && !in_maint[u] && faults.up(i, emit) &&
              (!partitions || plane.heartbeat_crosses(i, emit))) {
            monitor.on_heartbeat(i, emit);
          }
          next_hb[u] = emit + hb_period(i, emit);
        }
      }
    }

    // --- 3b. degradation / warm-up transitions: reprice replicas ---
    for (int i = 0; i < pool; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const PerfScale scale = scale_at(i, now);
      if (!(scale == cur_scale[u])) {
        cur_scale[u] = scale;
        reps[u].set_cost_model(degraded_costs_->at(scale));
      }
    }

    // --- 3c. maintenance transitions: drain (migrate or recompute) ---
    for (int i = 0; i < pool; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const bool maint_now = !maint.up(i, now);
      if (maint_now == in_maint[u]) continue;
      in_maint[u] = maint_now;
      // A severed drain fabric (the source behind a cut with
      // sever_drain_fabric set) cannot ship KV at all: every drain on this
      // replica falls back to evacuate-and-recompute.
      const bool severed = partitions && !plane.drain_reachable(i, now);
      double cursor = now;  // transfers serialize on the striped fabric
      // Ship one frozen sequence's KV to a peer, or recompute it: nothing
      // resident to move (still queued), recompute mode, or a severed
      // fabric (counted as an aborted migration).
      auto drain_one = [&](Sequence s) {
        MIB_ENSURE(!done[static_cast<std::size_t>(s.request_id)],
                   "drained copy of a resolved request");
        if (!cfg_.migration.migrate_kv || s.kv_tokens() == 0) {
          recompute(std::move(s), now);
        } else if (severed) {
          ++rep.migration_aborts;
          recompute(std::move(s), now);
        } else {
          cursor += ship_s(s.kv_tokens());
          migrate(std::move(s), i, now, cursor);
        }
      };
      if (maint_now) {
        if (!oracle) {
          monitor.suspend(i);
          next_hb[u] = kInf;
        }
        if (!active[u]) continue;
        const bool overlap = cfg_.migration.overlap_decode &&
                             cfg_.migration.migrate_kv && !severed &&
                             reps[u].running_count() > 0;
        if (overlap) {
          // Overlap drain: queued work re-enters elsewhere right away;
          // the running batch keeps decoding on the source while its KV
          // snapshots copy out behind it (handoffs fire at each copy's
          // completion and re-ship only the delta decoded meanwhile).
          for (auto& s : reps[u].take_waiting()) drain_one(std::move(s));
          overlap_drain[u] = true;
          for (const auto& s : reps[u].running()) {
            MIB_ENSURE(!done[static_cast<std::size_t>(s.request_id)],
                       "drained copy of a resolved request");
            cursor += ship_s(s.kv_tokens());
            handoffs.push_back(
                PendingHandoff{cursor, i, s.request_id, s.kv_tokens(), now});
          }
        } else {
          for (auto& s : reps[u].take_all()) drain_one(std::move(s));
        }
      } else {
        if (overlap_drain[u]) {
          // The reboot cannot wait for the copy any longer: cancel the
          // in-flight snapshots, freeze what is still on the source, and
          // ship it cold from here.
          overlap_drain[u] = false;
          handoffs.erase(std::remove_if(handoffs.begin(), handoffs.end(),
                                        [i](const PendingHandoff& h) {
                                          return h.replica == i;
                                        }),
                         handoffs.end());
          for (auto& s : reps[u].take_all()) drain_one(std::move(s));
        }
        if (!oracle && active[u]) {
          monitor.resume(i, now);
          next_hb[u] = now + hb_period(i, now);
        }
      }
    }

    // --- 3d. fault transitions ---
    for (int i = 0; i < pool; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const bool up_now = faults.up(i, now);
      if (was_up[u] && !up_now && active[u]) {
        if (oracle) {
          // Legacy: the front-end knows instantly, work retries at once.
          stranded[u] = reps[u].evacuate();
          release_failed(i, now);
        } else {
          // Crash: progress is gone, but nobody knows yet. Work strands
          // until the breaker opens or the restart is observed.
          for (auto& s : reps[u].evacuate()) stranded[u].push_back(s);
          if (monitor.state(i) == CircuitState::kClosed) {
            fault_started_at[u] = now;
          } else {
            // The breaker was already open (e.g. a brownout false
            // positive) — the front-end already routes around it.
            release_failed(i, now);
          }
        }
      }
      if (!was_up[u] && up_now && !oracle) {
        // Restart observed: stale connections error out, anything still
        // addressed to the old process retries now even if the breaker
        // never opened (a blip shorter than detection).
        mark_detected(i, now);
        release_failed(i, now);
      }
      was_up[u] = up_now;
    }

    // --- 3e. failure detection: breaker transitions at `now` ---
    if (!oracle) {
      std::vector<bool> up_vec(static_cast<std::size_t>(pool));
      for (int i = 0; i < pool; ++i) {
        up_vec[static_cast<std::size_t>(i)] = physically_up(i, now);
      }
      for (int i : monitor.advance(now, up_vec)) {
        const auto u = static_cast<std::size_t>(i);
        ++rep.circuit_opens;
        if (up_vec[u]) {
          // Slow, not dead: stop routing to it, let its work finish.
          ++rep.false_circuit_opens;
        } else {
          mark_detected(i, now);
          release_failed(i, now);
        }
      }
    }

    // --- 3e'. routers whose sync deadline passed refresh their views ---
    // With partitions configured, views refresh every event (so a minority
    // router freezes exactly the pre-cut live state); sync() itself skips
    // frozen routers.
    if (plane.stale_views() || partitions) {
      plane.sync(now, [&](int i) { return live_routable(i, now); });
    }

    // --- 3e''. partition edges: heal the split brain ---
    if (partitions) {
      const PartitionWindow* cur = plane.partition_at(now);
      if (cur != active_part) {
        if (active_part != nullptr) {
          // The partition healed: resolve the divergence. Stray copies of
          // already-committed requests are cancelled under either policy
          // (their KV freed); still-racing duplicates are fenced off the
          // minority side under kFenceMinority, or left to race under
          // kFirstCommitWins.
          const bool fence =
              cfg_.control.partition.heal == HealPolicy::kFenceMinority;
          for (int i : active_part->minority_replicas) {
            const auto u = static_cast<std::size_t>(i);
            for (int id : reps[u].resident_ids()) {
              const auto v = static_cast<std::size_t>(id);
              const bool stray = done[v] != 0;
              if (!stray && !(fence && copies[v] > 1)) continue;
              Sequence s;
              if (!reps[u].take(id, &s)) continue;
              --copies[v];
              if (stray) {
                count_cancelled(s);  // deferred loser-copy cancel
              } else {
                charge_duplicate(s);
                ++rep.fenced_requests;
                rep.requests[v].fenced = true;
              }
            }
          }
          pending_heals.push_back(now);
          ++rep.partition_flaps;
        }
        active_part = cur;
        if (cur != nullptr && cfg_.control.partition.sever_drain_fabric) {
          // The new cut severs the drain fabric: KV transfers out of a
          // now-isolated source abort mid-stripe and fall back to
          // evacuate-and-recompute — the shipped bytes are wasted and the
          // sequence re-prefills from scratch on the other side.
          for (auto it = migrations.begin(); it != migrations.end();) {
            if (it->src >= 0 && !plane.drain_reachable(it->src, now)) {
              ++rep.migration_aborts;
              recompute(std::move(it->seq), now);
              it = migrations.erase(it);
            } else {
              ++it;
            }
          }
          for (auto it = handoffs.begin(); it != handoffs.end();) {
            if (!plane.drain_reachable(it->replica, now)) {
              Sequence s;
              if (reps[static_cast<std::size_t>(it->replica)].take(it->id,
                                                                   &s)) {
                ++rep.migration_aborts;
                recompute(std::move(s), now);
              }
              it = handoffs.erase(it);
            } else {
              ++it;
            }
          }
        }
      }
    }

    // --- 3f. step completions (first finished copy wins) ---
    for (int i = 0; i < pool; ++i) {
      const auto u = static_cast<std::size_t>(i);
      Replica& r = reps[u];
      if (!r.mid_step() || r.step_end_s() > now) continue;
      const double finish = r.step_end_s();
      for (auto& s : r.complete_step()) {
        const auto id = static_cast<std::size_t>(s.request_id);
        if (done[id]) {
          // Both copies finished in the very same step (possibly on the
          // same replica) — the winner already resolved it; this one is a
          // photo-finish loser, cancelled at the completion boundary.
          MIB_ENSURE(copies[id] > 0, "completed copy of a resolved request");
          --copies[id];
          count_cancelled(s);
          continue;
        }
        if (partitions && s.via_router >= 0 &&
            !plane.reply_reachable(i, s.via_router, now)) {
          // Orphaned decode: the copy finished behind an asymmetric cut
          // and its completion cannot reach the side that dispatched it.
          // The replica's work is gone; the client is still waiting.
          --copies[id];
          ++rep.orphaned_completions;
          rep.lost_completion_s += s.served_s;
          rep.requests[id].orphaned = true;
          if (copies[id] == 0 && !client_timer_pending[id] &&
              !arm_client_timer(s.request_id, now)) {
            // No copy left anywhere and the client's patience budget is
            // spent: the request is lost with its answer on the wire.
            record_terminal(s, RequestStatus::kLost);
            ++rep.lost;
          }
          continue;
        }
        auto& rec = rep.requests[id];
        record_terminal(s, RequestStatus::kCompleted);
        rec.first_token_s = s.first_token_s;
        rec.finish_s = finish;
        rec.replica = i;
        rec.prefix_hit = s.prefix_hit;
        rec.won_by_hedge = s.is_hedge;
        if (s.is_hedge) ++rep.hedges_won;
        cancel_other_copies(s.request_id);
        --copies[id];
        hedge.observe_ttft(rec.ttft());
        ++rep.completed;
        auto& rr = rep.replicas[u];
        ++rr.completed;
        rr.ttft_s.add(rec.ttft());
        rr.itl_s.add(rec.itl());
        rr.e2e_s.add(rec.e2e());
      }
    }

    // --- 3g0. overlap-drain cutovers: snapshot copy done, ship the delta ---
    for (auto& h : take_due(
             handoffs, [](const PendingHandoff& e) { return e.at; },
             [](const PendingHandoff& e) { return e.id; })) {
      Sequence s;
      // The sequence may have finished on the source meanwhile (the best
      // outcome), crashed off it, or been cancelled as a hedge loser.
      if (!reps[static_cast<std::size_t>(h.replica)].take(h.id, &s)) continue;
      MIB_ENSURE(!done[static_cast<std::size_t>(h.id)],
                 "handed off a resolved request");
      if (s.kv_tokens() == 0) {
        // Preempted back to zero during the copy: nothing to cut over,
        // the snapshot transfer was wasted — recompute elsewhere.
        ++rep.drain_evacuations;
        recompute(std::move(s), now);
        continue;
      }
      const long long delta =
          std::max<long long>(0, s.kv_tokens() - h.snapshot_kv);
      rep.overlap_decode_tokens += delta;
      const double ready =
          now + migration_link.p2p(static_cast<double>(delta) * stripe_bytes);
      migrate(std::move(s), h.replica, h.drain_start, ready);
    }

    // --- 3g. finished KV migrations re-enter service elsewhere ---
    for (auto& p : take_due(migrations, ready_of, id_of)) {
      dispatch(std::move(p.seq), now);
    }

    // --- 3h. fresh arrivals (bounded-queue admission, then routing) ---
    while (next_arrival < intake.size() &&
           intake[next_arrival].arrival_s <= now) {
      Sequence s = intake[next_arrival++];
      const auto id = static_cast<std::size_t>(s.request_id);
      if (cfg_.hedge.enabled &&
          queued_total() >= cfg_.admission.queue_capacity) {
        // Queue full: shed waiting hedge copies before rejecting a
        // primary — insurance yields to real work.
        for (int r = 0;
             r < pool && queued_total() >= cfg_.admission.queue_capacity;
             ++r) {
          const auto ru = static_cast<std::size_t>(r);
          for (int hid : reps[ru].waiting_hedges()) {
            // A hedge whose primary already expired or died carries the
            // request alone now — shedding it would leak the request.
            if (copies[static_cast<std::size_t>(hid)] <= 1) continue;
            if (!reps[ru].cancel(hid)) continue;
            --copies[static_cast<std::size_t>(hid)];
            ++rep.hedges_shed;
            if (queued_total() < cfg_.admission.queue_capacity) break;
          }
        }
      }
      if (!admission.try_admit(queued_total())) {
        record_terminal(s, RequestStatus::kRejected);
        ++rep.rejected;
        continue;
      }
      copies[id] = 1;
      const double trigger = hedge.trigger_delay();
      if (std::isfinite(trigger)) {
        hedge_timers.push(HedgeTimer{now + trigger, s.request_id});
      }
      dispatch(std::move(s), now);
    }

    // --- 3i. due retries (already admitted; deterministic order) ---
    for (auto& p : take_due(retries, ready_of, id_of)) {
      dispatch(std::move(p.seq), now);
    }

    // --- 3i'. requests stranded at a dead router fail over ---
    for (auto& p : take_due(router_pending, ready_of, id_of)) {
      int rtr = plane.survivor(now);
      if (rtr >= 0 && partitions && plane.router_fenced(rtr, now)) {
        // The lowest live router has fenced itself off: fail over to a
        // live router that is still admitting, if any.
        rtr = -1;
        for (int r = 0; r < cfg_.control.routers; ++r) {
          if (plane.router_up(r, now) && !plane.router_fenced(r, now)) {
            rtr = r;
            break;
          }
        }
      }
      if (rtr < 0) {
        // The whole front end is dark (or fenced): wait for a router to
        // return or a partition edge to lift the fence.
        double wake = plane.next_router_transition_after(now);
        if (partitions) {
          wake = std::min(wake, plane.next_partition_transition_after(now));
        }
        MIB_ENSURE(std::isfinite(wake),
                   "every router dark with no recovery scheduled");
        router_pending.push_back(Pending{wake, std::move(p.seq)});
        continue;
      }
      dispatch_via(rtr, std::move(p.seq), now);
    }

    // --- 3j. hedge triggers: re-issue stragglers to a second replica ---
    while (!hedge_timers.empty() && hedge_timers.top().at <= now) {
      const int id = hedge_timers.top().id;
      hedge_timers.pop();
      const auto u = static_cast<std::size_t>(id);
      if (done[u] || hedge_fired[u]) continue;
      hedge_fired[u] = 1;
      bool started = false;
      for (const auto& r : reps) started = started || r.started(id);
      if (started) continue;  // first token is out, nothing to hedge
      if (cfg_.hedge.max_utilization < 1.0) {
        // Utilization gate: hedging into a saturated fleet adds load
        // exactly when there is no slack to absorb it and makes the tail
        // worse, not better. Gate on the busy fraction of in-service
        // replicas.
        int in_service = 0;
        int busy = 0;
        for (int r = 0; r < pool; ++r) {
          const auto ru = static_cast<std::size_t>(r);
          if (!active[ru] || draining[ru] || in_maint[ru]) continue;
          ++in_service;
          if (reps[ru].mid_step() || reps[ru].has_work()) ++busy;
        }
        const double util =
            in_service > 0 ? static_cast<double>(busy) / in_service : 1.0;
        if (util > cfg_.hedge.max_utilization) {
          ++rep.hedges_suppressed;
          continue;
        }
      }
      if (queued_total() >= cfg_.admission.queue_capacity) {
        // A hedge is optional work: it respects admission capacity and is
        // refused outright when the fleet queue is already full.
        ++rep.hedges_shed;
        continue;
      }
      int rtr = plane.survivor(now);
      // Hedges are optional insurance: during a partition they are issued
      // against the healthy (majority) side only.
      if (partitions && plane.partition_at(now) != nullptr) {
        rtr = plane.majority_survivor(now);
      }
      if (rtr < 0) continue;  // whole front end dark: no hedge
      auto up = routable_for(rtr, now);
      // Never double up on a replica already holding a copy.
      up.erase(std::remove_if(up.begin(), up.end(),
                              [&](int r) {
                                return reps[static_cast<std::size_t>(r)]
                                           .find(id) != nullptr;
                              }),
               up.end());
      if (up.empty()) continue;
      Sequence copy = blank[u];
      copy.is_hedge = true;
      const int idx = plane.router(rtr).route(copy, reps, up);
      if (!live_routable(idx, now)) {
        MIB_ENSURE(plane.stale_views(),
                   "dispatch to a replica with an open circuit");
        ++rep.stale_dispatches;
        // The hedge copy died on the wire against a dead node; the
        // original carries the request alone.
        if (!faults.up(idx, now)) continue;
      }
      ++copies[u];
      ++rep.hedges_issued;
      rep.requests[u].hedged = true;
      copy.via_router = rtr;
      reps[static_cast<std::size_t>(idx)].enqueue(copy);
    }

    // --- 3j'. client retries against the majority: double dispatch ---
    // A minority-homed request whose first token has not arrived within
    // the client's patience is re-submitted, and the majority side — which
    // cannot see the minority's copy — admits it again. Both sides now
    // burn capacity on the same request; goodput will count it once.
    while (partitions && !dup_timers.empty() && dup_timers.top().at <= now) {
      const int id = dup_timers.top().id;
      dup_timers.pop();
      const auto u = static_cast<std::size_t>(id);
      client_timer_pending[u] = 0;
      if (done[u]) continue;
      if (copies[u] == 0) {
        // Every copy of this request evaporated — orphaned behind an
        // asymmetric cut with no retry pending. The client's patience
        // expired with nothing in flight: re-send from scratch. This is a
        // fresh dispatch (it re-enters at the home router), not a
        // split-brain duplicate.
        ++rep.client_resends;
        ++copies[u];
        Sequence fresh = blank[u];
        dispatch(std::move(fresh), now);
        continue;
      }
      if (plane.partition_at(now) == nullptr) continue;  // healed in time
      // A copy whose replies cannot cross back to the side that dispatched
      // it is invisible to the client even after its first token.
      bool visible_start = false;
      bool any_unreachable = false;
      for (int r = 0; r < pool; ++r) {
        const auto ru = static_cast<std::size_t>(r);
        const Sequence* c = reps[ru].find(id);
        if (c == nullptr) continue;
        if (c->via_router >= 0 && !plane.reply_reachable(r, c->via_router, now)) {
          any_unreachable = true;
        } else if (reps[ru].started(id)) {
          visible_start = true;
        }
      }
      if (!plane.router_minority(plane.assigned_router(id), now) &&
          !any_unreachable) {
        continue;  // majority-homed and every copy can answer: no retry
      }
      if (visible_start) continue;  // tokens are flowing to the client
      // The retry is real client traffic, but the majority only admits it
      // if its own queues have room.
      long long maj_queued = 0;
      for (int i = 0; i < pool; ++i) {
        if (plane.replica_minority(i, now)) continue;
        maj_queued += reps[static_cast<std::size_t>(i)].queue_depth();
      }
      if (maj_queued >= cfg_.admission.queue_capacity) {
        arm_client_timer(id, now);  // keep waiting, with backoff
        continue;
      }
      const int rtr = plane.majority_survivor(now);
      if (rtr < 0) {
        arm_client_timer(id, now);  // no live majority router to retry at
        continue;
      }
      // At most one un-started duplicate in flight at a time: a later
      // patience expiry re-sends only after the previous duplicate died.
      bool dup_live = false;
      for (int r = 0; r < pool && !dup_live; ++r) {
        const Sequence* c = reps[static_cast<std::size_t>(r)].find(id);
        dup_live = c != nullptr && c->is_partition_dup;
      }
      for (const auto& p : retries) {
        dup_live = dup_live ||
                   (p.seq.request_id == id && p.seq.is_partition_dup);
      }
      if (dup_live) {
        arm_client_timer(id, now);
        continue;
      }
      Sequence copy = blank[u];
      copy.is_partition_dup = true;
      ++copies[u];
      ++rep.double_dispatches;
      rep.requests[u].double_dispatched = true;
      dup_ids.push_back(id);
      dispatch_via(rtr, std::move(copy), now);
      arm_client_timer(id, now);
    }

    // --- 3k. autoscaler tick ---
    while (cfg_.autoscaler.enabled && next_tick <= now) {
      // During a partition each side's autoscaler sees only its own queues
      // and replicas, and can only act on its own side — the decisions can
      // (and do) conflict. `side` < 0 is the unified, no-partition view.
      auto tick_side = [&](int side) {
        auto on_side = [&](int i) {
          return side < 0 ||
                 (plane.replica_minority(i, now) ? side == 1 : side == 0);
        };
        long long queued = 0;
        int n_active = 0;
        bool any_idle = false;
        for (int i = 0; i < pool; ++i) {
          const auto u = static_cast<std::size_t>(i);
          if (!on_side(i)) continue;
          queued += reps[u].queue_depth();
          if (!active[u] || draining[u]) continue;
          ++n_active;
          if (!reps[u].mid_step() && !reps[u].has_work()) any_idle = true;
        }
        const int decision = scaler.decide(queued, n_active, any_idle);
        if (decision > 0) {
          // Placement among eligible standbys (activation health-checks
          // the standby: a probe, not routing): the one whose failure
          // domain holds the fewest active replicas, so one rack or switch
          // failure takes out as little of the fleet as possible; ties, and
          // every pick without spread groups, go to the lowest index.
          int pick = -1;
          int best = pool + 1;
          for (int i = 0; i < pool; ++i) {
            const auto u = static_cast<std::size_t>(i);
            if (!on_side(i) || active[u] || in_maint[u] || !faults.up(i, now)) {
              continue;
            }
            int in_group = 0;
            if (!spread_group[u].empty()) {
              for (int j = 0; j < pool; ++j) {
                const auto v = static_cast<std::size_t>(j);
                if (active[v] && !draining[v] &&
                    spread_group[v] == spread_group[u]) {
                  ++in_group;
                }
              }
            }
            if (in_group < best) {
              best = in_group;
              pick = i;
            }
          }
          if (pick >= 0) {
            const auto u = static_cast<std::size_t>(pick);
            active[u] = true;
            if (!oracle) {
              monitor.resume(pick, now);
              next_hb[u] = now + hb_period(pick, now);
            }
            rep.scale_events.push_back(
                ScaleEvent{now, "add", pick, queued, n_active + 1});
          }
        } else if (decision < 0) {
          for (int i = pool - 1; i >= 0; --i) {
            const auto u = static_cast<std::size_t>(i);
            if (on_side(i) && active[u] && !draining[u] &&
                !reps[u].mid_step() && !reps[u].has_work()) {
              draining[u] = true;
              rep.scale_events.push_back(
                  ScaleEvent{now, "drain", i, queued, n_active - 1});
              break;
            }
          }
        }
        return decision;
      };
      if (partitions && plane.partition_at(now) != nullptr) {
        const int d_major = tick_side(0);
        const int d_minor = tick_side(1);
        if (d_major != d_minor) ++rep.autoscaler_conflicts;
      } else {
        tick_side(-1);
      }
      next_tick += cfg_.autoscaler.interval_s;
    }

    // Heal-lag bookkeeping: a heal is fully drained when no request holds
    // more than one live copy any more (fence drains at the heal edge;
    // first-commit-wins drains when the last race resolves).
    if (!pending_heals.empty()) {
      bool racing = false;
      for (int id : dup_ids) {
        const auto u = static_cast<std::size_t>(id);
        if (!done[u] && copies[u] > 1) {
          racing = true;
          break;
        }
      }
      if (!racing) {
        for (double h : pending_heals) {
          rep.partition_heal_lag_s.add(std::max(0.0, now - h));
        }
        pending_heals.clear();
      }
    }

    MIB_ENSURE(total_steps() <= max_steps,
               "fleet exceeded its step bound (livelock?)");
  }

  // A partition window can outlive the traffic: stray duplicate copies
  // still cut off on the minority side are cancelled at end of run (every
  // request is already resolved — these served nobody).
  if (partitions) {
    for (int i = 0; i < pool; ++i) {
      const auto u = static_cast<std::size_t>(i);
      for (int id : reps[u].resident_ids()) {
        MIB_ENSURE(done[static_cast<std::size_t>(id)],
                   "unresolved request still resident at end of run");
        Sequence s;
        if (!reps[u].take(id, &s)) continue;
        count_cancelled(s);
        --copies[static_cast<std::size_t>(id)];
      }
    }
  }

  // --- report assembly ---
  rep.makespan_s = now;
  double total_tokens = 0.0;
  for (const auto& rec : rep.requests) {
    if (!rec.completed()) continue;
    rep.ttft_s.add(rec.ttft());
    rep.itl_s.add(rec.itl());
    rep.e2e_s.add(rec.e2e());
    total_tokens += rec.input_tokens + rec.output_tokens;
  }
  rep.throughput_tok_s = now > 0.0 ? total_tokens / now : 0.0;
  rep.slo = summarize_slo(rep.requests, cfg_.slo, now);
  rep.circuit_events = monitor.events();
  // Correlated-failure signature: circuit opens clustered within one
  // heartbeat interval of each other.
  const auto bursts = detect_suspicion_bursts(
      rep.circuit_events, cfg_.health.heartbeat_interval_s);
  rep.suspicion_bursts = static_cast<int>(bursts.size());
  for (const auto& b : bursts) {
    rep.largest_suspicion_burst = std::max(rep.largest_suspicion_burst, b.size);
  }
  rep.warmup_recoveries = warmup_recoveries_;
  rep.view_disagreement_s = plane.disagreement_s();
  int peak = 0;
  for (int i = 0; i < pool; ++i) {
    const auto u = static_cast<std::size_t>(i);
    auto& rr = rep.replicas[u];
    rr.steps = reps[u].steps();
    rr.preemptions = reps[u].preemptions();
    rr.busy_s = reps[u].busy_s();
    rr.utilization = now > 0.0 ? rr.busy_s / now : 0.0;
    rr.prefix_lookups = reps[u].prefix_lookups();
    rr.prefix_hits = reps[u].prefix_hits();
    rep.prefix_lookups += rr.prefix_lookups;
    rep.prefix_hits += rr.prefix_hits;
    if (rr.steps > 0) ++peak;
  }
  rep.replicas_used = peak;

  // Terminal invariants: every request in exactly one bucket, no copy of
  // any request (and no KV) left anywhere in the system.
  MIB_ENSURE(rep.completed + rep.rejected + rep.expired + rep.lost ==
                 rep.submitted,
             "request conservation violated: " << rep.completed << "+"
                                               << rep.rejected << "+"
                                               << rep.expired << "+"
                                               << rep.lost
                                               << " != " << rep.submitted);
  for (int i = 0; i < pool; ++i) {
    const auto u = static_cast<std::size_t>(i);
    MIB_ENSURE(reps[u].queue_depth() == 0 && reps[u].running_count() == 0 &&
                   reps[u].kv_tokens_in_use() == 0,
               "replica " << i << " leaked work or KV past the run");
    MIB_ENSURE(stranded[u].empty(),
               "stranded work leaked on replica " << i);
  }
  MIB_ENSURE(retries.empty(), "retry queue leaked past the run");
  MIB_ENSURE(migrations.empty(), "migration queue leaked past the run");
  MIB_ENSURE(router_pending.empty(),
             "router fail-over queue leaked past the run");
  return rep;
}

}  // namespace mib::fleet
