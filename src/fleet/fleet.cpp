#include "fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "fleet/calendar.h"
#include "fleet/copy_ledger.h"

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


namespace {

/// Work parked in a WaitQueue until its wake time. `src` is the replica a
/// KV transfer ships out of (drain-fabric severing aborts in-flight
/// transfers whose source lands behind a cut); -1 for everything else. An
/// overlap-drain handoff holds a snapshot of the running sequence, taken
/// when the drain began at `since`: its KV copy completes at the wake time,
/// and the delta decoded meanwhile is re-shipped at the cutover.
struct Pending {
  Sequence seq;
  int src = -1;
  double since = 0.0;
};

/// One FleetSimulator::run: the fleet's state, the event calendar, the
/// waiting queues and the replicas' step ends that decide when the next
/// pass happens, and one handler per subsystem. Within a pass the
/// calendar's handlers run in EventKind order, and the waiting queues are
/// served between step ends and hedge triggers; the timed handlers visit
/// only the replicas their due entries name. An independent run steps its
/// replicas on their own between passes (step_window); any other run makes
/// a pass at every step end.
class FleetRun {
  using K = EventKind;

 public:
  FleetRun(const FleetSimulator& sim, const engine::LayerCostModel* cost,
           const engine::MemoryModel& mem, const DegradedCostPool& costs,
           const std::vector<FleetRequest>& trace)
      : sim_(sim),
        cost_(cost),
        degraded_costs_(costs),
        n(trace.size()),
        stripe_bytes(mem.kv_bytes_per_token_per_device() *
                     static_cast<double>(cfg_.engine.cluster.size()) /
                     static_cast<double>(cfg_.migration.stripe_links)) {
    // --- intake: validate, fold vision tokens, order by arrival ---
    blank.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& fr = trace[i];
      fr.request.validate();
      MIB_ENSURE(fr.prefix_tokens >= 0, "negative prefix length");
      Sequence s;
      s.request_id = static_cast<int>(i);
      s.arrival_s = fr.request.arrival_s;
      s.input_tokens = cost_->effective_prompt_tokens(fr.request.input_tokens,
                                                      fr.request.n_images);
      s.output_tokens = fr.request.output_tokens;
      s.prefix_hash = fr.prefix_hash;
      s.prefix_tokens = std::min(fr.prefix_tokens, s.input_tokens - 1);
      if (cfg_.admission.deadline_s > 0.0) {
        s.deadline_s = s.arrival_s + cfg_.admission.deadline_s;
      }
      MIB_ENSURE(s.input_tokens + s.output_tokens <= sim_.kv_token_capacity(),
                 "request " << i << " exceeds replica KV capacity even alone");
      blank.push_back(s);
      intake.push_back(static_cast<int>(i));
    }
    std::stable_sort(intake.begin(), intake.end(), [this](int a, int b) {
      return blank[a].arrival_s < blank[b].arrival_s;
    });

    for (int i = 0; i < pool; ++i) {
      reps.emplace_back(cost_, &book, sim_.kv_token_capacity(), cfg_.replica);
      active[i] = i < cfg_.n_replicas;
      rep.replicas[i].replica = i;
    }
    if (cfg_.autoscaler.enabled && cfg_.autoscaler.topology_aware &&
        cfg_.topology.enabled()) {
      const Topology topo(cfg_.topology, pool);
      for (int i = 0; i < pool; ++i) spread_group[i] = topo.spread_group_of(i);
    }
    rep.submitted = static_cast<long long>(n);

    // Runaway guard, scaled like the single-replica simulator plus the
    // retry budget (every retry can redo a request's full work), hedging (a
    // second copy per request) and maintenance (evacuate-and-recompute
    // redoes work once per window).
    for (const auto& s : blank) {
      max_steps += s.input_tokens + s.output_tokens + 4;
    }
    max_steps =
        std::max<long long>(max_steps, 1024) * 4 *
        (1 + cfg_.retry.max_retries) * (cfg_.hedge.enabled ? 2 : 1) *
        (partitions
             ? 1 + std::max(1, cfg_.control.partition.max_client_retries) +
                   static_cast<long long>(plane.partition_cuts())
             : 1) *
        (1 + static_cast<long long>(cfg_.maintenance.size()));

    // Schedule edges are compiled up front. An edge at t = 0 wakes
    // nothing: the first pass diffs every replica against the neutral
    // state instead (see advance_clock).
    auto compile = [this](const auto& windows, K kind) {
      for (const auto& [t, target] : window_edges(windows)) {
        if (t > 0.0) cal.push(t, kind, target);
      }
    };
    compile(faults.windows(), K::kFaultEdge);
    compile(maint.windows(), K::kMaintenanceEdge);
    compile(degr.windows(), K::kScaleEdge);
    compile(warm.windows(), K::kScaleEdge);
    compile(cfg_.control.router_faults, K::kPlaneEdge);
    for (double t : plane.partition_edges()) {
      if (t > 0.0) cal.push(t, K::kPlaneEdge);
    }
    for (int r = 0; r < plane.routers(); ++r) {
      const double t = plane.sync_deadline(r);
      if (std::isfinite(t)) cal.push(t, K::kViewSync, r);
    }
    if (cfg_.autoscaler.enabled) cal.push(next_tick, K::kAutoscale);
    for (int i = 0; !oracle && i < cfg_.n_replicas; ++i) resume(i);
  }

  FleetReport run() {
    while (ledger.resolved_total() < n) {
      kick_idle();
      if (independent && !first_pass) step_window();
      if (ledger.resolved_total() >= n) break;
      advance_clock();
      full_pass();
      settle_heals();
      MIB_ENSURE(steps_begun <= max_steps,
                 "fleet exceeded its step bound (livelock?)");
      first_pass = false;
    }
    finish();
    return std::move(rep);
  }

 private:
  // --- calendar and waiting queues ---

  bool live(const Event& e) const {
    return e.kind != K::kBreaker || monitor.deadline(e.target) == e.time;
  }

  /// Due targets of one kind in this pass.
  std::vector<int>& due(K kind) { return due_[static_cast<std::size_t>(kind)]; }

  void mark_due(K kind, int target) {
    auto& d = due(kind);
    if (d.empty()) filled_.push_back(kind);
    d.push_back(target);
  }

  bool is_due(K kind) const {
    return !due_[static_cast<std::size_t>(kind)].empty();
  }

  static void park(WaitQueue<Pending>& queue, double wake, Sequence seq,
                   int src = -1, double since = 0.0) {
    const int id = seq.request_id;
    queue.park(wake, id, Pending{std::move(seq), src, since});
  }

  void arm_breaker(int i) {
    const double t = monitor.deadline(i);
    if (std::isfinite(t)) cal.push(t, K::kBreaker, i);
  }

  // A suspended replica emits no heartbeats and has no breaker deadline.
  void suspend(int i) {
    monitor.suspend(i);
    cal.cancel(K::kHeartbeat, i);
  }

  void resume(int i) {
    monitor.resume(i, now);
    cal.push(now + hb_period(i, now), K::kHeartbeat, i);
    arm_breaker(i);
  }

  // --- 1. kick every in-service replica that is idle but has work ---
  void kick_idle() {
    std::sort(kick_.begin(), kick_.end());
    kick_.erase(std::unique(kick_.begin(), kick_.end()), kick_.end());
    for (int i : kick_) kick(i);
    kick_.clear();
  }

  void kick(int i) {
    // A replica in maintenance normally sits dark — unless its overlap
    // drain is still running, in which case it keeps decoding its running
    // batch while the KV copies out behind it.
    Replica& r = reps[i];
    if (!active[i] || (in_maint[i] && !overlap_drain[i]) ||
        !faults.up(i, now) || r.mid_step()) {
      return;
    }
    for (auto& s : r.drop_expired(now)) {
      if (ledger.redundant(s.request_id)) {
        ledger.retire(s, Retire::kDuplicate);
      } else {
        ledger.resolve_with(s, RequestStatus::kExpired);
      }
    }
    if (r.has_work()) {
      r.begin_step(now);
      ++steps_begun;
    }
  }

  // --- 1'. an independent run steps each replica on its own up to the
  // next fleet event ---
  // Here a step end touches only its own replica and the ledger and report
  // rows of the requests it completes, so replica-major order equals time
  // order: the window runs, one replica after another, every step end the
  // loop would have given a pass of its own. A step end tied with the next
  // fleet event waits for that event's full pass.
  void step_window() {
    const double t_other = next_fleet_event();
    double last = now;
    for (int i = 0; i < pool; ++i) {
      Replica& r = reps[i];
      while (r.mid_step() && r.step_end_s() < t_other) {
        now = r.step_end_s();
        last = std::max(last, now);
        end_step(i);
        kick(i);
        MIB_ENSURE(steps_begun <= max_steps,
                   "fleet exceeded its step bound (livelock?)");
      }
    }
    // The time of the last pass the per-pass loop would have made.
    now = last;
  }

  /// The earliest live calendar entry, arrival or waiting-queue entry:
  /// everything that wakes the loop except a step end.
  double next_fleet_event() {
    double t = cal.next([this](const Event& e) { return live(e); });
    if (next_arrival < n) {
      t = std::min(t, blank[intake[next_arrival]].arrival_s);
    }
    for (const auto* q : {&handoffs, &migrations, &retries, &router_pending}) {
      t = std::min(t, q->next());
    }
    return t;
  }

  /// Nothing could still resolve a request: no arrival is left, no copy
  /// sits on a replica, in a waiting queue or in a stranded list, and no
  /// hedge trigger or client patience is pending. The caller has found no
  /// replica mid-step.
  bool stalled() const {
    if (next_arrival < n) return false;
    for (const auto& r : reps) {
      if (r.has_work()) return false;
    }
    for (const auto* q : {&handoffs, &migrations, &retries, &router_pending}) {
      if (!q->empty()) return false;
    }
    for (const auto& list : stranded) {
      if (!list.empty()) return false;
    }
    return std::isinf(cal.earliest([](const Event& e) {
      return e.kind == K::kHedge || e.kind == K::kClientRetry;
    }));
  }

  // --- 2. next pass: the earliest step end, calendar entry, arrival or
  // waiting-queue entry ---
  void advance_clock() {
    // One scan of the replicas finds the earliest step end and the
    // replicas it falls on, in index order.
    double t_step = kInf;
    ending_.clear();
    for (int i = 0; i < pool; ++i) {
      const Replica& r = reps[i];
      if (!r.mid_step() || r.step_end_s() > t_step) continue;
      if (r.step_end_s() < t_step) {
        t_step = r.step_end_s();
        ending_.clear();
      }
      ending_.push_back(i);
    }
    // Heartbeats re-arm forever, so a run that lost its last copies would
    // otherwise pass on them without end.
    MIB_ENSURE(std::isfinite(t_step) || !stalled(),
               "fleet stalled: " << n - ledger.resolved_total()
                                 << " requests unresolved with no copy left");
    const double t_next = std::min(t_step, next_fleet_event());
    MIB_ENSURE(std::isfinite(t_next), "fleet event loop stalled");
    MIB_ENSURE(t_next >= now - 1e-12, "fleet simulation time went backwards");
    prev_pass = now;
    now = std::max(now, t_next);
    // Charge the elapsed slice to the view-disagreement clock while any
    // two routers held different breaker snapshots.
    plane.accumulate_disagreement(prev_pass, now);

    for (K k : filled_) due(k).clear();
    filled_.clear();
    cal.pop_due(now, [this](const Event& e) { mark_due(e.kind, e.target); });
    for (int i = 0; first_pass && i < pool; ++i) {
      // Before the first pass every replica is up, in service and at full
      // speed; the first pass diffs each one against that.
      for (K k : {K::kScaleEdge, K::kMaintenanceEdge, K::kFaultEdge}) {
        mark_due(k, i);
      }
    }
    for (K k : filled_) {
      auto& d = due(k);
      std::sort(d.begin(), d.end());
      d.erase(std::unique(d.begin(), d.end()), d.end());
    }
    if (t_step <= now) {
      // The scan found them in index order already.
      filled_.push_back(K::kStepEnd);
      due(K::kStepEnd).swap(ending_);
    }
  }

  // --- 3. the pass: each handler runs when its kind or its waiting queue's
  // head is due, in handler order ---
  void full_pass() {
    if (is_due(K::kHeartbeat)) on_heartbeats();
    if (is_due(K::kScaleEdge)) on_scale_edges();
    if (is_due(K::kMaintenanceEdge)) on_maintenance_edges();
    if (is_due(K::kFaultEdge)) on_fault_edges();
    if (is_due(K::kBreaker)) on_breakers();
    sync_views();
    if (is_due(K::kPlaneEdge)) on_partition_edge();
    if (is_due(K::kStepEnd)) on_step_ends();
    if (handoffs.next() <= now) on_handoffs();
    if (migrations.next() <= now) {
      for (auto& p : migrations.take_due(now)) dispatch(std::move(p.seq));
    }
    on_arrivals();
    if (retries.next() <= now) {
      for (auto& p : retries.take_due(now)) dispatch(std::move(p.seq));
    }
    if (router_pending.next() <= now) on_router_failovers();
    if (is_due(K::kHedge)) on_hedges();
    if (is_due(K::kClientRetry)) on_client_retries();
    if (is_due(K::kAutoscale)) on_autoscaler();
  }

  // --- 3a. heartbeats emitted now (monitor mode) ---
  void on_heartbeats() {
    for (int i : due(K::kHeartbeat)) {
      // A minority replica's heartbeats cannot cross a full cut: the
      // (majority-side) monitor will suspect it and open its breaker even
      // though it is up and serving its own side. An asymmetric cut with
      // the minority->majority direction open still delivers them — the
      // gray failure where the node looks healthy while its replies are
      // lost.
      if (active[i] && !in_maint[i] && faults.up(i, now) &&
          plane.heartbeat_crosses(i, now)) {
        monitor.on_heartbeat(i, now);
        arm_breaker(i);
      }
      cal.push(now + hb_period(i, now), K::kHeartbeat, i);
    }
  }

  // --- 3b. degradation / warm-up edges: reprice replicas ---
  void on_scale_edges() {
    for (int i : due(K::kScaleEdge)) {
      reps[i].set_cost_model(degraded_costs_.at(scale_at(i, now)));
    }
  }

  // --- 3c. maintenance edges: drain (migrate or recompute) ---
  void on_maintenance_edges() {
    for (int i : due(K::kMaintenanceEdge)) {
      const bool maint_now = !maint.up(i, now);
      if (maint_now == in_maint[i]) continue;
      in_maint[i] = maint_now;
      kick_.push_back(i);
      // A severed drain fabric (the source behind a cut with
      // sever_drain_fabric set) cannot ship KV at all: every drain on
      // this replica falls back to evacuate-and-recompute.
      const bool severed = !plane.drain_reachable(i, now);
      double cursor = now;  // transfers serialize on the striped fabric
      // Ship one frozen sequence's KV to a peer, or recompute it: nothing
      // resident to move (still queued), recompute mode, or a severed
      // fabric (counted as an aborted migration). A stray has nowhere to
      // go and is cancelled here.
      auto drain_one = [&](Sequence s) {
        if (ledger.resolved(s.request_id)) {
          ledger.retire(s, Retire::kCancelled);
        } else if (!cfg_.migration.migrate_kv || s.kv_tokens() == 0) {
          recompute(std::move(s));
        } else if (severed) {
          ++rep.migration_aborts;
          recompute(std::move(s));
        } else {
          cursor += ship_s(s.kv_tokens());
          migrate(std::move(s), i, now, cursor);
        }
      };
      if (maint_now) {
        if (!oracle) suspend(i);
        if (!active[i]) continue;
        const bool overlap = cfg_.migration.overlap_decode &&
                             cfg_.migration.migrate_kv && !severed &&
                             reps[i].running_count() > 0;
        if (overlap) {
          // Overlap drain: queued work re-enters elsewhere right away; the
          // running batch keeps decoding on the source while its KV
          // snapshots copy out behind it (handoffs fire at each copy's
          // completion and re-ship only the delta decoded meanwhile).
          for (auto& s : reps[i].take_waiting()) drain_one(std::move(s));
          // Running strays are cancelled before any snapshot ships.
          for (int id : reps[i].resident_ids()) {
            Sequence s;
            if (ledger.resolved(id) && reps[i].take(id, &s)) {
              drain_one(std::move(s));
            }
          }
          overlap_drain[i] = true;
          for (const auto& s : reps[i].running()) {
            cursor += ship_s(s.kv_tokens());
            park(handoffs, cursor, s, i, now);
          }
        } else {
          for (auto& s : reps[i].take_all()) drain_one(std::move(s));
        }
      } else {
        if (overlap_drain[i]) {
          // The reboot cannot wait for the copy any longer: cancel the
          // in-flight snapshots, freeze what is still on the source, and
          // ship it cold from here.
          overlap_drain[i] = false;
          handoffs.erase_if([i](const Pending& h) { return h.src == i; });
          for (auto& s : reps[i].take_all()) drain_one(std::move(s));
        }
        if (!oracle && active[i]) resume(i);
      }
    }
  }

  // --- 3d. fault edges ---
  void on_fault_edges() {
    for (int i : due(K::kFaultEdge)) {
      // Every edge is a pass, so the state at the previous pass is the
      // state just before this one.
      const bool was_up = first_pass || faults.up(i, prev_pass);
      const bool up_now = faults.up(i, now);
      kick_.push_back(i);
      if (was_up && !up_now && active[i]) {
        if (oracle) {
          // Legacy: the front-end knows instantly, work retries at once.
          release_failed(i);
        } else {
          // Crash: progress is gone, but nobody knows yet. Work strands
          // until the breaker opens or the restart is observed.
          for (auto& s : reps[i].evacuate()) stranded[i].push_back(s);
          if (monitor.state(i) == CircuitState::kClosed) {
            fault_started_at[i] = now;
          } else {
            // The breaker was already open (e.g. a brownout false
            // positive) — the front-end already routes around it.
            release_failed(i);
          }
        }
      }
      if (!was_up && up_now && !oracle) {
        // Restart observed: stale connections error out, anything still
        // addressed to the old process retries now even if the breaker
        // never opened (a blip shorter than detection).
        mark_detected(i);
        release_failed(i);
      }
    }
  }

  // --- 3e. failure detection: breaker deadlines due now ---
  void on_breakers() {
    for (int i : due(K::kBreaker)) {
      const bool up = faults.up(i, now);
      const bool opened = monitor.advance(i, now, up);
      arm_breaker(i);
      if (!opened) continue;
      ++rep.circuit_opens;
      if (up) {
        // Slow, not dead: stop routing to it, let its work finish.
        ++rep.false_circuit_opens;
      } else {
        mark_detected(i);
        release_failed(i);
      }
    }
  }

  // --- 3e'. routers whose sync deadline passed refresh their views ---
  // With partitions configured, views refresh every pass (so a minority
  // router freezes exactly the pre-cut live state); sync() itself skips
  // frozen routers.
  void sync_views() {
    if (!plane.stale_views() && !partitions) return;
    plane.sync(
        now, [this](int i) { return live_routable(i); },
        [this](int r, double t) { cal.push(t, K::kViewSync, r); });
  }

  // --- 3e''. partition edges: heal the split brain ---
  // Every cut and heal edge after t = 0 is a kPlaneEdge entry, so the cut
  // can change only on a pass where one is due.
  void on_partition_edge() {
    const PartitionWindow* cur = plane.partition_at(now);
    if (cur == active_part) return;
    if (active_part != nullptr) {
      // The partition healed: resolve the divergence. Stray copies of
      // already-committed requests are cancelled under either policy
      // (their KV freed); still-racing duplicates are fenced off the
      // minority side under kFenceMinority, or left to race under
      // kFirstCommitWins.
      const bool fence =
          cfg_.control.partition.heal == HealPolicy::kFenceMinority;
      for (int i : active_part->minority_replicas) {
        for (int id : reps[i].resident_ids()) {
          if (!ledger.resolved(id) && !(fence && ledger.copies(id) > 1)) {
            continue;
          }
          Sequence s;
          if (!reps[i].take(id, &s)) continue;
          kick_.push_back(i);
          ledger.retire(s, Retire::kFenced);  // a stray is cancelled
        }
      }
      pending_heals.push_back(now);
      ++rep.partition_flaps;
    }
    active_part = cur;
    if (cur == nullptr || !cfg_.control.partition.sever_drain_fabric) return;
    // The new cut severs the drain fabric: KV transfers out of a
    // now-isolated source abort mid-stripe and fall back to
    // evacuate-and-recompute — the shipped bytes are wasted and the
    // sequence re-prefills from scratch on the other side.
    // An overlap handoff's sequence is still on its source; it aborts only
    // if it has not left there meanwhile.
    auto abort_severed = [&](WaitQueue<Pending>& queue, bool on_source) {
      queue.erase_if([&](Pending& p) {
        if (p.src < 0 || plane.drain_reachable(p.src, now)) return false;
        Sequence s = std::move(p.seq);
        if (on_source) kick_.push_back(p.src);
        if (!on_source || reps[p.src].take(s.request_id, &s)) {
          ++rep.migration_aborts;
          recompute(std::move(s));
        }
        return true;
      });
    };
    abort_severed(migrations, false);
    abort_severed(handoffs, true);
  }

  // --- 3f. step completions (first finished copy wins) ---
  void on_step_ends() {
    for (int i : due(K::kStepEnd)) {
      if (!reps[i].mid_step() || reps[i].step_end_s() > now) continue;
      kick_.push_back(i);
      end_step(i);
    }
  }

  void end_step(int i) {
    Replica& r = reps[i];
    const double finish = r.step_end_s();
    for (auto& s : r.complete_step()) {
      const int id = s.request_id;
      if (ledger.resolved(id)) {
        // Both copies finished in the very same step (possibly on the
        // same replica) — the winner already resolved it; this one is a
        // photo-finish loser, cancelled at the completion boundary.
        ledger.retire(s, Retire::kCancelled);
        continue;
      }
      if (s.via_router >= 0 && !plane.reply_reachable(i, s.via_router, now)) {
        // Orphaned decode: the copy finished behind an asymmetric cut
        // and its completion cannot reach the side that dispatched it.
        // The replica's work is gone; the client is still waiting.
        ledger.retire(s, Retire::kOrphaned);
        if (ledger.copies(id) == 0 && !ledger.patience_pending(id) &&
            !arm_client_timer(id)) {
          // No copy left anywhere and the client's patience budget is
          // spent: the request is lost with its answer on the wire.
          ledger.resolve(s, RequestStatus::kLost);
        }
        continue;
      }
      auto& rec = rep.requests[id];
      ledger.resolve_with(s, RequestStatus::kCompleted);
      rec.first_token_s = s.first_token_s;
      rec.finish_s = finish;
      rec.replica = i;
      rec.prefix_hit = s.prefix_hit;
      rec.won_by_hedge = s.is_hedge;
      if (s.is_hedge) ++rep.hedges_won;
      cancel_other_copies(id);
      hedge.observe_ttft(rec.ttft());
      auto& rr = rep.replicas[i];
      ++rr.completed;
      rr.ttft_s.add(rec.ttft());
      rr.itl_s.add(rec.itl());
      rr.e2e_s.add(rec.e2e());
    }
  }

  // --- 3g0. overlap-drain cutovers: snapshot copy done, ship the delta ---
  void on_handoffs() {
    for (auto& h : handoffs.take_due(now)) {
      kick_.push_back(h.src);
      Sequence s;
      // The sequence may have finished on the source meanwhile (the best
      // outcome), crashed off it, or been cancelled as a hedge loser.
      if (!reps[h.src].take(h.seq.request_id, &s)) continue;
      if (ledger.resolved(s.request_id)) {
        ledger.retire(s, Retire::kCancelled);  // a stray meets its cutover
        continue;
      }
      if (s.kv_tokens() == 0) {
        // Preempted back to zero during the copy: nothing to cut over, the
        // snapshot transfer was wasted — recompute elsewhere.
        ++rep.drain_evacuations;
        recompute(std::move(s));
        continue;
      }
      const long long delta =
          std::max<long long>(0, s.kv_tokens() - h.seq.kv_tokens());
      rep.overlap_decode_tokens += delta;
      const double ready =
          now + migration_link.p2p(static_cast<double>(delta) * stripe_bytes);
      migrate(std::move(s), h.src, h.since, ready);
    }
  }
  // 3g (finished KV migrations re-enter service) and 3i (due retries,
  // already admitted) are one take_due each in run().

  // --- 3h. fresh arrivals (bounded-queue admission, then routing) ---
  void on_arrivals() {
    while (next_arrival < n && blank[intake[next_arrival]].arrival_s <= now) {
      Sequence s = blank[intake[next_arrival++]];
      if (cfg_.hedge.enabled &&
          queued_total() >= cfg_.admission.queue_capacity) {
        // Queue full: shed waiting hedge copies before rejecting a
        // primary — insurance yields to real work.
        for (int r = 0;
             r < pool && queued_total() >= cfg_.admission.queue_capacity;
             ++r) {
          for (int hid : reps[r].waiting_hedges()) {
            // A hedge whose primary already expired or died carries the
            // request alone now — shedding it would leak the request.
            Sequence shed;
            if (ledger.copies(hid) <= 1 || !reps[r].take(hid, &shed)) {
              continue;
            }
            kick_.push_back(r);
            ledger.retire(shed, Retire::kShed);
            if (queued_total() < cfg_.admission.queue_capacity) break;
          }
        }
      }
      if (queued_total() >= cfg_.admission.queue_capacity) {
        ledger.resolve(s, RequestStatus::kRejected);
        continue;
      }
      ledger.spawn(s.request_id, Spawn::kArrival);
      const double trigger = hedge.trigger_delay();
      if (std::isfinite(trigger)) {
        cal.push(now + trigger, K::kHedge, s.request_id);
      }
      dispatch(std::move(s));
    }
  }

  // --- 3i'. requests stranded at a dead router fail over ---
  void on_router_failovers() {
    for (auto& p : router_pending.take_due(now)) {
      // The lowest live router that is still admitting (not fenced).
      const int rtr = plane.survivor(now);
      if (rtr < 0) {
        // The whole front end is dark (or fenced): wait for a router to
        // return or a partition edge to lift the fence.
        const double wake = cal.earliest([](const Event& e) {
          return e.kind == K::kPlaneEdge;
        });
        MIB_ENSURE(std::isfinite(wake),
                   "every router dark with no recovery scheduled");
        park(router_pending, wake, std::move(p.seq));
        continue;
      }
      dispatch_via(rtr, std::move(p.seq));
    }
  }

  // --- 3j. hedge triggers: re-issue stragglers to a second replica ---
  void on_hedges() {
    for (int id : due(K::kHedge)) {
      if (ledger.resolved(id)) continue;
      // One scan per replica answers both "has a copy started" and "does
      // this replica hold a copy".
      bool started = false;
      for (int r = 0; r < pool && !started; ++r) {
        const Sequence* c = reps[r].find(id);
        holds[r] = c != nullptr;
        started = c != nullptr && c->first_token_s >= 0.0;
      }
      if (started) continue;  // first token is out, nothing to hedge
      if (cfg_.hedge.max_utilization < 1.0) {
        // Utilization gate: hedging into a saturated fleet adds load
        // exactly when there is no slack to absorb it and makes the tail
        // worse, not better. Gate on the busy fraction of in-service
        // replicas.
        int in_service = 0;
        int busy = 0;
        for (int r = 0; r < pool; ++r) {
          if (!active[r] || in_maint[r]) continue;
          ++in_service;
          if (reps[r].mid_step() || reps[r].has_work()) ++busy;
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
      if (plane.partition_at(now) != nullptr) {
        rtr = plane.majority_survivor(now);
      }
      if (rtr < 0) continue;  // whole front end dark: no hedge
      auto up = routable_for(rtr);
      // Never double up on a replica already holding a copy.
      up.erase(std::remove_if(up.begin(), up.end(),
                              [&](int r) { return holds[r]; }),
               up.end());
      if (up.empty()) continue;
      Sequence copy = blank[id];
      copy.is_hedge = true;
      const int idx = plane.router(rtr).route(copy, reps, up);
      if (!live_routable(idx)) {
        MIB_ENSURE(plane.stale_views(),
                   "dispatch to a replica with an open circuit");
        ++rep.stale_dispatches;
        // The hedge copy died on the wire against a dead node; the
        // original carries the request alone.
        if (!faults.up(idx, now)) continue;
      }
      ledger.spawn(id, Spawn::kHedge);
      copy.via_router = rtr;
      enqueue(idx, copy);
    }
  }

  // --- 3j'. client retries against the majority: double dispatch ---
  // A minority-homed request whose first token has not arrived within the
  // client's patience is re-submitted, and the majority side — which
  // cannot see the minority's copy — admits it again. Both sides now burn
  // capacity on the same request; goodput will count it once. Patience
  // that expires at one instant is served in request-id order.
  void on_client_retries() {
    for (int id : due(K::kClientRetry)) {
      ledger.clear_patience(id);
      if (ledger.resolved(id)) continue;
      if (ledger.copies(id) == 0) {
        // Every copy of this request evaporated — orphaned behind an
        // asymmetric cut with no retry pending. The client's patience
        // expired with nothing in flight: re-send from scratch. This is a
        // fresh dispatch (it re-enters at the home router), not a
        // split-brain duplicate.
        ledger.spawn(id, Spawn::kResend);
        dispatch(blank[id]);
        continue;
      }
      if (plane.partition_at(now) == nullptr) continue;  // healed in time
      // A copy whose replies cannot cross back to the side that dispatched
      // it is invisible to the client even after its first token. The
      // retry is real client traffic, but the majority only admits it if
      // its own queues have room. At most one un-started duplicate is in
      // flight at a time: a later patience expiry re-sends only after the
      // previous duplicate died.
      bool visible_start = false;
      bool any_unreachable = false;
      bool dup_live = false;
      long long maj_queued = 0;
      for (int r = 0; r < pool; ++r) {
        if (!plane.replica_minority(r, now)) {
          maj_queued += reps[r].queue_depth();
        }
        const Sequence* c = reps[r].find(id);
        if (c == nullptr) continue;
        dup_live = dup_live || c->is_partition_dup;
        if (c->via_router >= 0 &&
            !plane.reply_reachable(r, c->via_router, now)) {
          any_unreachable = true;
        } else if (c->first_token_s >= 0.0) {
          visible_start = true;
        }
      }
      if (!plane.router_minority(plane.assigned_router(id), now) &&
          !any_unreachable) {
        continue;  // majority-homed and every copy can answer: no retry
      }
      if (visible_start) continue;  // tokens are flowing to the client
      const int rtr = plane.majority_survivor(now);
      dup_live = dup_live || retries.any([id](const Pending& p) {
                   return p.seq.request_id == id && p.seq.is_partition_dup;
                 });
      // Keep waiting, with backoff, while the majority's queues are full,
      // no live majority router can take the retry, or a duplicate is
      // already in flight.
      if (maj_queued >= cfg_.admission.queue_capacity || rtr < 0 || dup_live) {
        arm_client_timer(id);
        continue;
      }
      Sequence copy = blank[id];
      copy.is_partition_dup = true;
      ledger.spawn(id, Spawn::kPartitionDup);
      dispatch_via(rtr, std::move(copy));
      arm_client_timer(id);
    }
  }

  // --- 3k. autoscaler tick ---
  void on_autoscaler() {
    if (plane.partition_at(now) != nullptr) {
      const int d_major = tick_side(0);
      const int d_minor = tick_side(1);
      if (d_major != d_minor) ++rep.autoscaler_conflicts;
    } else {
      tick_side(-1);
    }
    next_tick += cfg_.autoscaler.interval_s;
    cal.push(next_tick, K::kAutoscale);
  }

  // During a partition each side's autoscaler sees only its own queues and
  // replicas, and can only act on its own side — the decisions can (and
  // do) conflict. `side` < 0 is the unified, no-partition view.
  int tick_side(int side) {
    auto on_side = [&](int i) {
      return side < 0 ||
             (plane.replica_minority(i, now) ? side == 1 : side == 0);
    };
    long long queued = 0;
    int n_active = 0;
    bool any_idle = false;
    for (int i = 0; i < pool; ++i) {
      if (!on_side(i)) continue;
      queued += reps[i].queue_depth();
      if (!active[i]) continue;
      ++n_active;
      if (!reps[i].mid_step() && !reps[i].has_work()) any_idle = true;
    }
    const int decision = scaler.decide(queued, n_active, any_idle);
    if (decision > 0) {
      // Placement among eligible standbys (activation health-checks the
      // standby: a probe, not routing): the one whose failure domain holds
      // the fewest active replicas, so one rack or switch failure takes
      // out as little of the fleet as possible; ties, and every pick
      // without spread groups, go to the lowest index.
      int pick = -1;
      int best = pool + 1;
      for (int i = 0; i < pool; ++i) {
        if (!on_side(i) || active[i] || in_maint[i] || !faults.up(i, now)) {
          continue;
        }
        int in_group = 0;
        for (int j = 0; !spread_group[i].empty() && j < pool; ++j) {
          if (active[j] && spread_group[j] == spread_group[i]) {
            ++in_group;
          }
        }
        if (in_group < best) {
          best = in_group;
          pick = i;
        }
      }
      if (pick >= 0) {
        active[pick] = true;
        kick_.push_back(pick);
        if (!oracle) resume(pick);
        rep.scale_events.push_back(
            ScaleEvent{now, "add", pick, queued, n_active + 1});
      }
    } else if (decision < 0) {
      for (int i = pool - 1; i >= 0; --i) {
        if (on_side(i) && active[i] && !reps[i].mid_step() &&
            !reps[i].has_work()) {
          // An idle replica leaves service at the tick: it has nothing in
          // flight, and nothing routes to it before it is gone.
          active[i] = false;
          if (!oracle) suspend(i);
          rep.scale_events.push_back(
              ScaleEvent{now, "drain", i, queued, n_active - 1});
          break;
        }
      }
    }
    return decision;
  }

  // Heal-lag bookkeeping: a heal is fully drained when no request holds
  // more than one live copy any more (fence drains at the heal edge;
  // first-commit-wins drains when the last race resolves).
  void settle_heals() {
    if (pending_heals.empty() || ledger.racing()) return;
    for (double h : pending_heals) {
      rep.partition_heal_lag_s.add(std::max(0.0, now - h));
    }
    pending_heals.clear();
  }

  // --- helpers shared by the handlers ---

  /// Effective scale right now: scheduled brownout x post-recovery warm-up.
  PerfScale scale_at(int i, double t) const {
    return compose(degr.at(i, t), warm.at(i, t));
  }

  double hb_period(int i, double t) const {
    // A degraded replica services its control plane late in proportion to
    // its worst-hit resource.
    return cfg_.health.heartbeat_interval_s / scale_at(i, t).worst();
  }

  // The front end's ground-truth knowledge of a replica: the breaker state
  // when detection is on, the fault schedule itself in legacy oracle mode.
  bool live_routable(int i) const {
    return oracle ? faults.up(i, now) : monitor.routable(i);
  }

  // What router `rtr` believes is routable: its (possibly stale) breaker
  // view when views age independently, the live truth otherwise. A
  // partitioned minority router routes on the view frozen at the cut and
  // can only reach replicas on its own side. The active and maintenance
  // gates are front-end-initiated state every router knows instantly.
  std::vector<int> routable_for(int rtr) const {
    std::vector<int> up;
    const bool frozen = plane.frozen_view(rtr, now);
    for (int i = 0; i < pool; ++i) {
      if (!active[i] || in_maint[i]) continue;
      if (!plane.reachable(rtr, i, now)) continue;
      const bool ok = (plane.stale_views() || frozen) ? plane.view_ok(rtr, i)
                                                      : live_routable(i);
      if (ok) up.push_back(i);
    }
    return up;
  }

  long long queued_total() const {
    long long q = 0;
    for (const auto& r : reps) q += r.queue_depth();
    return q;
  }

  // Arm (or re-arm) the client's patience timer for `id` now. Attempt k
  // fires after client_retry_s * retry_multiplier^(k-1), shrunk by full
  // jitter when retry_jitter > 0; the jitter key is a distinct salt from
  // the server-side retry stream so the two schedules never correlate.
  // Returns false when an attempt is already pending or the client's retry
  // budget is spent. The defaults (multiplier 1, jitter 0, one attempt)
  // are a single fixed patience.
  bool arm_client_timer(int id) {
    const auto& pc = cfg_.control.partition;
    if (ledger.patience_pending(id) ||
        client_attempts[id] >= pc.max_client_retries) {
      return false;
    }
    const int attempt = ++client_attempts[id];
    ledger.arm_patience(id);
    double delay = pc.client_retry_s;
    for (int k = 1; k < attempt; ++k) delay *= pc.retry_multiplier;
    if (pc.retry_jitter > 0.0) {
      const std::uint64_t key =
          mix(cfg_.seed ^ 0xC11E27ull,
              mix(static_cast<std::uint64_t>(id),
                  static_cast<std::uint64_t>(attempt)));
      delay *= 1.0 - pc.retry_jitter * jitter_uniform(key);
    }
    cal.push(now + delay, K::kClientRetry, id);
    return true;
  }

  void enqueue(int idx, const Sequence& seq) {
    reps[idx].enqueue(seq);
    kick_.push_back(idx);
  }

  void dispatch_via(int rtr, Sequence seq) {
    const auto up = routable_for(rtr);
    if (up.empty()) {
      // Whole fleet dark as far as this router knows: park until
      // something can change that — a fault edge (oracle mode or a
      // restart), a breaker deadline, a maintenance edge, a view sync, a
      // router recovery, a partition edge (a minority router with no
      // same-side replica parks exactly until the heal), or the next
      // autoscaler tick.
      double wake = cal.earliest([this](const Event& e) {
        return e.kind == K::kBreaker ? live(e)
                                     : e.kind == K::kFaultEdge ||
                                           e.kind == K::kMaintenanceEdge ||
                                           e.kind == K::kViewSync ||
                                           e.kind == K::kPlaneEdge;
      });
      if (cfg_.autoscaler.enabled) {
        wake = std::min(wake, next_tick > now
                                  ? next_tick
                                  : next_tick + cfg_.autoscaler.interval_s);
      }
      MIB_ENSURE(std::isfinite(wake),
                 "no replica in service and none scheduled to recover");
      MIB_ENSURE(wake > now, "fleet parked without a future wake event");
      park(retries, wake, seq);
      return;
    }
    const int idx = plane.router(rtr).route(seq, reps, up);
    if (!live_routable(idx)) {
      // Only a stale breaker view — aged out under staggered syncs or
      // frozen on the minority side of a partition — can pick a replica
      // the live state has already fenced off.
      MIB_ENSURE(plane.stale_views() || plane.frozen_view(rtr, now),
                 "dispatch to a replica with an open circuit");
      ++rep.stale_dispatches;
      if (!faults.up(idx, now)) {
        // Connection refused by a dead node: the client times out after
        // the usual detection lag, then re-enters at its home router
        // (whose view has had time to catch up).
        park(retries, now + cfg_.control.failover_detection_s, seq);
        return;
      }
      // Breaker open but the node is alive (a false-positive open): the
      // stale dispatch lands and is simply served.
    }
    if (!plane.reply_reachable(idx, rtr, now)) {
      // Cross-cut dispatch over an asymmetric link: the copy can decode to
      // completion without the dispatching side ever hearing back.
      // Patience must be ticking or the request would leak with its
      // orphan.
      arm_client_timer(seq.request_id);
    }
    seq.via_router = rtr;
    enqueue(idx, seq);
  }

  void dispatch(Sequence seq) {
    const int home = plane.assigned_router(seq.request_id);
    if (seq.is_partition_dup) {
      // The duplicate is the client's majority-side retry: while the
      // partition holds it re-enters at a majority router, never back at
      // its cut-off home.
      if (plane.partition_at(now) != nullptr) {
        const int rtr = plane.majority_survivor(now);
        if (rtr >= 0) {
          dispatch_via(rtr, std::move(seq));
          return;
        }
        // No live majority router: fall through to the home-router
        // stranding machinery below.
      }
    } else if (plane.router_fenced(home, now)) {
      // Quorum self-fencing: the minority home router knows it lost the
      // router majority and refuses the dispatch outright, so the client
      // re-homes to the majority survivor instead of burning patience
      // against a side that will not answer.
      ++rep.quorum_fenced;
      rep.requests[seq.request_id].quorum_rehomed = true;
      const int rtr = plane.majority_survivor(now);
      if (rtr >= 0) {
        dispatch_via(rtr, std::move(seq));
        return;
      }
      // No live majority router either: strand client-side until the
      // fail-over lag passes (3i' re-checks fencing on re-entry).
      park(router_pending, now + cfg_.control.failover_detection_s, seq);
      return;
    } else if (plane.router_minority(home, now)) {
      // Minority-homed dispatch during a partition: the client's retry
      // patience starts ticking toward a majority-side double dispatch.
      arm_client_timer(seq.request_id);
    }
    if (!plane.router_up(home, now)) {
      // Home router dead: the request strands client-side until the
      // fail-over timeout fires, then re-enters at a survivor.
      ++rep.router_stranded;
      rep.requests[seq.request_id].router_failover = true;
      park(router_pending, now + cfg_.control.failover_detection_s, seq);
      return;
    }
    dispatch_via(home, std::move(seq));
  }

  // A copy of `id` resolved; remove every other live copy (hedge losers,
  // parked retries, stranded or migrating duplicates) and free their KV.
  // The winner's own replica is scanned too: a retried original and its
  // hedge can land on the same replica, and the winning copy is already
  // out of the running set by the time this runs.
  void cancel_other_copies(int id) {
    if (ledger.copies(id) == 0) return;
    for (int r = 0; r < pool; ++r) {
      // A cancel cannot cross an active partition unless the cut leaves
      // the majority->minority direction open: a stray copy behind a full
      // cut keeps burning until the heal fences it (or until it completes
      // as a photo-finish loser).
      if (!plane.cancel_reachable(r, now)) continue;
      Sequence s;
      while (ledger.copies(id) > 0 && reps[r].take(id, &s)) {
        kick_.push_back(r);
        ledger.retire(s, Retire::kCancelled);
      }
    }
    auto drop = [&](const Sequence& s) {
      if (s.request_id != id) return false;
      ledger.retire(s, Retire::kCancelled);
      return true;
    };
    for (auto* q : {&retries, &migrations, &router_pending}) {
      q->erase_if([&](const Pending& p) { return drop(p.seq); });
    }
    for (auto& list : stranded) {
      for (auto it = list.begin(); it != list.end();) {
        it = drop(*it) ? list.erase(it) : it + 1;
      }
    }
  }

  // Route work off a dead replica: everything still on it plus everything
  // stranded there since the crash goes through the retry path (with
  // jittered backoff and a budget), duplicates of hedged requests are
  // simply dropped.
  void release_failed(int i) {
    auto work = reps[i].evacuate();
    kick_.push_back(i);
    for (auto& s : stranded[i]) work.push_back(s);
    stranded[i].clear();
    for (auto& s : work) {
      if (ledger.redundant(s.request_id)) {
        ledger.retire(s, Retire::kCrashRelease);
        continue;
      }
      if (s.retries >= cfg_.retry.max_retries) {
        ledger.resolve_with(s, RequestStatus::kLost);
        continue;
      }
      ++s.retries;
      ++rep.retries;
      const std::uint64_t key =
          mix(cfg_.seed, mix(static_cast<std::uint64_t>(s.request_id),
                             static_cast<std::uint64_t>(s.retries)));
      park(retries, now + cfg_.retry.delay(s.retries, key), s);
    }
  }

  // Learn of a failure (detection or observed restart): lag metric.
  void mark_detected(int i) {
    if (fault_started_at[i] >= 0.0) {
      rep.detection_lag_s.add(now - fault_started_at[i]);
      fault_started_at[i] = -1.0;
    }
  }

  // Drain-fabric time to ship one sequence's KV snapshot.
  double ship_s(long long kv_tokens) const {
    return cfg_.migration.per_sequence_overhead_s +
           migration_link.p2p(static_cast<double>(kv_tokens) * stripe_bytes);
  }

  // Drain by KV migration: `seq` leaves replica `src` (its drain began at
  // `since`) and re-enters service elsewhere once its KV lands at `ready`.
  void migrate(Sequence seq, int src, double since, double ready) {
    ++rep.migrations;
    rep.migrated_kv_tokens += seq.kv_tokens();
    rep.migration_s.add(ready - since);
    rep.requests[seq.request_id].migrated = true;
    park(migrations, ready, std::move(seq), src);
  }

  // Drain by evacuate-and-recompute: progress is lost and the sequence
  // re-dispatches now. Planned drains are front-end initiated, so no
  // backoff and no retry-budget charge.
  void recompute(Sequence seq) {
    if (seq.kv_tokens() > 0) ++rep.drain_evacuations;
    seq.restart();
    park(retries, now, std::move(seq));
  }

  // --- end of run ---
  void finish() {
    // A partition window can outlive the traffic: stray duplicate copies
    // still cut off on the minority side are cancelled at end of run
    // (every request is already resolved — these served nobody).
    for (int i = 0; partitions && i < pool; ++i) {
      for (int id : reps[i].resident_ids()) {
        MIB_ENSURE(ledger.resolved(id),
                   "unresolved request still resident at end of run");
        Sequence s;
        if (reps[i].take(id, &s)) ledger.retire(s, Retire::kCancelled);
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
      rep.largest_suspicion_burst =
          std::max(rep.largest_suspicion_burst, b.size);
    }
    rep.view_disagreement_s = plane.disagreement_s();
    for (int i = 0; i < pool; ++i) {
      auto& rr = rep.replicas[i];
      rr.steps = reps[i].steps();
      rr.preemptions = reps[i].preemptions();
      rr.busy_s = reps[i].busy_s();
      rr.utilization = now > 0.0 ? rr.busy_s / now : 0.0;
      rr.prefix_lookups = reps[i].prefix_lookups();
      rr.prefix_hits = reps[i].prefix_hits();
      rep.prefix_lookups += rr.prefix_lookups;
      rep.prefix_hits += rr.prefix_hits;
      if (rr.steps > 0) ++rep.replicas_used;
    }

    // Terminal invariants: every request in exactly one bucket, no copy of
    // any request (and no KV) left anywhere in the system.
    MIB_ENSURE(rep.completed + rep.rejected + rep.expired + rep.lost ==
                   rep.submitted,
               "request conservation violated: "
                   << rep.completed << "+" << rep.rejected << "+"
                   << rep.expired << "+" << rep.lost << " != "
                   << rep.submitted);
    for (int i = 0; i < pool; ++i) {
      MIB_ENSURE(reps[i].queue_depth() == 0 && reps[i].running_count() == 0 &&
                     reps[i].kv_in_use() == 0,
                 "replica " << i << " leaked work or KV past the run");
      MIB_ENSURE(stranded[i].empty(), "stranded work leaked on replica " << i);
    }
    MIB_ENSURE(retries.empty(), "retry queue leaked past the run");
    MIB_ENSURE(migrations.empty(), "migration queue leaked past the run");
    MIB_ENSURE(router_pending.empty(),
               "router fail-over queue leaked past the run");
  }

  const FleetSimulator& sim_;
  const FleetConfig& cfg_ = sim_.config();
  const engine::LayerCostModel* cost_;
  const DegradedCostPool& degraded_costs_;
  const std::size_t n;
  /// Pristine copy per request id: arrivals, hedge copies and client
  /// re-sends all start from here.
  std::vector<Sequence> blank;
  /// Request ids in arrival order (stable, so ties keep id order).
  std::vector<int> intake;

  // --- fleet state ---
  const int pool = sim_.pool_size();
  const bool oracle = !cfg_.health.enabled;
  /// Step prices of every pricing model this run steps with, shared by
  /// the whole pool.
  engine::PriceBook book;
  std::vector<Replica> reps;
  std::vector<bool> active = flags(), in_maint = flags();
  const FaultSchedule faults{sim_.expanded_faults()};
  const FaultSchedule maint{cfg_.maintenance};
  const DegradationSchedule degr{sim_.expanded_degradations()};
  // Warm-up ramps live in their own schedule: they may overlap scheduled
  // brownouts (the one sanctioned composition) and are multiplied in at
  // query time.
  const DegradationSchedule warm{sim_.warmup_windows()};
  ControlPlane plane{cfg_.control, cfg_.policy, cfg_.seed, pool};
  // Every partition query answers "no cut" when no window is configured.
  // This flag gates only what would still differ: the per-pass refresh of
  // router views (sync_views), the end-of-run sweep of stray minority
  // copies (finish), the partition factor of the step bound, and whether
  // the run is independent.
  const bool partitions = plane.partition_enabled();
  // A step end reaches past its own replica only by cancelling another copy
  // (hedging or partitions), by orphaning a reply or arming client patience
  // (partitions), or through views refreshed and disagreement summed on
  // every pass (partitions or stale views). Without any of them each
  // replica steps on its own between fleet events (step_window).
  const bool independent =
      !partitions && !cfg_.hedge.enabled && !plane.stale_views();
  const Autoscaler scaler{cfg_.autoscaler};
  HealthMonitor monitor{cfg_.health, pool};
  HedgePlanner hedge{cfg_.hedge};
  const hw::Interconnect migration_link{cfg_.migration.link};
  // Layer-wise chunks stripe across the configured parallel links, so a
  // transfer's wire time divides by the stripe width.
  const double stripe_bytes;
  // Failure-domain spread groups for topology-aware autoscaler placement
  // (empty strings when the feature or the topology is off).
  std::vector<std::string> spread_group = std::vector<std::string>(pool);

  FleetReport rep = empty_report();
  CopyLedger ledger{rep};

  // Waiting queues: each entry wakes the loop at its own time.
  /// Backoff retries, drain re-dispatches and parked dispatches.
  WaitQueue<Pending> retries;
  /// KV migrations in flight to their cutover.
  WaitQueue<Pending> migrations;
  /// Overlap-drain snapshot copies in flight.
  WaitQueue<Pending> handoffs;
  /// Replicas in maintenance that keep decoding their running batch while
  /// its KV copies out: set at the maintenance start edge, cleared at the
  /// end edge. Once the batch has cut over, the replica has nothing to step.
  std::vector<bool> overlap_drain = flags();
  /// Requests waiting out the client fail-over lag at a dead home router.
  WaitQueue<Pending> router_pending;
  /// Work that was on a replica when it died, held until the front-end
  /// *learns* of the failure (circuit opens or the restart is observed).
  std::vector<std::vector<Sequence>> stranded =
      std::vector<std::vector<Sequence>>(pool);
  /// Unplanned-failure start times awaiting detection (lag metric).
  std::vector<double> fault_started_at = std::vector<double>(pool, -1.0);

  // Split-brain state: the client's retry patience arms a timer per
  // affected dispatch; when it fires with the partition still up and no
  // first token visible, the majority admits a duplicate copy. With
  // max_client_retries > 1 the patience re-arms on a full-jitter
  // exponential backoff (the gray-failure client model); the defaults are
  // a single fixed timer.
  /// Patience attempts armed so far per request (the ledger knows
  /// whether one is pending in the calendar).
  std::vector<int> client_attempts = std::vector<int>(n, 0);
  /// Heal edges whose duplicates have not all resolved yet.
  std::vector<double> pending_heals;
  const PartitionWindow* active_part = plane.partition_at(0.0);

  std::size_t next_arrival = 0;
  double now = 0.0;
  double prev_pass = 0.0;  ///< time of the previous pass
  bool first_pass = true;
  double next_tick = cfg_.autoscaler.interval_s;  ///< when enabled
  long long max_steps = 0;
  long long steps_begun = 0;

  /// Every timer and edge; step ends are the replicas' own state.
  Calendar cal;
  /// Replicas whose step ends at the earliest step end (advance_clock).
  std::vector<int> ending_;
  std::vector<std::vector<int>> due_ =
      std::vector<std::vector<int>>(static_cast<std::size_t>(K::kCount));
  /// Kinds with targets in due_ this pass.
  std::vector<K> filled_;
  /// Replicas that may have turned idle-with-work and in service, or lost
  /// a copy or a pending handoff, since the last kick: the next kick
  /// examines only these.
  std::vector<int> kick_;
  /// Which replicas hold a copy of the request a hedge trigger examines.
  std::vector<bool> holds = flags();

  std::vector<bool> flags() const { return std::vector<bool>(pool, false); }
  FleetReport empty_report() const {
    FleetReport r;
    r.requests.resize(n);
    r.replicas.resize(pool);
    return r;
  }
};

}  // namespace

FleetReport FleetSimulator::run(const std::vector<FleetRequest>& trace) const {
  MIB_ENSURE(!trace.empty(), "empty fleet trace");
  FleetReport rep =
      FleetRun(*this, &cost_, mem_, *degraded_costs_, trace).run();
  rep.warmup_recoveries = warmup_recoveries_;
  return rep;
}

}  // namespace mib::fleet
