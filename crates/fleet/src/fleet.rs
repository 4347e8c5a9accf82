//! The fleet: N dispatch shards behind a fingerprint-affinity front-end, driven
//! by a reconciling control plane.
//!
//! # Routing
//!
//! Every submission with coordinate geometry is keyed by its **canonical
//! instance fingerprint** (permutation-invariant, the same identity the solution
//! cache uses) and routed over a weighted consistent-hash ring
//! ([`HashRing`]): repeated geometries land on the same shard, so that shard's
//! [`SolutionCache`] and adaptive-router profiles stay hot for exactly the
//! traffic it owns. Explicit-matrix instances have no canonical fingerprint and
//! fall back to the least-loaded shard, as does any key whose ring owner is out
//! of rotation. [`RoutingPolicy::Scatter`] disables affinity entirely
//! (round-robin) — it exists mostly as the control arm for benchmarks.
//!
//! # Control plane
//!
//! A single reconciler thread owns every shard-state mutation (see
//! [`ShardState`] for the machine). Operator calls
//! ([`Fleet::drain`], [`Fleet::restart`], [`Fleet::override_health`],
//! [`Fleet::report_crash`]) only enqueue [`FleetIntent`]s; the next tick folds
//! them into the per-state handlers. Each tick the reconciler:
//!
//! 1. drains the intent queue into per-shard mailboxes,
//! 2. steps every shard's state handler (health evaluation, transitions,
//!    drains, restarts — all idempotent),
//! 3. re-adopts orphaned work (pendings drained off sick shards) onto
//!    survivors, preserving tickets,
//! 4. publishes a fresh immutable routing table (ring + in-rotation services).
//!
//! No ticket is ever lost: a drained shard's queued work is resubmitted with
//! tickets intact, and anything that cannot be placed is explicitly failed at
//! fleet shutdown by the [`Pending`] drop guard — clients never hang.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use taxi::cache::CachePolicy;
use taxi::{SolutionCache, SolutionCacheStats};
use taxi_dispatch::{
    DispatchConfig, DispatchRequest, DispatchService, Pending, ServiceMetrics, ServiceSnapshot,
    SnapshotPolicy, SubmitError, Ticket,
};
use taxi_obs::{
    AlertState, FleetSample, HistoryStore, SampleSource, Scraper, ShardWindow, SloEngine, SloSpec,
    SloStatus,
};
use taxi_trace::{Tracer, TracerStats};
use taxi_tsplib::fingerprint::{canonical_fingerprint_into, FingerprintScratch};
use taxi_tsplib::{Fingerprint, TspInstance};

use crate::health::{
    evaluate_window, HealthCheck, HealthPolicy, HealthReport, HealthVerdict, ProbeId, ProbeWindow,
};
use crate::ring::HashRing;
use crate::state::{FleetIntent, ShardId, ShardState, StateSlas};

/// How the front-end picks a shard for each submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Route by canonical instance fingerprint over the consistent-hash ring, so
    /// repeated geometries hit the same shard's warm cache and router profiles.
    /// Non-fingerprintable requests (explicit-matrix instances) go least-loaded.
    FingerprintAffinity,
    /// Round-robin over in-rotation shards, ignoring the key. The control arm
    /// for affinity benchmarks, and occasionally useful for uniform traffic.
    Scatter,
}

/// Configuration of the fleet's observability layer: the time-series history
/// ring, the background scraper, and the declarative SLOs the engine evaluates
/// on every scrape.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// History ring capacity in samples (default 256; clamped to ≥ 2). With the
    /// default reconcile and scrape cadences this holds a few seconds of
    /// history — comfortably more than the probe lookback.
    pub ring_capacity: usize,
    /// Background scrape cadence (default 50ms, clamped to ≥ 1ms by the
    /// scraper).
    pub scrape_interval: Duration,
    /// Whether to run the background scraper thread (default on). With it off,
    /// the reconciler still records a sample every pass and
    /// [`Fleet::scrape_now`] records + evaluates on demand — the deterministic
    /// mode tests and benches use.
    pub scraper: bool,
    /// Declarative SLOs evaluated after every scrape (empty by default: the
    /// history store still fills, nothing alerts).
    pub slos: Vec<SloSpec>,
}

impl ObsConfig {
    /// Defaults: 256-sample ring, 50ms scrapes, scraper on, no SLOs.
    pub fn new() -> Self {
        Self {
            ring_capacity: 256,
            scrape_interval: Duration::from_millis(50),
            scraper: true,
            slos: Vec::new(),
        }
    }

    /// Sets the history ring capacity in samples.
    #[must_use]
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Sets the background scrape cadence.
    #[must_use]
    pub fn with_scrape_interval(mut self, interval: Duration) -> Self {
        self.scrape_interval = interval;
        self
    }

    /// Disables the background scraper thread (reconciler-pass samples and
    /// [`Fleet::scrape_now`] remain).
    #[must_use]
    pub fn without_scraper(mut self) -> Self {
        self.scraper = false;
        self
    }

    /// Adds one SLO to evaluate.
    #[must_use]
    pub fn with_slo(mut self, spec: SloSpec) -> Self {
        self.slos.push(spec);
        self
    }

    /// Replaces the SLO set.
    #[must_use]
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Configuration of a [`Fleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shard slots.
    pub shards: usize,
    /// Template [`DispatchConfig`] every shard generation is built from. A cache
    /// set here is **shared** across shards (see [`cache`](Self::cache) for the
    /// per-shard alternative); a router set here shares learned profiles
    /// likewise.
    pub shard: DispatchConfig,
    /// When set, each shard generation gets its **own fresh** [`SolutionCache`]
    /// built from this policy — the private-cache layout fingerprint affinity is
    /// designed for (each shard caches exactly the key range it owns). A
    /// restarted generation starts cold unless [`snapshot`](Self::snapshot)
    /// turns on durable warm restarts. `None` leaves whatever the template says.
    pub cache: Option<CachePolicy>,
    /// Durable warm restarts, when set: every shard generation snapshots its
    /// cache and router profiles under this policy, into a per-*slot* file
    /// (`shard-<index>.snap`), and a recycled generation restores its
    /// predecessor's snapshot before serving — warmth survives crash recycles
    /// and operator restarts. Corrupt or version-skewed snapshots are rejected
    /// (counted on [`ServiceSnapshot::snapshots_rejected`]) and the generation
    /// cold-starts instead.
    pub snapshot: Option<SnapshotPolicy>,
    /// Shard-selection policy.
    pub routing: RoutingPolicy,
    /// Virtual nodes per full-weight shard on the consistent-hash ring.
    pub replicas: usize,
    /// Reconcile tick interval (how fast intents and health verdicts take
    /// effect; transitions are also retried at this cadence).
    pub reconcile_interval: Duration,
    /// Health-probe thresholds.
    pub health: HealthPolicy,
    /// Per-state residence SLAs (stuck detection + degraded escalation).
    pub slas: StateSlas,
    /// Whether a `Stopped` shard restarts automatically on the next tick. With
    /// `true` (the default) an operator drain is a *recycle*; with `false` a
    /// drained shard stays down until an explicit [`Fleet::restart`]. Crash
    /// containment (`Failed`) always recycles, regardless.
    pub auto_restart: bool,
    /// The span tracer shared by every shard generation, if request tracing is
    /// enabled. Each generation's service records into the same flight
    /// recorder, with its `(shard, generation)` stamped on every root span —
    /// the fleet-hop attribution. Overrides whatever tracer the
    /// [`shard`](Self::shard) template carries.
    pub trace: Option<Arc<Tracer>>,
    /// Observability layer: history ring, background scraper, SLOs.
    pub obs: ObsConfig,
}

impl FleetConfig {
    /// Defaults: 2 shards × 2 workers, a per-shard cache with default policy,
    /// fingerprint-affinity routing, 64 ring replicas, 20ms reconcile ticks,
    /// default health thresholds and SLAs, auto-restart on.
    pub fn new() -> Self {
        Self {
            shards: 2,
            shard: DispatchConfig::new().with_workers(2),
            cache: Some(CachePolicy::new()),
            snapshot: None,
            routing: RoutingPolicy::FingerprintAffinity,
            replicas: 64,
            reconcile_interval: Duration::from_millis(20),
            health: HealthPolicy::new(),
            slas: StateSlas::new(),
            auto_restart: true,
            trace: None,
            obs: ObsConfig::new(),
        }
    }

    /// Sets the shard count (`0` clamps to 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-shard [`DispatchConfig`] template.
    #[must_use]
    pub fn with_shard_config(mut self, shard: DispatchConfig) -> Self {
        self.shard = shard;
        self
    }

    /// Gives each shard generation its own fresh cache built from `policy`.
    #[must_use]
    pub fn with_cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache = Some(policy);
        self
    }

    /// Disables the per-shard cache override (the template's cache — usually
    /// none — applies as-is).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Enables durable warm restarts for every shard generation (see
    /// [`snapshot`](Self::snapshot)).
    #[must_use]
    pub fn with_snapshot_policy(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshot = Some(policy);
        self
    }

    /// Sets the routing policy.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the ring replica count (`0` clamps to 1).
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Sets the reconcile tick interval.
    #[must_use]
    pub fn with_reconcile_interval(mut self, interval: Duration) -> Self {
        self.reconcile_interval = interval;
        self
    }

    /// Sets the health-probe thresholds.
    #[must_use]
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Sets the per-state SLAs.
    #[must_use]
    pub fn with_slas(mut self, slas: StateSlas) -> Self {
        self.slas = slas;
        self
    }

    /// Sets whether stopped shards restart automatically.
    #[must_use]
    pub fn with_auto_restart(mut self, auto_restart: bool) -> Self {
        self.auto_restart = auto_restart;
        self
    }

    /// Attaches a span tracer shared by every shard generation (see
    /// [`trace`](Self::trace)).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.trace = Some(tracer);
        self
    }

    /// Sets the observability configuration.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Adds one SLO to the observability layer (convenience for
    /// [`with_obs`](Self::with_obs)).
    #[must_use]
    pub fn with_slo(mut self, spec: SloSpec) -> Self {
        self.obs.slos.push(spec);
        self
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Reusable fingerprint scratch: routing a request allocates nothing after
    /// the first submission on each thread.
    static FP_SCRATCH: RefCell<FingerprintScratch> = RefCell::new(FingerprintScratch::new());
}

/// The ring key of `instance`, when it has one: canonical fingerprints exist
/// only for coordinate instances (explicit matrices would need the exact
/// fingerprint, which is not permutation-invariant and therefore useless for
/// affinity).
fn routing_key(instance: &TspInstance) -> Option<Fingerprint> {
    instance.coordinates()?;
    Some(FP_SCRATCH.with(|scratch| canonical_fingerprint_into(instance, &mut scratch.borrow_mut())))
}

/// The immutable routing table the reconciler publishes each tick: the ring plus
/// the in-rotation service handles, indexed by shard slot.
#[derive(Debug)]
struct RoutingTable {
    ring: HashRing,
    members: Vec<Option<Arc<DispatchService>>>,
}

impl RoutingTable {
    fn empty(replicas: usize) -> Self {
        Self {
            ring: HashRing::new(replicas),
            members: Vec::new(),
        }
    }

    /// In-rotation services, with their slot indices.
    fn live(&self) -> impl Iterator<Item = (usize, &Arc<DispatchService>)> {
        self.members
            .iter()
            .enumerate()
            .filter_map(|(index, member)| member.as_ref().map(|svc| (index, svc)))
    }

    /// The in-rotation service with the shallowest queue (ties to the lowest
    /// slot index).
    fn least_loaded(&self) -> Option<&Arc<DispatchService>> {
        self.live()
            .min_by_key(|(index, svc)| (svc.queue_depth(), *index))
            .map(|(_, svc)| svc)
    }
}

/// One shard slot's control-plane record. Only the reconciler's state handlers
/// mutate it (single-mutator discipline); intents land in the request flags and
/// are consumed by the handlers.
#[derive(Debug)]
struct ShardCell {
    id: ShardId,
    state: ShardState,
    since: Instant,
    generation: u64,
    service: Option<Arc<DispatchService>>,
    /// Latest health evaluation (kept for snapshots even while overridden).
    health: HealthCheck,
    /// Effective verdict after any operator override.
    verdict: HealthVerdict,
    override_verdict: Option<HealthVerdict>,
    drain_requested: bool,
    restart_requested: bool,
    crash_reported: Option<String>,
}

impl ShardCell {
    fn new(id: ShardId, now: Instant) -> Self {
        Self {
            id,
            state: ShardState::Starting,
            since: now,
            generation: 1,
            service: None,
            health: HealthCheck::default(),
            verdict: HealthVerdict::Healthy,
            override_verdict: None,
            drain_requested: false,
            restart_requested: false,
            crash_reported: None,
        }
    }

    fn transition(&mut self, state: ShardState, now: Instant) {
        if self.state != state {
            self.state = state;
            self.since = now;
        }
    }
}

/// Everything behind the reconciler's mutex.
#[derive(Debug)]
struct ControlState {
    cells: Vec<ShardCell>,
    /// Pendings drained off sick shards, awaiting adoption by survivors.
    orphans: Vec<Pending>,
    intents: VecDeque<FleetIntent>,
    kicked: bool,
    ticks: u64,
}

#[derive(Debug)]
struct FleetInner {
    config: FleetConfig,
    state: Mutex<ControlState>,
    /// Wakes the reconciler (kicks) and reconcile-waiters (tick completions).
    wake: Condvar,
    table: RwLock<Arc<RoutingTable>>,
    /// Counters of every retired shard generation, merged exactly at bucket
    /// level ([`ServiceMetrics::merge_from`]).
    retired: ServiceMetrics,
    /// Cache counters of retired generations (`entries`/`bytes` zeroed: a dead
    /// cache holds nothing). The flag records whether any retiree had a cache.
    retired_cache: Mutex<(bool, SolutionCacheStats)>,
    resubmitted: AtomicU64,
    scatter_cursor: AtomicUsize,
    shutdown: AtomicBool,
    started_at: Instant,
    /// The observability layer: history store + SLO engine, shared with the
    /// background scraper thread.
    obs: FleetObs,
}

/// The fleet's observability state: the sample history every producer records
/// into and the SLO engine evaluated after each scrape.
#[derive(Debug)]
struct FleetObs {
    store: Arc<HistoryStore>,
    engine: Arc<Mutex<SloEngine>>,
}

/// The fleet's [`SampleSource`]: briefly locks the control state and captures
/// one full cumulative sample. Holds a weak handle so the scraper thread can
/// never keep a dropped fleet alive.
#[derive(Debug)]
struct FleetSampler(std::sync::Weak<FleetInner>);

impl SampleSource for FleetSampler {
    fn sample_into(&self, sample: &mut FleetSample) {
        if let Some(inner) = self.0.upgrade() {
            let st = lock(&inner.state);
            inner.fill_sample(&st, sample);
        }
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn zero_cache_stats() -> SolutionCacheStats {
    SolutionCacheStats {
        hits: 0,
        exact_hits: 0,
        remapped_hits: 0,
        misses: 0,
        insertions: 0,
        evictions: 0,
        expirations: 0,
        entries: 0,
        bytes: 0,
    }
}

fn add_cache_stats(total: &mut SolutionCacheStats, add: &SolutionCacheStats) {
    total.hits += add.hits;
    total.exact_hits += add.exact_hits;
    total.remapped_hits += add.remapped_hits;
    total.misses += add.misses;
    total.insertions += add.insertions;
    total.evictions += add.evictions;
    total.expirations += add.expirations;
    total.entries += add.entries;
    total.bytes += add.bytes;
}

impl FleetInner {
    /// The tracer every shard generation records into, when tracing is enabled
    /// (fleet-level tracer wins over one set on the shard template).
    fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.config
            .trace
            .as_ref()
            .or(self.config.shard.trace.as_ref())
    }

    /// Builds one shard generation's service from the template (fresh private
    /// cache when the fleet-level policy is set; trace site stamped with this
    /// shard slot and generation).
    fn build_shard_service(&self, id: ShardId, generation: u64) -> DispatchService {
        let mut config = self.config.shard.clone();
        if let Some(policy) = self.config.cache {
            config.cache = Some(Arc::new(SolutionCache::new(policy)));
        }
        if let Some(tracer) = self.tracer() {
            config.trace = Some(Arc::clone(tracer));
        }
        config.trace_site = (id.index() as u64, generation);
        if let Some(policy) = &self.config.snapshot {
            // The snapshot file is keyed by the slot (trace_site.0), so this
            // start — inside the reconciler's `Starting` handler — restores
            // whatever the slot's previous generation persisted at retirement.
            config.snapshot = Some(policy.clone());
        }
        DispatchService::start(config)
    }

    /// Folds retiring `service`'s counters into the fleet-lifetime accumulators.
    fn retire(&self, service: &Arc<DispatchService>) {
        self.retired.merge_from(service.metrics());
        if let Some(stats) = service.snapshot().cache {
            let mut dead = stats;
            dead.entries = 0;
            dead.bytes = 0;
            let mut guard = lock(&self.retired_cache);
            guard.0 = true;
            add_cache_stats(&mut guard.1, &dead);
        }
    }

    /// Captures one cumulative [`FleetSample`] from the held control state:
    /// fleet-wide totals (retired generations + every live shard, merged
    /// bucket-exactly) plus per-shard counters. Allocation-free once `sample`
    /// has warmed to the shard count.
    fn fill_sample(&self, st: &ControlState, sample: &mut FleetSample) {
        sample.reset(st.cells.len());
        sample.at = self.started_at.elapsed();
        sample.fleet.fill_from(&self.retired);
        let (any_cache, cache_total) = *lock(&self.retired_cache);
        sample.fleet.cache = any_cache.then_some(cache_total);
        for (index, cell) in st.cells.iter().enumerate() {
            let slot = &mut sample.shards[index];
            slot.generation = cell.generation;
            let Some(service) = &cell.service else {
                continue; // slot stays zeroed, live = false
            };
            slot.live = true;
            slot.in_rotation = cell.state.in_rotation();
            slot.queue_depth = service.queue_depth();
            slot.queue_capacity = service.config().queue_capacity;
            slot.counters.fill_from(service.metrics());
            slot.counters.cache = service.config().cache.as_ref().map(|cache| cache.stats());
            sample.fleet.accumulate(&slot.counters);
        }
    }

    /// One reconcile pass: intents → handlers → table → orphan adoption →
    /// publish. Idempotent: running it twice on a quiescent fleet is a no-op.
    fn run_pass(&self, st: &mut ControlState) {
        let now = Instant::now();
        // Record this pass's sample first: the newest history sample becomes
        // the right edge of every probe window the handlers evaluate below,
        // and the SLO engine judges fully up-to-date windows.
        self.obs
            .store
            .record_with(|sample| self.fill_sample(st, sample));
        lock(&self.obs.engine).evaluate(&self.obs.store);
        while let Some(intent) = st.intents.pop_front() {
            self.apply_intent(st, intent);
        }
        let ControlState { cells, orphans, .. } = &mut *st;
        for cell in cells.iter_mut() {
            self.step_cell(cell, orphans, now);
        }
        // Rebuild the ring: Serving at full weight, Degraded at half, everything
        // else owns nothing. Vnode positions depend only on (shard, replica), so
        // surviving shards keep their keys across this rebuild.
        let replicas = self.config.replicas;
        let mut weights = Vec::with_capacity(cells.len());
        let mut members: Vec<Option<Arc<DispatchService>>> = vec![None; cells.len()];
        for (index, cell) in cells.iter().enumerate() {
            let weight = match cell.state {
                ShardState::Serving => replicas,
                ShardState::Degraded => (replicas / 2).max(1),
                _ => 0,
            };
            weights.push((cell.id, weight));
            if weight > 0 {
                members[index] = cell.service.clone();
            }
        }
        let mut ring = HashRing::new(replicas);
        ring.rebuild(&weights);
        let table = Arc::new(RoutingTable { ring, members });
        // Re-adopt orphans against the fresh table: ring owner when the pending
        // has a fingerprint, least-loaded otherwise. Unplaceable pendings stay
        // orphaned for the next tick (tickets stay live).
        let mut remaining = Vec::new();
        for pending in orphans.drain(..) {
            let target = routing_key(&pending.request().instance)
                .and_then(|key| table.ring.route(key.as_u128()))
                .and_then(|owner| table.members.get(owner.index()).cloned().flatten())
                .or_else(|| table.least_loaded().cloned());
            match target {
                Some(service) => match service.adopt(pending) {
                    Ok(()) => {
                        self.resubmitted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(pending) => remaining.push(pending),
                },
                None => remaining.push(pending),
            }
        }
        *orphans = remaining;
        *self.table.write().unwrap_or_else(PoisonError::into_inner) = table;
    }

    fn apply_intent(&self, st: &mut ControlState, intent: FleetIntent) {
        // Unknown shard ids are ignored: intents may race a reconfiguration.
        match intent {
            FleetIntent::Drain(id) => {
                if let Some(cell) = st.cells.get_mut(id.index()) {
                    cell.drain_requested = true;
                }
            }
            FleetIntent::Restart(id) => {
                if let Some(cell) = st.cells.get_mut(id.index()) {
                    cell.restart_requested = true;
                }
            }
            FleetIntent::ReportCrash(id, reason) => {
                if let Some(cell) = st.cells.get_mut(id.index()) {
                    cell.crash_reported = Some(reason);
                }
            }
            FleetIntent::OverrideHealth(id, verdict) => {
                if let Some(cell) = st.cells.get_mut(id.index()) {
                    cell.override_verdict = verdict;
                }
            }
        }
    }

    /// The per-state handlers — the **only** code that mutates shard state.
    fn step_cell(&self, cell: &mut ShardCell, orphans: &mut Vec<Pending>, now: Instant) {
        match cell.state {
            ShardState::Starting => {
                if cell.service.is_none() {
                    cell.service =
                        Some(Arc::new(self.build_shard_service(cell.id, cell.generation)));
                }
                cell.health = HealthCheck::default();
                cell.verdict = HealthVerdict::Healthy;
                cell.transition(ShardState::Serving, now);
            }
            ShardState::Serving | ShardState::Degraded => {
                let Some(service) = &cell.service else {
                    // Invariant breach (an in-rotation shard always has a
                    // service); contain it like a crash.
                    cell.transition(ShardState::Failed, now);
                    return;
                };
                // Probe window from the history store: lookback behind the
                // sample this pass just recorded, generation-guarded. A brand
                // new generation with only one sample falls back to its
                // lifetime totals — the window since the generation started.
                let mut shard_window = ShardWindow::default();
                let window = if self.obs.store.shard_window_into(
                    cell.id.index(),
                    self.config.health.lookback,
                    &mut shard_window,
                ) {
                    ProbeWindow::from(&shard_window.window)
                } else {
                    ProbeWindow::between(None, &service.snapshot())
                };
                let mut check = evaluate_window(
                    &self.config.health,
                    &window,
                    service.queue_depth(),
                    service.config().queue_capacity,
                );
                let probe_crash = check.crashed();
                let verdict = match cell.override_verdict {
                    Some(forced) => {
                        check.reports.push(HealthReport {
                            probe: ProbeId::Operator,
                            verdict: forced,
                            detail: format!("verdict pinned {forced} by operator"),
                        });
                        forced
                    }
                    None => check.verdict(),
                };
                cell.health = check;
                cell.verdict = verdict;
                // A pinned-healthy override suppresses probe-driven crash
                // containment (the operator is debugging); an explicit crash
                // report never waits.
                if let Some(reason) = cell.crash_reported.take() {
                    cell.health.reports.push(HealthReport {
                        probe: ProbeId::WorkerPanic,
                        verdict: HealthVerdict::Unhealthy,
                        detail: format!("crash reported: {reason}"),
                    });
                    cell.verdict = HealthVerdict::Unhealthy;
                    cell.transition(ShardState::Failed, now);
                } else if probe_crash && cell.override_verdict != Some(HealthVerdict::Healthy) {
                    cell.transition(ShardState::Failed, now);
                } else if cell.drain_requested {
                    cell.drain_requested = false;
                    cell.transition(ShardState::Draining, now);
                } else if verdict == HealthVerdict::Unhealthy {
                    if cell.state == ShardState::Serving {
                        cell.transition(ShardState::Degraded, now);
                    } else if now.duration_since(cell.since) >= self.config.slas.degraded {
                        // Unhealthy past the degraded SLA: self-heal via a
                        // drain + restart instead of flapping at half weight.
                        cell.restart_requested = true;
                        cell.transition(ShardState::Draining, now);
                    }
                } else if cell.state == ShardState::Degraded {
                    cell.transition(ShardState::Serving, now);
                }
            }
            ShardState::Draining | ShardState::Failed => {
                // Idempotent containment: extract the backlog (empty after the
                // first tick), then wait for in-flight batches to finish.
                let quiesced = match &cell.service {
                    Some(service) => {
                        orphans.extend(service.drain());
                        service.alive_workers() == 0
                    }
                    None => true,
                };
                if quiesced {
                    if let Some(service) = cell.service.take() {
                        self.retire(&service);
                    }
                    if cell.state == ShardState::Failed {
                        // Crash containment always recycles: fresh generation.
                        cell.generation += 1;
                        cell.transition(ShardState::Starting, now);
                    } else {
                        cell.transition(ShardState::Stopped, now);
                    }
                }
            }
            ShardState::Stopped => {
                cell.drain_requested = false;
                if cell.restart_requested || self.config.auto_restart {
                    cell.restart_requested = false;
                    cell.generation += 1;
                    cell.transition(ShardState::Starting, now);
                }
            }
        }
    }

    /// Enqueues an intent and kicks the reconciler.
    fn enqueue(&self, intent: FleetIntent) {
        let mut st = lock(&self.state);
        st.intents.push_back(intent);
        st.kicked = true;
        self.wake.notify_all();
    }

    fn kick(&self) {
        let mut st = lock(&self.state);
        st.kicked = true;
        self.wake.notify_all();
    }

    fn snapshot_locked(&self, st: &ControlState) -> FleetSnapshot {
        let now = Instant::now();
        let uptime = now.duration_since(self.started_at);
        let sink = ServiceMetrics::new();
        sink.merge_from(&self.retired);
        let (mut any_cache, mut cache_total) = *lock(&self.retired_cache);
        let table = Arc::clone(&self.table.read().unwrap_or_else(PoisonError::into_inner));
        let mut shards = Vec::with_capacity(st.cells.len());
        for cell in &st.cells {
            let service_snapshot = cell.service.as_ref().map(|service| {
                sink.merge_from(service.metrics());
                service.snapshot()
            });
            if let Some(stats) = service_snapshot.as_ref().and_then(|s| s.cache) {
                any_cache = true;
                add_cache_stats(&mut cache_total, &stats);
            }
            let in_state = now.duration_since(cell.since);
            shards.push(ShardSnapshot {
                id: cell.id,
                state: cell.state,
                generation: cell.generation,
                in_state,
                stuck: self
                    .config
                    .slas
                    .for_state(cell.state)
                    .is_some_and(|sla| in_state > sla),
                ring_share: table.ring.ownership_share(cell.id),
                verdict: cell.verdict,
                overridden: cell.override_verdict.is_some(),
                reports: cell.health.reports.clone(),
                queue_depth: cell
                    .service
                    .as_ref()
                    .map_or(0, |service| service.queue_depth()),
                service: service_snapshot,
            });
        }
        let mut service = sink.snapshot();
        // The merged sink was just born: the fleet clock owns the time base,
        // including the capture timestamp rate computations key on.
        service.uptime = uptime;
        service.captured_at = uptime;
        service.throughput_per_sec = if uptime.as_secs_f64() > 0.0 {
            service.completed as f64 / uptime.as_secs_f64()
        } else {
            0.0
        };
        service.cache = any_cache.then_some(cache_total);
        FleetSnapshot {
            uptime,
            service,
            shards,
            resubmitted: self.resubmitted.load(Ordering::Relaxed),
            orphaned: st.orphans.len(),
            reconcile_ticks: st.ticks,
            trace: self.tracer().map(|tracer| tracer.stats()),
            alerts: lock(&self.obs.engine).statuses().to_vec(),
            history_samples: self.obs.store.recorded(),
        }
    }
}

/// Point-in-time state of one shard slot, from [`Fleet::snapshot`].
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// The shard slot.
    pub id: ShardId,
    /// Lifecycle state.
    pub state: ShardState,
    /// Service generation (bumped on every restart; 1 for the first build).
    pub generation: u64,
    /// Time spent in the current state.
    pub in_state: Duration,
    /// Whether the shard has overstayed its state's SLA (see
    /// [`StateSlas`]) — the operator signal for a wedged drain or start.
    pub stuck: bool,
    /// Fraction of the consistent-hash ring this shard currently owns.
    pub ring_share: f64,
    /// Effective health verdict (operator override applied).
    pub verdict: HealthVerdict,
    /// Whether an operator override is pinning the verdict.
    pub overridden: bool,
    /// The probe reports behind the verdict (evidence either way).
    pub reports: Vec<HealthReport>,
    /// Instantaneous admission-queue depth (0 when out of rotation).
    pub queue_depth: usize,
    /// The live service's own snapshot (`None` when stopped/failed).
    pub service: Option<ServiceSnapshot>,
}

/// Point-in-time state of the whole fleet.
///
/// [`service`](Self::service) is the **exact** fleet-wide aggregate: every live
/// shard's counters plus every retired generation's, merged at histogram-bucket
/// level — its percentiles equal the histogram of the union stream, not an
/// average of per-shard percentiles.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Time since the fleet started.
    pub uptime: Duration,
    /// Merged service metrics across all shards and generations (cache stats
    /// summed likewise; `entries`/`bytes` count live caches only).
    pub service: ServiceSnapshot,
    /// Per-shard control-plane state.
    pub shards: Vec<ShardSnapshot>,
    /// Orphaned pendings successfully re-adopted onto survivors so far.
    pub resubmitted: u64,
    /// Pendings currently orphaned (drained, not yet re-placed; tickets live).
    pub orphaned: usize,
    /// Reconcile passes completed.
    pub reconcile_ticks: u64,
    /// Flight-recorder counters (traces minted/kept/dropped, spans recorded and
    /// resident), when the fleet traces requests. `None` with tracing off.
    pub trace: Option<TracerStats>,
    /// Latest SLO evaluation statuses (burn rates + alert state per rule;
    /// empty when no SLOs are configured).
    pub alerts: Vec<SloStatus>,
    /// Total samples ever recorded into the observability history ring.
    pub history_samples: u64,
}

impl FleetSnapshot {
    /// The shards currently in rotation.
    pub fn in_rotation(&self) -> usize {
        self.shards.iter().filter(|s| s.state.in_rotation()).count()
    }

    /// SLO rules currently firing their burn-rate alert.
    pub fn firing_alerts(&self) -> usize {
        self.alerts
            .iter()
            .filter(|status| status.state == AlertState::Firing)
            .count()
    }

    /// One-line fleet summary.
    pub fn one_line(&self) -> String {
        let mut line = format!(
            "fleet up {:.1}s: {}/{} shards in rotation, {} completed ({} cache hits), {} resubmitted, {} orphaned, {} ticks",
            self.uptime.as_secs_f64(),
            self.in_rotation(),
            self.shards.len(),
            self.service.completed,
            self.service.cache_hits,
            self.resubmitted,
            self.orphaned,
            self.reconcile_ticks,
        );
        if let Some(trace) = &self.trace {
            line.push_str(&format!(", traces {}/{} kept", trace.kept, trace.minted,));
        }
        if !self.alerts.is_empty() {
            let firing = self.firing_alerts();
            if firing > 0 {
                line.push_str(&format!(", slo {firing}/{} FIRING", self.alerts.len()));
            } else {
                line.push_str(&format!(", slo {} ok", self.alerts.len()));
            }
        }
        line
    }
}

impl std::fmt::Display for FleetSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.one_line())?;
        for shard in &self.shards {
            writeln!(
                f,
                "  {}: {} gen {} ({}, share {:.0}%, depth {}){}{}",
                shard.id,
                shard.state,
                shard.generation,
                shard.verdict,
                shard.ring_share * 100.0,
                shard.queue_depth,
                if shard.overridden { " [override]" } else { "" },
                if shard.stuck { " STUCK" } else { "" },
            )?;
        }
        write!(f, "  aggregate: {}", self.service)
    }
}

/// A sharded dispatch fleet: N [`DispatchService`] shards behind a
/// fingerprint-affinity front-end, supervised by a reconciling control plane.
///
/// # Example
///
/// ```
/// use taxi_fleet::{Fleet, FleetConfig};
/// use taxi_dispatch::DispatchRequest;
/// use taxi_tsplib::generator::clustered_instance;
///
/// let fleet = Fleet::start(FleetConfig::new().with_shards(2));
/// let ticket = fleet
///     .submit(DispatchRequest::new(clustered_instance("ride", 40, 4, 7)))
///     .expect("admitted");
/// assert!(ticket.wait().solved().is_some());
/// let snapshot = fleet.shutdown();
/// assert_eq!(snapshot.service.completed, 1);
/// ```
#[derive(Debug)]
pub struct Fleet {
    inner: Arc<FleetInner>,
    reconciler: Option<std::thread::JoinHandle<()>>,
    sampler: Arc<FleetSampler>,
    scraper: Option<Scraper>,
}

impl Fleet {
    /// Starts the fleet: builds every shard synchronously (the routing table is
    /// live when this returns) and spawns the reconciler thread (plus the
    /// observability scraper, unless [`ObsConfig::scraper`] is off).
    pub fn start(config: FleetConfig) -> Self {
        let now = Instant::now();
        let shards = config.shards.max(1);
        let replicas = config.replicas.max(1);
        let cells = (0..shards)
            .map(|i| ShardCell::new(ShardId::new(i), now))
            .collect();
        let obs = FleetObs {
            store: Arc::new(HistoryStore::new(config.obs.ring_capacity, shards)),
            engine: Arc::new(Mutex::new(SloEngine::new(config.obs.slos.clone()))),
        };
        let inner = Arc::new(FleetInner {
            config,
            state: Mutex::new(ControlState {
                cells,
                orphans: Vec::new(),
                intents: VecDeque::new(),
                kicked: false,
                ticks: 0,
            }),
            wake: Condvar::new(),
            table: RwLock::new(Arc::new(RoutingTable::empty(replicas))),
            retired: ServiceMetrics::new(),
            retired_cache: Mutex::new((false, zero_cache_stats())),
            resubmitted: AtomicU64::new(0),
            scatter_cursor: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            started_at: now,
            obs,
        });
        {
            let mut st = lock(&inner.state);
            inner.run_pass(&mut st);
            st.ticks += 1;
        }
        let loop_inner = Arc::clone(&inner);
        let reconciler = std::thread::Builder::new()
            .name("taxi-fleet-reconciler".to_string())
            .spawn(move || reconcile_loop(&loop_inner))
            .expect("spawn fleet reconciler");
        let sampler = Arc::new(FleetSampler(Arc::downgrade(&inner)));
        let scraper = inner.config.obs.scraper.then(|| {
            Scraper::spawn(
                inner.config.obs.scrape_interval,
                Arc::clone(&inner.obs.store),
                Arc::clone(&inner.obs.engine),
                Arc::clone(&sampler) as Arc<dyn SampleSource>,
            )
        });
        Self {
            inner,
            reconciler: Some(reconciler),
            sampler,
            scraper,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.inner.config
    }

    /// Number of shard slots.
    pub fn shards(&self) -> usize {
        self.inner.config.shards.max(1)
    }

    /// Submits a request through the routing front-end.
    ///
    /// Fingerprint-affinity routing sends coordinate instances to their ring
    /// owner (same geometry ⇒ same shard ⇒ warm cache); explicit-matrix
    /// instances and ownerless keys go to the least-loaded in-rotation shard.
    /// A submission that races a shard's drain is transparently retried against
    /// the refreshed table — the caller never sees a transient
    /// [`SubmitError::ShuttingDown`] unless the whole fleet is stopping.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] is surfaced honestly from the owning shard
    /// (under [`AdmissionPolicy::Reject`](taxi_dispatch::AdmissionPolicy));
    /// [`SubmitError::ShuttingDown`] means the fleet itself is shutting down or
    /// no shard could accept the request within the retry budget.
    pub fn submit(&self, request: DispatchRequest) -> Result<Ticket, SubmitError> {
        const MAX_ATTEMPTS: usize = 200;
        let mut request = request;
        // Fingerprinted once: the ring routes by it and the owning shard's cache
        // probe reuses it.
        let canonical = match self.inner.config.routing {
            RoutingPolicy::FingerprintAffinity => routing_key(&request.instance),
            RoutingPolicy::Scatter => None,
        };
        for attempt in 0..MAX_ATTEMPTS {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return Err(SubmitError::ShuttingDown(request));
            }
            let table = Arc::clone(
                &self
                    .inner
                    .table
                    .read()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            let target = self.pick(&table, canonical);
            let Some(service) = target else {
                // No shard in rotation (mid-recycle): kick the reconciler and
                // retry against the next table.
                self.inner.kick();
                std::thread::sleep(Duration::from_millis(1));
                continue;
            };
            match service.submit_fingerprinted(request, canonical) {
                Ok(ticket) => return Ok(ticket),
                Err(SubmitError::QueueFull(refused)) => {
                    return Err(SubmitError::QueueFull(refused));
                }
                Err(SubmitError::ShuttingDown(refused)) => {
                    // The shard closed between table publishes; reroute.
                    request = refused;
                    self.inner.kick();
                    if attempt + 1 < MAX_ATTEMPTS {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        Err(SubmitError::ShuttingDown(request))
    }

    /// Picks the target service under the configured policy; `canonical` is the
    /// request's [`routing_key`] under fingerprint affinity.
    fn pick(
        &self,
        table: &RoutingTable,
        canonical: Option<Fingerprint>,
    ) -> Option<Arc<DispatchService>> {
        match self.inner.config.routing {
            RoutingPolicy::Scatter => {
                let live: Vec<_> = table.live().collect();
                if live.is_empty() {
                    return None;
                }
                let cursor = self.inner.scatter_cursor.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(live[cursor % live.len()].1))
            }
            RoutingPolicy::FingerprintAffinity => canonical
                .and_then(|key| table.ring.route(key.as_u128()))
                .and_then(|owner| table.members.get(owner.index()).cloned().flatten())
                .or_else(|| table.least_loaded().cloned()),
        }
    }

    /// Requests a drain: out of rotation, backlog migrated to survivors,
    /// stopped (then restarted iff [`FleetConfig::auto_restart`]). Applied by
    /// the next reconcile tick; idempotent.
    pub fn drain(&self, shard: ShardId) {
        self.inner.enqueue(FleetIntent::Drain(shard));
    }

    /// Requests a restart of a stopped shard (fresh generation, cold cache).
    /// Takes effect once the shard reaches `Stopped`.
    pub fn restart(&self, shard: ShardId) {
        self.inner.enqueue(FleetIntent::Restart(shard));
    }

    /// Reports an out-of-band crash: the shard is contained through `Failed`
    /// (backlog migrated, metrics retired) and recycled.
    pub fn report_crash(&self, shard: ShardId, reason: impl Into<String>) {
        self.inner
            .enqueue(FleetIntent::ReportCrash(shard, reason.into()));
    }

    /// Pins (`Some`) or releases (`None`) the shard's health verdict. Probe
    /// reports stay visible in snapshots while pinned; a pinned-healthy shard
    /// additionally suppresses probe-driven crash containment (explicit
    /// [`report_crash`](Self::report_crash) still wins).
    pub fn override_health(&self, shard: ShardId, verdict: Option<HealthVerdict>) {
        self.inner
            .enqueue(FleetIntent::OverrideHealth(shard, verdict));
    }

    /// Kicks the reconciler and blocks until at least one full pass has run
    /// after the call (bounded wait) — the test-friendly way to make intents
    /// and health verdicts take effect deterministically.
    pub fn reconcile_now(&self) {
        let inner = &self.inner;
        let mut st = lock(&inner.state);
        let target = st.ticks + 2;
        let deadline = Instant::now() + Duration::from_secs(10);
        st.kicked = true;
        inner.wake.notify_all();
        while st.ticks < target
            && Instant::now() < deadline
            && !inner.shutdown.load(Ordering::SeqCst)
        {
            let (guard, _) = inner
                .wake
                .wait_timeout(st, Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            st.kicked = true;
            inner.wake.notify_all();
        }
    }

    /// Point-in-time fleet snapshot: per-shard control-plane state plus the
    /// exact merged service aggregate.
    pub fn snapshot(&self) -> FleetSnapshot {
        let st = lock(&self.inner.state);
        self.inner.snapshot_locked(&st)
    }

    /// The observability history store: every cumulative sample the reconciler
    /// and scraper recorded, with windowed reads — the data feed for windowed
    /// per-shard and per-backend latency/quality series.
    pub fn history(&self) -> &Arc<HistoryStore> {
        &self.inner.obs.store
    }

    /// Synchronously records one history sample and evaluates the SLO engine —
    /// the deterministic alternative to waiting on the background scraper.
    pub fn scrape_now(&self) {
        self.inner.obs.store.record_from(&*self.sampler);
        lock(&self.inner.obs.engine).evaluate(&self.inner.obs.store);
    }

    /// The latest SLO evaluation statuses (empty when no SLOs are configured
    /// or nothing has been evaluated yet).
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        lock(&self.inner.obs.engine).statuses().to_vec()
    }

    /// Renders the text sparkline dashboard over the recorded history
    /// (throughput, rates, p99, per-shard queues, SLO table).
    pub fn dashboard(&self) -> String {
        let statuses = self.slo_statuses();
        taxi_obs::spark::dashboard(&self.inner.obs.store, &statuses, 48)
    }

    /// Dumps the recorded history as a JSON time-series document readable by
    /// `taxi_bench::json::parse`.
    pub fn history_json(&self) -> String {
        let statuses = self.slo_statuses();
        taxi_obs::spark::series_json(&self.inner.obs.store, &statuses)
    }

    /// Shuts the fleet down: stops the reconciler, closes every shard (queued
    /// work is served out), waits for quiescence, retires all counters and
    /// returns the final snapshot. Orphans that could not be re-placed are
    /// explicitly failed (drop guard) — no client ticket ever hangs.
    pub fn shutdown(mut self) -> FleetSnapshot {
        self.shutdown_in_place();
        let st = lock(&self.inner.state);
        self.inner.snapshot_locked(&st)
    }

    fn shutdown_in_place(&mut self) {
        // Stop the scraper first: no samples of a fleet mid-teardown.
        if let Some(mut scraper) = self.scraper.take() {
            scraper.stop();
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.kick();
        if let Some(handle) = self.reconciler.take() {
            let _ = handle.join();
        }
        // Serve out every shard's backlog, then wait (bounded) for quiescence.
        let mut st = lock(&self.inner.state);
        for cell in &st.cells {
            if let Some(service) = &cell.service {
                service.close();
            }
        }
        let deadline = Instant::now() + self.inner.config.slas.draining;
        loop {
            let busy = st.cells.iter().any(|cell| {
                cell.service
                    .as_ref()
                    .is_some_and(|service| service.alive_workers() > 0)
            });
            if !busy || Instant::now() > deadline {
                break;
            }
            drop(st);
            std::thread::sleep(Duration::from_millis(1));
            st = lock(&self.inner.state);
        }
        let now = Instant::now();
        for index in 0..st.cells.len() {
            if let Some(service) = st.cells[index].service.take() {
                self.inner.retire(&service);
            }
            st.cells[index].transition(ShardState::Stopped, now);
        }
        // Unplaceable orphans fail their tickets explicitly on drop.
        st.orphans.clear();
        drop(st);
        *self
            .inner
            .table
            .write()
            .unwrap_or_else(PoisonError::into_inner) =
            Arc::new(RoutingTable::empty(self.inner.config.replicas.max(1)));
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // A dropped fleet still stops cleanly; shutdown_in_place is idempotent.
        self.shutdown_in_place();
    }
}

/// The reconciler thread: wait for a kick or the tick interval, run a pass,
/// publish, repeat. Holding the state lock for the whole pass is deliberate —
/// handlers are the only mutators, and submitters never touch this lock.
fn reconcile_loop(inner: &FleetInner) {
    let interval = inner
        .config
        .reconcile_interval
        .max(Duration::from_millis(1));
    let mut st = lock(&inner.state);
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if !st.kicked {
            let (guard, _) = inner
                .wake
                .wait_timeout(st, interval)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        st.kicked = false;
        inner.run_pass(&mut st);
        st.ticks += 1;
        inner.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxi_dispatch::Priority;
    use taxi_tsplib::generator::random_uniform_instance;

    fn small_fleet(shards: usize) -> Fleet {
        Fleet::start(
            FleetConfig::new()
                .with_shards(shards)
                .with_shard_config(
                    DispatchConfig::new()
                        .with_workers(1)
                        .with_queue_capacity(64),
                )
                .with_reconcile_interval(Duration::from_millis(5)),
        )
    }

    #[test]
    fn starts_serving_and_solves_across_shards() {
        let fleet = small_fleet(2);
        let snapshot = fleet.snapshot();
        assert_eq!(snapshot.in_rotation(), 2);
        assert!(snapshot
            .shards
            .iter()
            .all(|s| s.state == ShardState::Serving));
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                fleet
                    .submit(
                        DispatchRequest::new(random_uniform_instance(
                            &format!("f{i}"),
                            16,
                            i as u64,
                        ))
                        .with_priority(Priority::Interactive),
                    )
                    .expect("admitted")
            })
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().solved().is_some());
        }
        let snapshot = fleet.shutdown();
        assert_eq!(snapshot.service.completed, 6);
        assert_eq!(snapshot.service.failed, 0);
        assert!(snapshot
            .shards
            .iter()
            .all(|s| s.state == ShardState::Stopped));
    }

    #[test]
    fn same_geometry_routes_to_the_same_shard() {
        let fleet = small_fleet(3);
        let instance = random_uniform_instance("affine", 16, 9);
        // Route the same instance many times: with affinity routing, exactly one
        // shard should see all of the traffic.
        for _ in 0..8 {
            let ticket = fleet
                .submit(DispatchRequest::new(instance.clone()))
                .expect("admitted");
            assert!(ticket.wait().solved().is_some());
        }
        let snapshot = fleet.snapshot();
        let busy: Vec<_> = snapshot
            .shards
            .iter()
            .filter(|s| s.service.as_ref().is_some_and(|svc| svc.submitted > 0))
            .collect();
        assert_eq!(busy.len(), 1, "affinity should pin one shard\n{snapshot}");
        // And the pinned shard's private cache served the repeats.
        let stats = busy[0].service.as_ref().unwrap().cache.expect("cache");
        assert!(stats.hits >= 6, "repeat geometry should hit: {stats:?}");
        fleet.shutdown();
    }

    #[test]
    fn drain_without_auto_restart_parks_the_shard() {
        let fleet = Fleet::start(
            FleetConfig::new()
                .with_shards(2)
                .with_shard_config(DispatchConfig::new().with_workers(1))
                .with_reconcile_interval(Duration::from_millis(5))
                .with_auto_restart(false),
        );
        let victim = ShardId::new(0);
        fleet.drain(victim);
        // Drain → Draining → Stopped takes a few ticks (quiescence wait).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            fleet.reconcile_now();
            let snapshot = fleet.snapshot();
            if snapshot.shards[0].state == ShardState::Stopped {
                assert_eq!(snapshot.shards[0].ring_share, 0.0);
                assert!(snapshot.shards[1].state.in_rotation());
                break;
            }
            assert!(
                Instant::now() < deadline,
                "drain never settled:\n{snapshot}"
            );
        }
        // Explicit restart brings it back with a bumped generation.
        fleet.restart(victim);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            fleet.reconcile_now();
            let snapshot = fleet.snapshot();
            if snapshot.shards[0].state == ShardState::Serving {
                assert_eq!(snapshot.shards[0].generation, 2);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "restart never settled:\n{snapshot}"
            );
        }
        fleet.shutdown();
    }

    #[test]
    fn override_health_degrades_and_recovers() {
        let fleet = small_fleet(2);
        let target = ShardId::new(1);
        fleet.override_health(target, Some(HealthVerdict::Unhealthy));
        fleet.reconcile_now();
        let snapshot = fleet.snapshot();
        assert_eq!(snapshot.shards[1].state, ShardState::Degraded, "{snapshot}");
        assert!(snapshot.shards[1].overridden);
        assert!(
            snapshot.shards[1].ring_share > 0.0,
            "degraded keeps half weight"
        );
        assert!(
            snapshot.shards[1].ring_share < snapshot.shards[0].ring_share,
            "{snapshot}"
        );
        fleet.override_health(target, None);
        fleet.reconcile_now();
        let snapshot = fleet.snapshot();
        assert_eq!(snapshot.shards[1].state, ShardState::Serving, "{snapshot}");
        assert!(!snapshot.shards[1].overridden);
        fleet.shutdown();
    }

    #[test]
    fn reported_crash_recycles_the_generation() {
        let fleet = small_fleet(2);
        fleet.report_crash(ShardId::new(0), "operator saw it eat a SIGBUS");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            fleet.reconcile_now();
            let snapshot = fleet.snapshot();
            let shard = &snapshot.shards[0];
            if shard.state == ShardState::Serving && shard.generation >= 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "recycle never settled:\n{snapshot}"
            );
        }
        fleet.shutdown();
    }
}
