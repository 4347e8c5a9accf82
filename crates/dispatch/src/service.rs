//! The dispatch service: long-lived solver workers fed by the admission queue.
//!
//! [`DispatchService::start`] spawns a pool of workers. Each worker owns the pieces
//! that make its steady-state loop cheap and deterministic:
//!
//! * a persistent [`SolveContext`] — scratch buffers and warm Ising macros survive
//!   across requests, so the per-level solve loop stays allocation-free (the PR-2
//!   arena, now serving traffic);
//! * its **primary** and **degraded** [`TourSolver`](taxi::TourSolver) backends,
//!   built once at spawn (never per request);
//! * a [`MicroBatcher`] draining the shared queue under the service's
//!   [`BatchPolicy`], and a reusable batch buffer;
//! * a [`MetricsObserver`] feeding per-stage timings into the shared
//!   [`ServiceMetrics`].
//!
//! Workers force `threads = 1` on their solver: parallelism comes from the worker
//! pool (one instance per worker), not from intra-instance fan-out, exactly like
//! [`TaxiSolver::solve_batch`] sharding — which also makes every served tour
//! bit-identical to an offline [`TaxiSolver::solve`] of the same instance under the
//! same configuration.

use std::sync::Arc;
use std::time::{Duration, Instant};

use taxi::cache::CachedEntry;
use taxi::router::{AdaptiveRouter, RouterConfig, RoutingDecision};
use taxi::{
    BackendChoice, CacheLookup, SolutionCache, SolveContext, SolverBackend, TaxiConfig, TaxiSolver,
};

use taxi_trace::{AttrKey, RequestFacts, SpanName, Tracer};
use taxi_tsplib::Fingerprint;

use crate::coalesce::{CoalesceRole, Coalescer};
use crate::metrics::{MetricsObserver, ServiceMetrics, ServiceSnapshot};
use crate::queue::{AdmissionPolicy, DispatchQueue};
use crate::request::{
    DispatchOutcome, DispatchRequest, Pending, Priority, SolvedResponse, SubmitError, Ticket,
};
use crate::scheduler::{BatchPolicy, MicroBatcher};
use crate::snapshot::{restore_snapshot, write_snapshot, SnapshotPolicy};
use crate::tracing::{TraceCtx, TracingObserver};

/// Configuration of a [`DispatchService`].
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Solver configuration applied to every request (thread count is overridden to 1
    /// inside each worker; see the module docs).
    pub solver: TaxiConfig,
    /// Number of worker threads.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// What a full queue does with new submissions.
    pub admission: AdmissionPolicy,
    /// The micro-batching rule.
    pub batch: BatchPolicy,
    /// Backend used for bulk requests in overloaded batches (see
    /// [`BatchPolicy::overload_threshold`]). Only consulted when adaptive routing
    /// is **off**: a routed service degrades by tightening the latency budget
    /// ([`degraded_budget`](Self::degraded_budget)) instead.
    pub degraded_backend: SolverBackend,
    /// Under adaptive routing, the latency budget overloaded bulk requests are
    /// routed with (their remaining slack is clamped to at most this): degradation
    /// becomes "route for a tighter deadline" — the router picks whatever backend
    /// meets it — rather than a hard-coded cheap backend.
    pub degraded_budget: Duration,
    /// The adaptive backend router, if per-instance routing is enabled. Built
    /// automatically at [`DispatchService::start`] when the solver configuration
    /// says [`BackendChoice::Adaptive`]; attach one explicitly to share learned
    /// profiles across services or to customise [`RouterConfig`].
    pub router: Option<Arc<AdaptiveRouter>>,
    /// The solution cache, if serving-side memoization is enabled: admission serves
    /// repeat instances without queueing, workers coalesce in-flight duplicates and
    /// insert fresh solves. `None` (the default) disables caching entirely.
    pub cache: Option<Arc<SolutionCache>>,
    /// The span tracer, if per-request tracing is enabled: every admitted request
    /// is minted a [`TraceId`](taxi_trace::TraceId) and recorded through the
    /// flight recorder at each hop (admission, queue, routing, batching, cache,
    /// coalescing, solve, pipeline stages). Shareable across services; `None`
    /// (the default) keeps every tracing hook a no-op.
    pub trace: Option<Arc<Tracer>>,
    /// The fleet placement `(shard, generation)` stamped onto every finished
    /// trace's root span. `(0, 0)` for a standalone service; the fleet sets it
    /// when building shard services.
    pub trace_site: (u64, u64),
    /// The durability policy, if warm restarts are enabled: where and how often
    /// the service snapshots its cache and router profiles, and whether start
    /// restores the previous snapshot (see [`SnapshotPolicy`]). `None` (the
    /// default) never touches the filesystem.
    pub snapshot: Option<SnapshotPolicy>,
}

impl PartialEq for DispatchConfig {
    fn eq(&self, other: &Self) -> bool {
        // The cache is a shared runtime object, not a value: configs are equal when
        // they share (or equally lack) one.
        self.solver == other.solver
            && self.workers == other.workers
            && self.queue_capacity == other.queue_capacity
            && self.admission == other.admission
            && self.batch == other.batch
            && self.degraded_backend == other.degraded_backend
            && self.degraded_budget == other.degraded_budget
            && match (&self.router, &other.router) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
            && match (&self.cache, &other.cache) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
            && match (&self.trace, &other.trace) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
            && self.trace_site == other.trace_site
            && self.snapshot == other.snapshot
    }
}

impl DispatchConfig {
    /// Defaults: paper solver config, one worker per available core, capacity 256,
    /// blocking admission, batches of 8 with 500µs linger, degradation disabled,
    /// `NnTwoOpt` as the degraded backend.
    pub fn new() -> Self {
        Self {
            solver: TaxiConfig::new(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 256,
            admission: AdmissionPolicy::default(),
            batch: BatchPolicy::default(),
            degraded_backend: SolverBackend::NnTwoOpt,
            degraded_budget: Duration::from_millis(25),
            router: None,
            cache: None,
            trace: None,
            trace_site: (0, 0),
            snapshot: None,
        }
    }

    /// Sets the per-request solver configuration.
    #[must_use]
    pub fn with_solver(mut self, solver: TaxiConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the worker count (`0` clamps to 1, mirroring
    /// [`TaxiConfig::with_threads`]).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// Sets the admission policy.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the micro-batching rule.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the backend overloaded bulk requests degrade to (routing-off services
    /// only; see [`degraded_budget`](Self::degraded_budget) for routed services).
    #[must_use]
    pub fn with_degraded_backend(mut self, backend: SolverBackend) -> Self {
        self.degraded_backend = backend;
        self
    }

    /// Sets the latency budget overloaded bulk requests are routed under when
    /// adaptive routing is enabled.
    #[must_use]
    pub fn with_degraded_budget(mut self, budget: Duration) -> Self {
        self.degraded_budget = budget;
        self
    }

    /// Attaches an adaptive backend router (shareable across services, so learned
    /// latency/quality profiles follow the traffic). Routing is also enabled
    /// automatically when the solver configuration selects
    /// [`BackendChoice::Adaptive`].
    #[must_use]
    pub fn with_router(mut self, router: Arc<AdaptiveRouter>) -> Self {
        self.router = Some(router);
        self
    }

    /// Detaches the router ([`BackendChoice::Adaptive`] solver configurations get a
    /// fresh private router at service start regardless).
    #[must_use]
    pub fn without_router(mut self) -> Self {
        self.router = None;
        self
    }

    /// Attaches a solution cache (shareable across services: entries are scoped by
    /// each service's solver-configuration token).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SolutionCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Detaches the solution cache.
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Attaches a span tracer (shareable across services; see
    /// [`taxi_trace::Tracer`]). Every admitted request is then traced through
    /// the flight recorder, with tail sampling deciding at completion which
    /// traces are kept for export.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.trace = Some(tracer);
        self
    }

    /// Detaches the tracer.
    #[must_use]
    pub fn without_tracer(mut self) -> Self {
        self.trace = None;
        self
    }

    /// Sets the fleet placement `(shard, generation)` stamped onto every
    /// finished trace's root span.
    #[must_use]
    pub fn with_trace_site(mut self, shard: u64, generation: u64) -> Self {
        self.trace_site = (shard, generation);
        self
    }

    /// Enables durable warm restarts under `policy`: service start restores the
    /// shard's previous snapshot (when the policy says so), a housekeeping
    /// thread re-snapshots every `interval` (+ jitter), and shutdown writes a
    /// final snapshot after the workers drain — so the next generation starts
    /// where this one stopped. The snapshot file is keyed by the shard slot
    /// ([`DispatchConfig::with_trace_site`]'s first component), stable across
    /// generations.
    #[must_use]
    pub fn with_snapshot_policy(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshot = Some(policy);
        self
    }

    /// Disables durability snapshots.
    #[must_use]
    pub fn without_snapshots(mut self) -> Self {
        self.snapshot = None;
        self
    }
}

impl Default for DispatchConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// An online TSP dispatch service over the TAXI solver.
///
/// # Example
///
/// ```
/// use taxi_dispatch::{DispatchConfig, DispatchRequest, DispatchService, Priority};
/// use taxi_tsplib::generator::clustered_instance;
///
/// let service = DispatchService::start(DispatchConfig::new().with_workers(2));
/// let ticket = service
///     .submit(
///         DispatchRequest::new(clustered_instance("ride", 60, 4, 7))
///             .with_priority(Priority::Interactive),
///     )
///     .expect("admitted");
/// let response = ticket.wait().solved().expect("solved");
/// assert!(response.solution.tour.order().len() == 60);
/// let snapshot = service.shutdown();
/// assert_eq!(snapshot.completed, 1);
/// ```
#[derive(Debug)]
pub struct DispatchService {
    queue: Arc<DispatchQueue>,
    metrics: Arc<ServiceMetrics>,
    workers: Vec<std::thread::JoinHandle<()>>,
    config: DispatchConfig,
    /// The adaptive router serving this service's traffic, when routing is enabled
    /// (the configured one, or a private one built for a
    /// [`BackendChoice::Adaptive`] solver configuration).
    router: Option<Arc<AdaptiveRouter>>,
    /// The solver-configuration token scoping this service's cache keys (computed
    /// once; meaningless without a cache, and unused under adaptive routing, where
    /// keys are scoped per routed backend instead).
    cache_token: u64,
    /// The periodic snapshot thread, when the policy asks for one (stopped and
    /// joined before the final shutdown snapshot).
    housekeeper: Option<Housekeeper>,
}

/// Handle of the background snapshot thread: a condvar-signalled stop flag plus
/// the join handle.
#[derive(Debug)]
struct Housekeeper {
    stop: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    thread: std::thread::JoinHandle<()>,
}

impl Housekeeper {
    /// Signals the thread to stop and joins it. Idempotent per handle (takes
    /// ownership).
    fn stop(self) {
        let (lock, condvar) = &*self.stop;
        *lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        condvar.notify_all();
        let _ = self.thread.join();
    }
}

impl DispatchService {
    /// Starts the service: builds the queue and spawns the workers.
    ///
    /// Adaptive routing is engaged when the configuration carries a router
    /// ([`DispatchConfig::with_router`]) or the solver configuration selects
    /// [`BackendChoice::Adaptive`] (a private router seeded from the solver
    /// configuration is built in that case).
    pub fn start(config: DispatchConfig) -> Self {
        let metrics = Arc::new(ServiceMetrics::new());
        let mut queue = DispatchQueue::new(
            config.queue_capacity,
            config.admission,
            Arc::clone(&metrics),
        );
        if let Some(tracer) = &config.trace {
            queue.attach_trace(TraceCtx::new(tracer, "admission", config.trace_site));
        }
        let queue = Arc::new(queue);
        let cache_token = config.solver.cache_token();
        let router = config.router.clone().or_else(|| {
            matches!(config.solver.backend_choice(), BackendChoice::Adaptive).then(|| {
                Arc::new(AdaptiveRouter::new(
                    RouterConfig::new()
                        .with_seed(config.solver.seed())
                        .with_cluster_capacity(config.solver.max_cluster_size()),
                ))
            })
        });
        if let Some(policy) = config.snapshot.as_ref().filter(|p| p.restore_on_start) {
            let path = policy.shard_path(config.trace_site.0);
            match restore_snapshot(&path, config.cache.as_deref(), router.as_deref()) {
                Ok(_) => metrics.record_snapshot_restored(),
                // A missing file is a normal first boot, not a rejection.
                Err(error) if error.is_not_found() => {}
                // Corrupt/truncated/version-skewed (or unreadable): serve cold.
                // Each subsystem restored all-or-nothing, so no partial state
                // survives the failure.
                Err(_) => metrics.record_snapshot_rejected(),
            }
        }
        let coalescer = Arc::new(Coalescer::new());
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let coalescer = Arc::clone(&coalescer);
                let router = router.clone();
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("taxi-dispatch-{index}"))
                    .spawn(move || {
                        worker_loop(
                            index,
                            &config,
                            router.as_ref(),
                            &queue,
                            &metrics,
                            &coalescer,
                        )
                    })
                    .expect("spawn dispatch worker")
            })
            .collect();
        let housekeeper = config
            .snapshot
            .as_ref()
            .filter(|policy| !policy.interval.is_zero())
            .map(|policy| {
                spawn_housekeeper(
                    policy.clone(),
                    config.trace_site.0,
                    config.cache.clone(),
                    router.clone(),
                    Arc::clone(&metrics),
                )
            });
        Self {
            queue,
            metrics,
            workers,
            config,
            router,
            cache_token,
            housekeeper,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &DispatchConfig {
        &self.config
    }

    /// The adaptive router serving this service, when routing is enabled (exposes
    /// the live latency/quality profiles).
    pub fn router(&self) -> Option<&Arc<AdaptiveRouter>> {
        self.router.as_ref()
    }

    /// Submits a request for dispatch.
    ///
    /// When the service has a [`SolutionCache`], admission looks the instance up
    /// first: a hit resolves the returned ticket **immediately** — the request never
    /// enters the queue, pays no queue wait and consumes no worker. Misses are
    /// admitted normally, carrying their cache key so workers can coalesce and
    /// insert.
    ///
    /// With [`AdmissionPolicy::Block`] this call blocks while the queue is full
    /// (backpressure); the other policies return immediately.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] when admission refuses the request (the request rides
    /// back inside the error).
    pub fn submit(&self, request: DispatchRequest) -> Result<Ticket, SubmitError> {
        self.submit_fingerprinted(request, None)
    }

    /// [`submit`](Self::submit) for a caller that already computed the instance's
    /// canonical fingerprint (the fleet does, to route by it): `canonical`, when
    /// given, must be the canonical fingerprint of `request.instance`, and the
    /// admission-time cache probe reuses it instead of fingerprinting again.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit).
    pub fn submit_fingerprinted(
        &self,
        request: DispatchRequest,
        canonical: Option<Fingerprint>,
    ) -> Result<Ticket, SubmitError> {
        let Some(cache) = &self.config.cache else {
            return self.queue.submit(request);
        };
        if self.router.is_some() {
            // Routed services scope cache keys per chosen backend, and the routing
            // decision (it depends on the remaining slack at solve time) is made by
            // the worker — so admission cannot probe the cache; workers serve late
            // hits against the routed key instead.
            return self.queue.submit(request);
        }
        if self.queue.is_closed() {
            // Cache hits must not outlive admission: a shut-down service serves
            // nothing, cached or not.
            return Err(SubmitError::ShuttingDown(request));
        }
        let arrived = Instant::now();
        let lookup = match canonical {
            Some(canonical) => {
                cache.lookup_fingerprinted(self.cache_token, canonical, &request.instance)
            }
            None => cache.lookup(self.cache_token, &request.instance),
        };
        match lookup {
            CacheLookup::Hit(hit) => {
                let seq = self.queue.allocate_seq();
                let (mut pending, ticket) = Pending::admit(request, seq);
                if let Some(ctx) = self.queue.trace_ctx() {
                    // An admission-time hit still gets a full trace: the lookup
                    // span covers the fingerprint + probe, and the root span
                    // shows the request never reached the queue.
                    pending.trace = ctx.mint();
                    ctx.sink().record(
                        pending.trace,
                        SpanName::CacheLookup,
                        arrived,
                        arrived.elapsed(),
                        &[(AttrKey::Hit, 1), (AttrKey::Seq, seq)],
                    );
                }
                let trace = pending.trace;
                self.metrics.record_submitted();
                let end_to_end = arrived.elapsed();
                self.metrics.record_cache_hit(end_to_end);
                let missed_deadline = pending.deadline().is_some_and(|d| Instant::now() > d);
                pending.resolve(DispatchOutcome::Solved(Box::new(SolvedResponse {
                    solution: hit.solution,
                    queue_wait: Duration::ZERO,
                    solve_time: Duration::ZERO,
                    end_to_end,
                    degraded: false,
                    batch_size: 0,
                    worker: 0,
                    missed_deadline,
                    cache_hit: true,
                    coalesced: false,
                    routed: None,
                    explored: false,
                })));
                if let Some(ctx) = self.queue.trace_ctx() {
                    let mut facts = RequestFacts::completed(end_to_end);
                    if missed_deadline {
                        facts = facts.deadline_missed();
                    }
                    ctx.finish(trace, arrived, &facts);
                }
                Ok(ticket)
            }
            CacheLookup::Miss(key) => self.queue.submit_keyed(request, Some(key)),
        }
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// The shared metrics hub (e.g. for merging into a fleet-level aggregate via
    /// [`ServiceMetrics::merge_from`]).
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Number of worker threads that have not yet exited. After a
    /// [`drain`](Self::drain) this counts workers still finishing in-flight
    /// batches; it reaches zero once the drained service is fully quiescent.
    pub fn alive_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|worker| !worker.is_finished())
            .count()
    }

    /// Stops admission and lets the workers serve out everything already queued —
    /// the non-consuming prefix of [`shutdown`](Self::shutdown), for callers that
    /// only hold the service behind an `Arc`. Workers exit once the queue is
    /// empty; watch [`alive_workers`](Self::alive_workers) for quiescence (joining
    /// still happens at `shutdown`/drop). Contrast with [`drain`](Self::drain),
    /// which extracts the backlog for resubmission elsewhere instead of serving it
    /// here.
    pub fn close(&self) {
        self.queue.close();
    }

    /// **Drains** the service without consuming it: atomically stops admission and
    /// extracts every queued-but-unstarted request, returning them (tickets intact)
    /// for resubmission elsewhere.
    ///
    /// Contrast with [`shutdown`](Self::shutdown), the consuming variant that keeps
    /// the queued work and lets the workers serve it out. `drain` instead hands the
    /// backlog back immediately — the fleet's building block for migrating work off
    /// an unhealthy shard. In-flight batches are *not* interrupted: workers finish
    /// what they already dequeued (resolving those tickets normally), then exit
    /// once they observe the closed, empty queue. Watch [`alive_workers`](Self::alive_workers)
    /// for quiescence; joining still happens at `shutdown`/drop, either of which is
    /// safe and cheap after a drain.
    ///
    /// A submission racing this call either returns a live ticket whose pending is
    /// in the returned vector (or already with a worker), or observes
    /// [`SubmitError::ShuttingDown`] — no ticket is ever silently lost. Dropping a
    /// returned [`Pending`] fails its ticket explicitly (drop guard), so even
    /// abandoning the backlog cannot hang a client.
    pub fn drain(&self) -> Vec<Pending> {
        self.queue.drain_queued()
    }

    /// Adopts a pending drained from another service (see [`drain`](Self::drain)):
    /// enqueues it with ticket, priority, deadline and submission instant
    /// preserved, bypassing admission (it was admitted once already; it is not
    /// re-counted as a submission).
    ///
    /// # Errors
    ///
    /// Returns the pending back when this service is itself shutting down.
    // The large Err is deliberate: a refused pending rides back by value so its
    // ticket stays live (same idiom as `SubmitError`).
    #[allow(clippy::result_large_err)]
    pub fn adopt(&self, pending: Pending) -> Result<(), Pending> {
        self.queue.adopt(pending)
    }

    /// Writes a durability snapshot immediately (in addition to the periodic
    /// cadence). Returns `Ok(false)` without touching the filesystem when the
    /// service has no [`SnapshotPolicy`].
    ///
    /// # Errors
    ///
    /// Propagates the write failure (also counted as one rejected snapshot).
    pub fn snapshot_now(&self) -> Result<bool, taxi_snap::SnapError> {
        let Some(policy) = &self.config.snapshot else {
            return Ok(false);
        };
        let path = policy.shard_path(self.config.trace_site.0);
        match write_snapshot(&path, self.config.cache.as_deref(), self.router.as_deref()) {
            Ok(()) => {
                self.metrics.record_snapshot_written();
                Ok(true)
            }
            Err(error) => {
                self.metrics.record_snapshot_rejected();
                Err(error)
            }
        }
    }

    /// Point-in-time service metrics (cache statistics included when the service
    /// has a cache).
    pub fn snapshot(&self) -> ServiceSnapshot {
        self.snapshot_with_cache()
    }

    fn snapshot_with_cache(&self) -> ServiceSnapshot {
        let mut snapshot = self.metrics.snapshot();
        if let Some(cache) = &self.config.cache {
            snapshot.cache = Some(cache.stats());
        }
        snapshot
    }

    /// Shuts down: refuses new submissions, lets the workers drain every queued
    /// request, joins them, and returns the final metrics snapshot.
    pub fn shutdown(mut self) -> ServiceSnapshot {
        self.shutdown_in_place();
        self.snapshot_with_cache()
    }

    fn shutdown_in_place(&mut self) {
        if let Some(housekeeper) = self.housekeeper.take() {
            housekeeper.stop();
        }
        self.queue.close();
        let served = !self.workers.is_empty();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Final snapshot AFTER the workers drained (and only on the first
        // shutdown pass — `shutdown` is followed by `Drop`): the retiring
        // service persists everything it learned, including solves that
        // finished during the drain, so its successor restores the full warm
        // state.
        if served && self.config.snapshot.is_some() {
            let _ = self.snapshot_now();
        }
    }
}

impl Drop for DispatchService {
    fn drop(&mut self) {
        // A dropped service still drains and joins — no detached workers, no tickets
        // left hanging.
        self.shutdown_in_place();
    }
}

/// Spawns the periodic snapshot thread: sleeps `interval` (+ deterministic
/// per-(shard, tick) jitter, so a fleet's shards never write in lockstep),
/// writes a snapshot, repeats — until the stop condvar fires.
fn spawn_housekeeper(
    policy: SnapshotPolicy,
    shard: u64,
    cache: Option<Arc<SolutionCache>>,
    router: Option<Arc<AdaptiveRouter>>,
    metrics: Arc<ServiceMetrics>,
) -> Housekeeper {
    let stop = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let signal = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name(format!("taxi-snapshot-{shard}"))
        .spawn(move || {
            let path = policy.shard_path(shard);
            // Plain LCG seeded by the shard slot: cheap, deterministic, and
            // independent of the solver's RNG streams.
            let mut jitter_state = shard.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let (lock, condvar) = &*signal;
            let mut stopped = lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                let jitter = if policy.jitter.is_zero() {
                    Duration::ZERO
                } else {
                    jitter_state = jitter_state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let unit = (jitter_state >> 11) as f64 / (1u64 << 53) as f64;
                    policy.jitter.mul_f64(unit)
                };
                let deadline = Instant::now() + policy.interval + jitter;
                while !*stopped {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _) = condvar
                        .wait_timeout(stopped, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    stopped = guard;
                }
                if *stopped {
                    // The shutdown path writes the final snapshot after the
                    // workers drain; racing it here would persist a stale view.
                    return;
                }
                match write_snapshot(&path, cache.as_deref(), router.as_deref()) {
                    Ok(()) => metrics.record_snapshot_written(),
                    Err(_) => metrics.record_snapshot_rejected(),
                }
            }
        })
        .expect("spawn snapshot housekeeper");
    Housekeeper { stop, thread }
}

/// The routing facts a worker carries through one routed solve (chosen backend +
/// whether the exploration arm chose it).
#[derive(Debug, Clone, Copy)]
struct RouteTag {
    backend: SolverBackend,
    explored: bool,
}

impl RouteTag {
    fn of(decision: &RoutingDecision) -> Self {
        Self {
            backend: decision.backend,
            explored: decision.explored(),
        }
    }
}

/// The long-lived solving state of one worker thread.
struct Worker<'a> {
    index: usize,
    solver: TaxiSolver,
    primary: Arc<dyn taxi::TourSolver>,
    degraded: Arc<dyn taxi::TourSolver>,
    /// Per-backend instances for routed dispatch, built on first use (indexed like
    /// [`SolverBackend::ALL`]).
    routed_backends: [Option<Arc<dyn taxi::TourSolver>>; SolverBackend::ALL.len()],
    ctx: SolveContext,
    observer: TracingObserver,
    metrics: &'a Arc<ServiceMetrics>,
    cache: Option<&'a Arc<SolutionCache>>,
    router: Option<&'a Arc<AdaptiveRouter>>,
    /// Tracing bundle (ring `"worker-<index>"`) when the service has a tracer.
    trace: Option<TraceCtx>,
}

impl Worker<'_> {
    /// The worker's instance of a routed backend, built on first use.
    fn routed_backend(&mut self, backend: SolverBackend) -> Arc<dyn taxi::TourSolver> {
        let slot = &mut self.routed_backends[backend.index()];
        Arc::clone(slot.get_or_insert_with(|| self.solver.config().build_backend_for(backend)))
    }

    /// Solves `pending` and resolves its ticket. When `insert_key` is set (cache
    /// enabled and the solve is cacheable), a successful solve is inserted into the
    /// cache and the stored entry returned (with the solve time) so the caller can
    /// serve coalesced followers from it. A `route` tag overrides the
    /// primary/degraded backend pair with the routed backend and feeds the solve
    /// back into the router's profiles.
    #[allow(clippy::too_many_arguments)]
    fn solve_and_resolve(
        &mut self,
        pending: Pending,
        degrade: bool,
        dequeued_at: Instant,
        batch_size: usize,
        insert_key: Option<u128>,
        route: Option<RouteTag>,
    ) -> Option<(Arc<CachedEntry>, Duration)> {
        let queue_wait = dequeued_at.saturating_duration_since(pending.submitted_at);
        let backend = match route {
            Some(tag) => self.routed_backend(tag.backend),
            None if degrade => Arc::clone(&self.degraded),
            None => Arc::clone(&self.primary),
        };
        let backend = &backend;
        let trace = pending.trace;
        let submitted_at = pending.submitted_at;
        // Stage spans recorded by the pipeline observer during this solve are
        // attributed to this request.
        self.observer.set_trace(trace);
        let solve_started = Instant::now();
        // Contain per-request panics: one poisoned instance must not take the
        // worker (and with it every queued client) down. The scratch context is
        // behaviourally transparent — buffers are cleared or re-validated before
        // use — so reusing it after an unwind is safe, mirroring how the core
        // solver recovers its own poisoned context mutex.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.solver.solve_reusing_observed(
                &pending.request.instance,
                backend,
                &mut self.observer,
                &mut self.ctx,
            )
        }));
        let result = caught.unwrap_or_else(|panic| {
            let reason = panic
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "solver panicked".to_string());
            // The contained panic is the fleet's crash-detection signal: a shard
            // whose panic count grows is poisoned and gets recycled by the
            // reconciler even though the worker thread itself survived.
            self.metrics.record_worker_panic();
            Err(taxi::TaxiError::Backend {
                backend: "dispatch".to_string(),
                reason: format!("solve panicked: {reason}"),
            })
        });
        let finished = Instant::now();
        self.observer.set_trace(taxi_trace::TraceId::NONE);
        let solve_time = finished.saturating_duration_since(solve_started);
        let end_to_end = finished.saturating_duration_since(pending.submitted_at);
        if let Some(ctx) = &self.trace {
            if trace.is_some() {
                ctx.sink().record(
                    trace,
                    SpanName::Solve,
                    solve_started,
                    solve_time,
                    &[
                        (AttrKey::Worker, self.index as u64),
                        (AttrKey::BatchSize, batch_size as u64),
                        (AttrKey::Degraded, u64::from(degrade)),
                        (AttrKey::Cities, pending.request.instance.dimension() as u64),
                    ],
                );
            }
        }
        match result {
            Ok(solution) => {
                let solution = Arc::new(solution);
                if let Some(tag) = route {
                    let router = self.router.expect("route tags only exist with a router");
                    let quality = router.observe(
                        &pending.request.instance,
                        tag.backend,
                        solve_time,
                        solution.length,
                    );
                    self.metrics
                        .record_routed(tag.backend, tag.explored, quality, solve_time);
                }
                let entry = insert_key.zip(self.cache).map(|(key, cache)| {
                    cache.insert(key, &pending.request.instance, Arc::clone(&solution))
                });
                let missed_deadline = pending.deadline.is_some_and(|d| finished > d);
                self.metrics.record_completed(
                    queue_wait,
                    solve_time,
                    end_to_end,
                    degrade,
                    missed_deadline,
                );
                pending.resolve(DispatchOutcome::Solved(Box::new(SolvedResponse {
                    solution,
                    queue_wait,
                    solve_time,
                    end_to_end,
                    degraded: degrade,
                    batch_size,
                    worker: self.index,
                    missed_deadline,
                    cache_hit: false,
                    coalesced: false,
                    routed: route.map(|tag| tag.backend),
                    explored: route.is_some_and(|tag| tag.explored),
                })));
                if let Some(ctx) = &self.trace {
                    let mut facts = RequestFacts::completed(end_to_end);
                    if missed_deadline {
                        facts = facts.deadline_missed();
                    }
                    ctx.finish(trace, submitted_at, &facts);
                }
                entry.map(|entry| (entry, solve_time))
            }
            Err(error) => {
                self.metrics.record_failed();
                pending.resolve(DispatchOutcome::Failed(error));
                if let Some(ctx) = &self.trace {
                    ctx.finish(
                        trace,
                        submitted_at,
                        &RequestFacts::completed(end_to_end).failed(),
                    );
                }
                None
            }
        }
    }

    /// Resolves `pending` from a cached solution found by the worker-side re-check
    /// (it was solved while this request sat in the queue).
    fn resolve_late_hit(
        &self,
        pending: Pending,
        solution: Arc<taxi::TaxiSolution>,
        routed: Option<SolverBackend>,
    ) {
        let now = Instant::now();
        let end_to_end = now.saturating_duration_since(pending.submitted_at);
        // Unlike an admission-time hit, this request genuinely waited in the queue
        // (service ends the instant it is dequeued and re-checked).
        self.metrics.record_late_cache_hit(end_to_end, end_to_end);
        let missed_deadline = pending.deadline.is_some_and(|d| now > d);
        let trace = pending.trace;
        let submitted_at = pending.submitted_at;
        if let Some(ctx) = &self.trace {
            if trace.is_some() {
                ctx.sink().record(
                    trace,
                    SpanName::CacheLateHit,
                    now,
                    Duration::ZERO,
                    &[(AttrKey::Worker, self.index as u64), (AttrKey::Hit, 1)],
                );
            }
        }
        pending.resolve(DispatchOutcome::Solved(Box::new(SolvedResponse {
            solution,
            queue_wait: end_to_end,
            solve_time: Duration::ZERO,
            end_to_end,
            degraded: false,
            batch_size: 0,
            worker: self.index,
            missed_deadline,
            cache_hit: true,
            coalesced: false,
            routed,
            explored: false,
        })));
        if let Some(ctx) = &self.trace {
            let mut facts = RequestFacts::completed(end_to_end);
            if missed_deadline {
                facts = facts.deadline_missed();
            }
            ctx.finish(trace, submitted_at, &facts);
        }
    }

    /// Resolves a coalesced follower from the leader's freshly inserted entry.
    fn resolve_follower(
        &self,
        pending: Pending,
        entry: &Arc<CachedEntry>,
        leader_solve_time: Duration,
        batch_size: usize,
        routed: Option<SolverBackend>,
    ) {
        let cache = self.cache.expect("followers only exist with a cache");
        let hit = cache.serve(entry, &pending.request.instance);
        let now = Instant::now();
        let end_to_end = now.saturating_duration_since(pending.submitted_at);
        let queue_wait = end_to_end.saturating_sub(leader_solve_time);
        let missed_deadline = pending.deadline.is_some_and(|d| now > d);
        self.metrics
            .record_coalesced(queue_wait, end_to_end, missed_deadline);
        let trace = pending.trace;
        let submitted_at = pending.submitted_at;
        if let Some(ctx) = &self.trace {
            if trace.is_some() {
                ctx.sink().record(
                    trace,
                    SpanName::Coalesce,
                    now,
                    Duration::ZERO,
                    &[
                        (AttrKey::Worker, self.index as u64),
                        (AttrKey::BatchSize, batch_size as u64),
                    ],
                );
            }
        }
        pending.resolve(DispatchOutcome::Solved(Box::new(SolvedResponse {
            solution: hit.solution,
            queue_wait,
            solve_time: leader_solve_time,
            end_to_end,
            degraded: false,
            batch_size,
            worker: self.index,
            missed_deadline,
            cache_hit: false,
            coalesced: true,
            routed,
            explored: false,
        })));
        if let Some(ctx) = &self.trace {
            let mut facts = RequestFacts::completed(end_to_end);
            if missed_deadline {
                facts = facts.deadline_missed();
            }
            ctx.finish(trace, submitted_at, &facts);
        }
    }
}

/// The steady-state serving loop of one worker.
fn worker_loop(
    index: usize,
    config: &DispatchConfig,
    router: Option<&Arc<AdaptiveRouter>>,
    queue: &Arc<DispatchQueue>,
    metrics: &Arc<ServiceMetrics>,
    coalescer: &Arc<Coalescer>,
) {
    // Parallelism comes from the worker pool; intra-instance fan-out would oversubscribe
    // the host and spawn a thread pool per solve call.
    let solver_config = config.solver.clone().with_threads(1);
    let solver = TaxiSolver::new(solver_config.clone());
    let trace = config
        .trace
        .as_ref()
        .map(|tracer| TraceCtx::new(tracer, &format!("worker-{index}"), config.trace_site));
    let observer = match &trace {
        Some(ctx) => TracingObserver::with_sink(
            MetricsObserver::new(Arc::clone(metrics)),
            ctx.sink().clone(),
        ),
        None => TracingObserver::new(MetricsObserver::new(Arc::clone(metrics))),
    };
    let mut worker = Worker {
        index,
        primary: solver_config.build_backend(),
        degraded: solver_config
            .clone()
            .with_backend(config.degraded_backend)
            .build_backend(),
        routed_backends: std::array::from_fn(|_| None),
        solver,
        ctx: SolveContext::new(),
        observer,
        metrics,
        cache: config.cache.as_ref(),
        router,
        trace,
    };
    let batcher = MicroBatcher::new(Arc::clone(queue), config.batch);
    let mut batch: Vec<Pending> = Vec::with_capacity(config.batch.max_batch);
    let mut routed: Vec<(Pending, RoutingDecision, bool)> =
        Vec::with_capacity(config.batch.max_batch);

    while let Some(meta) = batcher.next_batch(&mut batch) {
        metrics.record_batch(batch.len());
        let batch_size = batch.len();
        // One clock read per batch: every request in it was dequeued at this instant.
        let dequeued_at = Instant::now();
        if let Some(ctx) = &worker.trace {
            // Batch formation is shared work: one instantaneous span, attributed
            // to the first traced member.
            if let Some(first) = batch.iter().find(|p| p.trace.is_some()) {
                ctx.sink().record(
                    first.trace,
                    SpanName::Batch,
                    dequeued_at,
                    Duration::ZERO,
                    &[
                        (AttrKey::BatchSize, batch_size as u64),
                        (AttrKey::Worker, index as u64),
                        (AttrKey::Overloaded, u64::from(meta.overloaded)),
                    ],
                );
            }
        }
        match worker.router {
            Some(router) => {
                // Route the whole batch up front, then group same-backend solves
                // adjacently within each priority class — warm per-size macros and
                // scratch stay hot across neighbouring solves. The sort keys on
                // (priority, backend) and is stable, so interactive work still runs
                // before bulk (grouping must not let a bulk solve push an
                // interactive deadline past the slack its routing was judged
                // against) and deadline order is preserved within each group.
                for pending in batch.drain(..) {
                    let mut slack = pending
                        .deadline
                        .map(|d| d.saturating_duration_since(dequeued_at));
                    let degrade = meta.overloaded && pending.request.priority == Priority::Bulk;
                    if degrade {
                        // Degradation under routing: a tighter latency budget, not a
                        // hard-coded cheap backend — the router picks whatever
                        // backend its profiles say meets the clamped slack.
                        let budget = config.degraded_budget;
                        slack = Some(slack.map_or(budget, |s| s.min(budget)));
                    }
                    let route_started = Instant::now();
                    let decision = router.route(&pending.request.instance, slack);
                    if let Some(ctx) = &worker.trace {
                        if pending.trace.is_some() {
                            ctx.sink().record(
                                pending.trace,
                                SpanName::Route,
                                route_started,
                                route_started.elapsed(),
                                &[
                                    (AttrKey::Backend, decision.backend.index() as u64),
                                    (AttrKey::Decision, u64::from(decision.kind.code())),
                                    (AttrKey::Explored, u64::from(decision.explored())),
                                    (AttrKey::ExcludedMask, u64::from(decision.excluded)),
                                ],
                            );
                        }
                    }
                    routed.push((pending, decision, degrade));
                }
                routed.sort_by_key(|(pending, decision, _)| {
                    (pending.request().priority, decision.backend.index())
                });
                for (pending, decision, degrade) in routed.drain(..) {
                    // Routed solves are cacheable regardless of degradation: the
                    // key is scoped to the chosen backend, and a budget-tightened
                    // solve is still that backend's genuine answer.
                    let key = worker.cache.map(|cache| {
                        cache.key(
                            worker.solver.routed_cache_token(decision.backend),
                            &pending.request.instance,
                        )
                    });
                    serve_one(
                        &mut worker,
                        coalescer,
                        pending,
                        degrade,
                        Some(RouteTag::of(&decision)),
                        key,
                        dequeued_at,
                        batch_size,
                    );
                }
            }
            None => {
                for pending in batch.drain(..) {
                    let degrade = meta.overloaded && pending.request.priority == Priority::Bulk;
                    // The memoization path serves only primary-backend work: a
                    // degraded solve must neither poison the cache nor satisfy
                    // coalesced followers who were promised the primary answer.
                    let cached_key = if degrade { None } else { pending.cache_key };
                    serve_one(
                        &mut worker,
                        coalescer,
                        pending,
                        degrade,
                        None,
                        cached_key,
                        dequeued_at,
                        batch_size,
                    );
                }
            }
        }
    }
}

/// Serves one pending through the cache/coalescing machinery (or solves it directly
/// when no cache key applies). Shared by the routed and fixed-backend paths: only
/// the backend selection (`route`) and the key scope differ.
#[allow(clippy::too_many_arguments)]
fn serve_one(
    worker: &mut Worker<'_>,
    coalescer: &Coalescer,
    pending: Pending,
    degrade: bool,
    route: Option<RouteTag>,
    cached_key: Option<u128>,
    dequeued_at: Instant,
    batch_size: usize,
) {
    let routed_backend = route.map(|tag| tag.backend);
    // Follower re-solves reuse the leader's backend choice but are not exploration
    // events themselves (the router already counted the decision once).
    let resolve_route = route.map(|tag| RouteTag {
        explored: false,
        ..tag
    });
    if let Some(ctx) = &worker.trace {
        if pending.trace.is_some() {
            ctx.sink().record(
                pending.trace,
                SpanName::QueueWait,
                pending.submitted_at,
                dequeued_at.saturating_duration_since(pending.submitted_at),
                &[(AttrKey::Worker, worker.index as u64)],
            );
        }
    }
    let Some((cache, key)) = worker.cache.zip(cached_key) else {
        let _ = worker.solve_and_resolve(pending, degrade, dequeued_at, batch_size, None, route);
        return;
    };
    // Re-check the cache by key: an identical instance may have been solved while
    // this request sat in the queue (e.g. by the leader of an earlier batch). The
    // probe neither re-fingerprints on a miss nor re-counts the admission-time miss.
    let probe_started = Instant::now();
    let probed = cache.lookup_keyed(key, &pending.request.instance);
    if let Some(ctx) = &worker.trace {
        if pending.trace.is_some() {
            ctx.sink().record(
                pending.trace,
                SpanName::CacheLookup,
                probe_started,
                probe_started.elapsed(),
                &[(AttrKey::Hit, u64::from(probed.is_some()))],
            );
        }
    }
    if let Some(hit) = probed {
        worker.resolve_late_hit(pending, hit.solution, routed_backend);
        return;
    }
    match coalescer.lead_or_attach(key, pending) {
        // A leader elsewhere is already solving this key; it will resolve this
        // pending when it completes.
        CoalesceRole::Attached => {}
        CoalesceRole::Lead(pending) => {
            // Double-check after election: the previous leader may have inserted
            // between our probe above and its `take` retiring the flight
            // (attach-after-take race) — without this, two fresh solves of one key
            // could slip through.
            if let Some(hit) = cache.lookup_keyed(key, &pending.request.instance) {
                worker.resolve_late_hit(pending, hit.solution, routed_backend);
                for follower in coalescer.take(key) {
                    match cache.lookup_keyed(key, &follower.request.instance) {
                        Some(hit) => {
                            worker.resolve_late_hit(follower, hit.solution, routed_backend)
                        }
                        // Evicted in the meantime: solve it individually.
                        None => {
                            let _ = worker.solve_and_resolve(
                                follower,
                                false,
                                dequeued_at,
                                batch_size,
                                None,
                                resolve_route,
                            );
                        }
                    }
                }
                return;
            }
            let led = worker.solve_and_resolve(
                pending,
                degrade,
                dequeued_at,
                batch_size,
                Some(key),
                route,
            );
            let followers = coalescer.take(key);
            match led {
                Some((entry, solve_time)) => {
                    for follower in followers {
                        worker.resolve_follower(
                            follower,
                            &entry,
                            solve_time,
                            batch_size,
                            routed_backend,
                        );
                    }
                }
                // The leader's solve failed: it fails only its own ticket.
                // Followers re-solve individually (no coalescing, no insert — if
                // the failure is systematic each gets its own error).
                None => {
                    for follower in followers {
                        let _ = worker.solve_and_resolve(
                            follower,
                            false,
                            dequeued_at,
                            batch_size,
                            None,
                            resolve_route,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxi_tsplib::generator::clustered_instance;

    #[test]
    fn config_builders_compose() {
        let config = DispatchConfig::new()
            .with_workers(0)
            .with_queue_capacity(32)
            .with_admission(AdmissionPolicy::Reject)
            .with_batch(BatchPolicy::new().with_max_batch(4))
            .with_degraded_backend(SolverBackend::GreedyEdge);
        assert_eq!(config.workers, 1, "zero workers clamps to one");
        assert_eq!(config.queue_capacity, 32);
        assert_eq!(config.admission, AdmissionPolicy::Reject);
        assert_eq!(config.batch.max_batch, 4);
        assert_eq!(config.degraded_backend, SolverBackend::GreedyEdge);
    }

    #[test]
    fn service_solves_and_shuts_down_cleanly() {
        let service = DispatchService::start(
            DispatchConfig::new()
                .with_workers(2)
                .with_solver(TaxiConfig::new().with_seed(3)),
        );
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                service
                    .submit(DispatchRequest::new(clustered_instance(
                        "svc",
                        40 + 5 * i,
                        3,
                        i as u64,
                    )))
                    .expect("admitted")
            })
            .collect();
        for ticket in tickets {
            let response = ticket.wait().solved().expect("solved");
            assert!(response.solution.length > 0.0);
            assert!(response.end_to_end >= response.solve_time);
        }
        let snapshot = service.shutdown();
        assert_eq!(snapshot.completed, 6);
        assert_eq!(snapshot.failed, 0);
        assert!(snapshot.batches >= 1);
    }

    #[test]
    fn queued_work_survives_shutdown() {
        // Submissions admitted before `shutdown` must all resolve (drain semantics).
        let service = DispatchService::start(
            DispatchConfig::new()
                .with_workers(1)
                .with_solver(TaxiConfig::new().with_seed(1)),
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                service
                    .submit(DispatchRequest::new(clustered_instance("drain", 30, 3, i)))
                    .expect("admitted")
            })
            .collect();
        let snapshot = service.shutdown();
        assert_eq!(snapshot.completed + snapshot.failed, 4);
        for ticket in tickets {
            assert!(ticket.try_take().is_some(), "ticket resolved by drain");
        }
    }

    #[test]
    fn drain_returns_backlog_and_keeps_tickets_alive() {
        // A tiny linger and one worker let a backlog build; drain must hand the
        // queued-but-unstarted pendings back with their tickets still resolvable.
        let service = DispatchService::start(
            DispatchConfig::new()
                .with_workers(1)
                .with_batch(BatchPolicy::new().with_max_batch(1))
                .with_solver(TaxiConfig::new().with_seed(7)),
        );
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                service
                    .submit(DispatchRequest::new(clustered_instance("mig", 40, 3, i)))
                    .expect("admitted")
            })
            .collect();
        let drained = service.drain();
        // Everything admitted is accounted for: either a worker has it (and will
        // resolve it) or it is in the drained backlog.
        assert!(matches!(
            service.submit(DispatchRequest::new(clustered_instance("mig", 40, 3, 99))),
            Err(SubmitError::ShuttingDown(_))
        ));
        // Adopt the backlog into a fresh service: original tickets must resolve.
        let adopter = DispatchService::start(
            DispatchConfig::new()
                .with_workers(1)
                .with_solver(TaxiConfig::new().with_seed(7)),
        );
        for pending in drained {
            adopter.adopt(pending).expect("adopter is open");
        }
        for ticket in tickets {
            assert!(
                ticket.wait().solved().is_some(),
                "every admitted ticket resolves after migration"
            );
        }
        // Drained service quiesces on its own; shutdown after drain is cheap.
        let snapshot = adopter.shutdown();
        assert_eq!(snapshot.failed, 0);
        drop(service);
    }

    #[test]
    fn submit_racing_drain_is_refused_or_served_but_never_lost() {
        // Hammer submissions from several threads while the main thread drains:
        // every Ok ticket must resolve (served pre-drain, or adopted post-drain),
        // every refusal must be ShuttingDown with the request riding back.
        let service = Arc::new(DispatchService::start(
            DispatchConfig::new()
                .with_workers(2)
                .with_solver(TaxiConfig::new().with_seed(5)),
        ));
        let submitters: Vec<_> = (0..4)
            .map(|t: u64| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    // Submit until the drain refuses us — guarantees every thread
                    // genuinely races the drain at least once.
                    let mut admitted = Vec::new();
                    for i in 0.. {
                        let request = DispatchRequest::new(clustered_instance(
                            "race",
                            30,
                            3,
                            t * 100_000 + i,
                        ));
                        match service.submit(request) {
                            Ok(ticket) => admitted.push(ticket),
                            Err(SubmitError::ShuttingDown(_)) => break,
                            Err(other) => panic!("unexpected admission error: {other}"),
                        }
                    }
                    admitted
                })
            })
            .collect();
        // Let some submissions land, then drain mid-stream.
        std::thread::sleep(Duration::from_millis(5));
        let drained = service.drain();
        let adopter = DispatchService::start(
            DispatchConfig::new()
                .with_workers(2)
                .with_solver(TaxiConfig::new().with_seed(5)),
        );
        for pending in drained {
            adopter.adopt(pending).expect("adopter is open");
        }
        let mut total_admitted = 0u64;
        for submitter in submitters {
            // Each thread ran until it observed `ShuttingDown`, so all four raced
            // the drain; every ticket it did get must still resolve.
            for ticket in submitter.join().unwrap() {
                total_admitted += 1;
                assert!(
                    ticket.wait().solved().is_some(),
                    "admitted ticket must resolve despite the racing drain"
                );
            }
        }
        let merged = ServiceMetrics::new();
        merged.merge_from(service.metrics());
        merged.merge_from(adopter.metrics());
        let _ = adopter.shutdown();
        assert_eq!(
            merged.snapshot().completed,
            total_admitted,
            "fleet-level accounting: completions across both services cover every ticket"
        );
    }

    fn temp_snapshot_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "taxi-dispatch-service-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ))
    }

    #[test]
    fn snapshot_policy_serves_warm_bit_identical_after_restart() {
        let dir = temp_snapshot_dir("warm");
        let solver = TaxiConfig::new().with_seed(3);
        let config = |cache: Arc<SolutionCache>| {
            DispatchConfig::new()
                .with_workers(1)
                .with_solver(solver.clone())
                .with_cache(cache)
                // Interval zero: only the shutdown snapshot writes — the test
                // exercises exactly the generation-to-generation handoff.
                .with_snapshot_policy(SnapshotPolicy::new(&dir).with_interval(Duration::ZERO))
        };

        // Generation 1: serve four distinct instances fresh, then shut down
        // (which persists the final snapshot).
        let service = DispatchService::start(config(Arc::new(SolutionCache::with_defaults())));
        let mut first: Vec<(f64, Vec<usize>)> = Vec::new();
        for i in 0..4 {
            let response = service
                .submit(DispatchRequest::new(clustered_instance("wrm", 36, 3, i)))
                .expect("admitted")
                .wait()
                .solved()
                .expect("solved");
            assert!(!response.cache_hit);
            first.push((
                response.solution.length,
                response.solution.tour.order().to_vec(),
            ));
        }
        let gen1 = service.shutdown();
        assert_eq!(gen1.snapshots_written, 1, "shutdown persisted the state");
        assert!(gen1.last_snapshot_age.is_some());

        // Generation 2: a fresh cache object, same policy — start restores the
        // snapshot and every repeat is a bit-identical cache hit.
        let service = DispatchService::start(config(Arc::new(SolutionCache::with_defaults())));
        for (i, (length, order)) in first.iter().enumerate() {
            let response = service
                .submit(DispatchRequest::new(clustered_instance(
                    "wrm", 36, 3, i as u64,
                )))
                .expect("admitted")
                .wait()
                .solved()
                .expect("solved");
            assert!(response.cache_hit, "restored entry serves instance {i}");
            assert_eq!(response.solution.length.to_bits(), length.to_bits());
            assert_eq!(response.solution.tour.order(), &order[..]);
        }
        let gen2 = service.shutdown();
        assert_eq!(gen2.snapshots_restored, 1);
        assert_eq!(gen2.snapshots_rejected, 0);
        assert_eq!(gen2.cache_hits, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_cold_starts_and_counts_rejected() {
        let dir = temp_snapshot_dir("corrupt");
        let solver = TaxiConfig::new().with_seed(9);
        let config = |cache: Arc<SolutionCache>| {
            DispatchConfig::new()
                .with_workers(1)
                .with_solver(solver.clone())
                .with_cache(cache)
                .with_snapshot_policy(SnapshotPolicy::new(&dir).with_interval(Duration::ZERO))
        };
        let service = DispatchService::start(config(Arc::new(SolutionCache::with_defaults())));
        let first = service
            .submit(DispatchRequest::new(clustered_instance("cor", 30, 3, 1)))
            .expect("admitted")
            .wait()
            .solved()
            .expect("solved");
        service.shutdown();

        // Flip one payload byte: the restore must reject, the service must
        // still serve (cold), and the next shutdown rewrites a good snapshot.
        let path = crate::snapshot::shard_snapshot_path(&dir, 0);
        let mut bytes = std::fs::read(&path).expect("snapshot written");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).expect("corrupt in place");

        let service = DispatchService::start(config(Arc::new(SolutionCache::with_defaults())));
        let response = service
            .submit(DispatchRequest::new(clustered_instance("cor", 30, 3, 1)))
            .expect("admitted")
            .wait()
            .solved()
            .expect("served cold");
        assert!(!response.cache_hit, "corrupt snapshot must not serve hits");
        // The cold answer is generation 1's, bit for bit.
        assert_eq!(
            response.solution.length.to_bits(),
            first.solution.length.to_bits()
        );
        assert_eq!(response.solution.tour.order(), first.solution.tour.order());
        let snapshot = service.shutdown();
        assert_eq!(snapshot.snapshots_rejected, 1);
        assert_eq!(snapshot.snapshots_restored, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_housekeeper_writes_on_cadence() {
        let dir = temp_snapshot_dir("periodic");
        let service = DispatchService::start(
            DispatchConfig::new()
                .with_workers(1)
                .with_cache(Arc::new(SolutionCache::with_defaults()))
                .with_snapshot_policy(
                    SnapshotPolicy::new(&dir)
                        .with_interval(Duration::from_millis(20))
                        .with_jitter(Duration::from_millis(5)),
                ),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.snapshot().snapshots_written < 2 {
            assert!(Instant::now() < deadline, "housekeeper writes periodically");
            std::thread::sleep(Duration::from_millis(5));
        }
        let age = service
            .snapshot()
            .last_snapshot_age
            .expect("age tracked after a write");
        assert!(age < Duration::from_secs(5));
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_now_is_a_no_op_without_a_policy() {
        let service = DispatchService::start(DispatchConfig::new().with_workers(1));
        assert!(!service.snapshot_now().expect("no-op succeeds"));
        let snapshot = service.shutdown();
        assert_eq!(snapshot.snapshots_written, 0);
    }

    #[test]
    fn failed_solves_resolve_with_the_error() {
        let instance = taxi_tsplib::TspInstance::from_matrix(
            "m",
            taxi_dist::DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap(),
        )
        .unwrap();
        let service = DispatchService::start(DispatchConfig::new().with_workers(1));
        let ticket = service.submit(DispatchRequest::new(instance)).unwrap();
        assert!(matches!(ticket.wait(), DispatchOutcome::Failed(_)));
        let snapshot = service.shutdown();
        assert_eq!(snapshot.failed, 1);
        assert_eq!(snapshot.completed, 0);
    }
}
