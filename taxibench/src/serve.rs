//! `serve-fresh` and `serve-zipf`: a `Fleet` of 2 shards × 1 worker under
//! open-loop Poisson arrivals sent from this single thread. Each request is
//! timed from its scheduled send time, so a stalled generator or a growing
//! queue shows up in the latencies instead of slowing the offered load.

use std::sync::Arc;
use std::time::{Duration, Instant};

use taxi::cache::{CacheLookup, CachePolicy, SolutionCache};
use taxi::{TaxiConfig, TaxiSolver};
use taxi_dispatch::{
    ArrivalProcess, DispatchOutcome, DispatchRequest, RequestMix, Scenario, SolvedResponse,
    Workload, WorkloadConfig,
};
use taxi_fleet::{Fleet, FleetConfig, FleetSnapshot, HashRing, HealthPolicy, ShardId};
use taxi_tsplib::fingerprint::canonical_fingerprint;
use taxi_tsplib::TspInstance;

use crate::layers::{self, Layers, TracedSolves};
use crate::report::Report;
use crate::{check, stats, Args};

const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
/// Virtual nodes per shard on the fleet's hash ring (the `FleetConfig` default).
const RING_REPLICAS: usize = 64;
/// Fleet start-ups per phase, `SETUP_GAP` apart; `setup_s` is their median.
/// Spacing them out samples the host over a second instead of one burst.
const SETUP_REPEATS: usize = 15;
const SETUP_GAP: Duration = Duration::from_millis(100);
/// Served responses per kind (fresh solve, cache hit, coalesced) compared bit
/// for bit with an offline solve of the same instance.
const CHECK_SAMPLES: usize = 12;
/// Scored requests whose tours are compared with a heuristic reference tour.
const RATIO_SAMPLES: usize = 128;
/// Scored instances re-solved offline with per-layer timing.
const PROBE_SAMPLES: usize = 16;
/// Full-size sub-problems kept for the crossbar kernel replay.
const KERNEL_SAMPLES: usize = 256;
/// `Fleet::scrape_now` calls timed for `obs.scrape_us`.
const SCRAPES: usize = 20;

/// Which instance each request asks for.
#[derive(Clone, Copy)]
pub enum Mix {
    /// Every request is a distinct instance: the cache only ever inserts.
    Fresh,
    /// Zipf-popular routes from a pool larger than the fleet-wide cache.
    Zipf,
}

/// The fixed traffic and fleet parameters of a workload.
struct Plan {
    rate_hz: f64,
    latency_limit: Duration,
    warmup_s: f64,
    cache: CachePolicy,
    mix: RequestMix,
    sizes: (usize, usize),
}

impl Mix {
    fn plan(self) -> Plan {
        match self {
            Mix::Fresh => Plan {
                rate_hz: 100.0,
                latency_limit: Duration::from_millis(50),
                warmup_s: 1.0,
                cache: CachePolicy::new(),
                mix: RequestMix::Fresh,
                sizes: (100, 200),
            },
            // One route size: the admission path's cost grows with the instance
            // (fingerprinting sorts its cities), so mixed sizes would make the
            // median hit latency depend on which routes the seed puts at the head.
            Mix::Zipf => Plan {
                rate_hz: 600.0,
                latency_limit: Duration::from_millis(25),
                warmup_s: 3.0,
                cache: CachePolicy::new().with_max_entries(512),
                mix: RequestMix::PopularRoutes {
                    routes: 4000,
                    exponent: 1.0,
                },
                sizes: (100, 100),
            },
        }
    }
}

/// The per-request solver configuration (the paper's defaults; each worker
/// solves with one thread).
fn solver_config() -> TaxiConfig {
    TaxiConfig::new()
}

fn fleet_config(plan: &Plan) -> FleetConfig {
    // The cache-hit-collapse probe would mark every shard unhealthy under
    // all-distinct traffic and recycle it after the degraded SLA, so it is
    // switched off; every other probe keeps its default threshold.
    let health = HealthPolicy {
        cache_hit_floor: 0.0,
        ..HealthPolicy::new()
    };
    FleetConfig::new()
        .with_shards(SHARDS)
        .with_shard_config(
            taxi_dispatch::DispatchConfig::new()
                .with_workers(WORKERS_PER_SHARD)
                .with_solver(solver_config()),
        )
        .with_cache_policy(plan.cache)
        .with_health(health)
}

/// Everything one pass of the request stream produced.
struct Phase {
    setup_s: f64,
    /// Requests before this index are warm-up and not scored.
    warm: usize,
    instances: Vec<TspInstance>,
    /// Scheduled send offsets, lateness of the actual send, and duration of the
    /// `Fleet::submit` call, in seconds.
    due: Vec<f64>,
    lag: Vec<f64>,
    submit: Vec<f64>,
    responses: Vec<Option<SolvedResponse>>,
    snapshot: FleetSnapshot,
    scrape_us: f64,
}

impl Phase {
    fn scored(&self) -> impl Iterator<Item = (usize, &SolvedResponse)> + '_ {
        (self.warm..self.responses.len()).filter_map(|i| self.responses[i].as_ref().map(|r| (i, r)))
    }

    /// Client-side latency of request `i`: lateness of its send plus the later of
    /// the submit call's return and the service's own submission-to-resolution
    /// time (an admission-time cache hit resolves inside the submit call).
    fn e2e(&self, i: usize, response: &SolvedResponse) -> f64 {
        self.lag[i] + self.submit[i].max(response.end_to_end.as_secs_f64())
    }

    fn e2e_sorted(&self) -> Vec<f64> {
        stats::sorted(self.scored().map(|(i, r)| self.e2e(i, r)).collect())
    }
}

fn ran_pipeline(response: &SolvedResponse) -> bool {
    !response.cache_hit && !response.coalesced
}

/// Generates the stream: `warmup_s` of unscored requests, then `seconds` of
/// scored ones, at the plan's mean rate.
fn generate(plan: &Plan, seed: u64, seconds: f64) -> (Workload, usize) {
    let warm = (plan.rate_hz * plan.warmup_s).ceil() as usize;
    let scored = (plan.rate_hz * seconds).ceil().max(1.0) as usize;
    let config = WorkloadConfig::new(Scenario::CityDistricts { districts: 6 })
        .with_arrivals(ArrivalProcess::Poisson {
            rate_hz: plan.rate_hz,
        })
        .with_mix(plan.mix)
        .with_requests(warm + scored)
        .with_size_range(plan.sizes.0, plan.sizes.1)
        .with_interactive_fraction(0.0)
        .with_seed(seed);
    (Workload::generate(config), warm)
}

/// The generator sleeps until this long before a send is due and spins for
/// the rest, so sends leave on time instead of at the timer's wake-up.
const SPIN_MARGIN: Duration = Duration::from_micros(100);

fn wait_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now + SPIN_MARGIN {
        std::thread::sleep(deadline - now - SPIN_MARGIN);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// One priming instance per shard: candidates are generated until the ring has
/// given every shard one. They do not depend on the workload seed, so set-up
/// does the same work in every run.
fn priming_instances() -> Vec<TspInstance> {
    let ring = fleet_ring();
    let mut primes: Vec<Option<TspInstance>> = vec![None; SHARDS];
    for k in 0u64.. {
        let instance = Scenario::CityDistricts { districts: 6 }.generate(
            &format!("prime-{k}"),
            150,
            0x5EED_0000 + k,
        );
        let owner = ring
            .route(canonical_fingerprint(&instance).0.as_u128())
            .expect("ring has members");
        primes[owner.index()].get_or_insert(instance);
        if primes.iter().all(Option::is_some) {
            break;
        }
    }
    primes.into_iter().flatten().collect()
}

/// Starts a fleet and returns once every shard has served one priming request
/// (so its worker has solved once and its routing entry is live). The shards
/// are primed one after the other, so a set-up is the sum of the shards' first
/// solves rather than the slower of two that compete for the host's cores.
fn start_fleet(config: &FleetConfig, primes: &[TspInstance]) -> Result<Fleet, String> {
    let fleet = Fleet::start(config.clone());
    for instance in primes {
        let ticket = fleet
            .submit(DispatchRequest::new(instance.clone()))
            .map_err(|e| format!("priming request refused: {e}"))?;
        if ticket.wait().solved().is_none() {
            return Err("priming request was not solved".to_string());
        }
    }
    Ok(fleet)
}

/// The hash ring the fleet builds when every shard is serving.
fn fleet_ring() -> HashRing {
    let mut ring = HashRing::new(RING_REPLICAS);
    ring.rebuild(
        &(0..SHARDS)
            .map(|s| (ShardId::new(s), RING_REPLICAS))
            .collect::<Vec<_>>(),
    );
    ring
}

/// Starts the fleet (timed, repeated), sends the whole stream open-loop, waits
/// for every ticket and shuts the fleet down.
fn run_phase(plan: &Plan, seed: u64, seconds: f64, report: &mut Report) -> Phase {
    let (workload, warm) = generate(plan, seed, seconds);
    let instances: Vec<TspInstance> = workload
        .events()
        .iter()
        .map(|event| event.request.instance.clone())
        .collect();
    let schedule: Vec<(Duration, DispatchRequest)> = workload
        .into_events()
        .into_iter()
        .map(|event| (event.at, event.request))
        .collect();
    let config = fleet_config(plan);
    let primes = priming_instances();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut fleet = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = fleet.take() {
            Fleet::shutdown(previous);
            std::thread::sleep(SETUP_GAP);
        }
        let started = Instant::now();
        match start_fleet(&config, &primes) {
            Ok(started_fleet) => fleet = Some(started_fleet),
            Err(e) => report.fail(e),
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let fleet = fleet.unwrap_or_else(|| Fleet::start(config.clone()));

    let n = schedule.len();
    let mut due = Vec::with_capacity(n);
    let mut lag = Vec::with_capacity(n);
    let mut submit = Vec::with_capacity(n);
    let mut tickets = Vec::with_capacity(n);
    let origin = Instant::now() + Duration::from_millis(1);
    for (at, request) in schedule {
        let scheduled = origin + at;
        wait_until(scheduled);
        let sent = Instant::now();
        let ticket = fleet.submit(request);
        let returned = Instant::now();
        due.push(at.as_secs_f64());
        lag.push(sent.saturating_duration_since(scheduled).as_secs_f64());
        submit.push((returned - sent).as_secs_f64());
        tickets.push(ticket);
    }

    report.attempted += n as u64;
    let responses: Vec<Option<SolvedResponse>> = tickets
        .into_iter()
        .enumerate()
        .map(|(i, ticket)| {
            let outcome = match ticket {
                Ok(ticket) => ticket.wait(),
                Err(refused) => {
                    report.fail(format!("request {i} refused at submit: {refused}"));
                    return None;
                }
            };
            match outcome {
                DispatchOutcome::Solved(response) => Some(*response),
                DispatchOutcome::Shed { .. } => {
                    report.fail(format!("request {i} was shed"));
                    None
                }
                DispatchOutcome::Failed(e) => {
                    report.fail(format!("request {i} failed: {e}"));
                    None
                }
            }
        })
        .collect();
    let snapshot = fleet.snapshot();
    let started = Instant::now();
    for _ in 0..SCRAPES {
        fleet.scrape_now();
    }
    let scrape_us = started.elapsed().as_secs_f64() * 1e6 / SCRAPES as f64;
    fleet.shutdown();

    let phase = Phase {
        setup_s: stats::median(&stats::sorted(setups)),
        warm,
        instances,
        due,
        lag,
        submit,
        responses,
        snapshot,
        scrape_us,
    };
    check_phase(&phase, report);
    phase
}

/// Evenly spaced picks of at most `count` items.
fn spread<T: Copy>(items: &[T], count: usize) -> Vec<T> {
    if items.len() <= count {
        return items.to_vec();
    }
    (0..count).map(|k| items[k * items.len() / count]).collect()
}

/// Checks every served tour, and a sample of each response kind against an
/// offline `TaxiSolver::solve` of the same instance, bit for bit.
fn check_phase(phase: &Phase, report: &mut Report) {
    for (i, response) in phase.responses.iter().enumerate() {
        if let Some(response) = response {
            let solution = &response.solution;
            report.check(check::tour(
                &format!("served request {i}"),
                &phase.instances[i],
                &solution.tour,
                solution.length,
            ));
        }
    }
    let solver = TaxiSolver::new(solver_config().with_threads(1));
    let kinds: [fn(&SolvedResponse) -> bool; 3] = [
        ran_pipeline,
        |r: &SolvedResponse| r.cache_hit,
        |r: &SolvedResponse| r.coalesced,
    ];
    for kind in kinds {
        let indices: Vec<usize> = phase
            .scored()
            .filter(|(_, r)| kind(r))
            .map(|(i, _)| i)
            .collect();
        for i in spread(&indices, CHECK_SAMPLES) {
            let what = format!("served request {i} against an offline solve");
            match solver.solve(&phase.instances[i]) {
                Ok(offline) => {
                    let served = &phase.responses[i].as_ref().expect("scored").solution;
                    report.check(check::identical(&what, served, &offline));
                }
                Err(e) => report.fail(format!("{what}: {e}")),
            }
        }
    }
}

pub fn run(args: &Args, mix: Mix) -> Report {
    let plan = mix.plan();
    let mut report = Report::default();
    report.note(format!(
        "{SHARDS} shards x {WORKERS_PER_SHARD} worker, open-loop Poisson {} req/s, warm-up {} s, latency limit {:?}",
        plan.rate_hz, plan.warmup_s, plan.latency_limit
    ));
    if !args.trace {
        let phase = run_phase(&plan, args.seed, args.seconds, &mut report);
        end_to_end(&phase, &plan, &mut report);
        return report;
    }
    // Traced run: the same stream twice, untraced then traced, half the time each.
    let half = args.seconds / 2.0;
    let untraced = run_phase(&plan, args.seed, half, &mut report);
    let traced = run_phase(&plan, args.seed, half, &mut report);
    let mut layers = Layers {
        trace_overhead: stats::median(&traced.e2e_sorted()) / stats::median(&untraced.e2e_sorted())
            - 1.0,
        ..Layers::default()
    };
    layers.e2e_p99_ms = stats::percentile(&traced.e2e_sorted(), 99.0) * 1e3;
    serving_layers(&traced, &plan, &mut layers);
    solve_layers(&traced, args.seed, &mut layers, &mut report);
    layers.emit(&mut report);
    report
}

fn end_to_end(phase: &Phase, plan: &Plan, report: &mut Report) {
    let scored = phase.responses.len() - phase.warm;
    let e2e = phase.e2e_sorted();
    let limit = plan.latency_limit.as_secs_f64();
    let within = e2e.iter().filter(|&&t| t <= limit).count();
    let first_due = phase.due[phase.warm];
    let last_done = phase
        .scored()
        .map(|(i, r)| phase.due[i] + phase.e2e(i, r))
        .fold(first_due, f64::max);
    let served: Vec<&SolvedResponse> = phase.scored().map(|(_, r)| r).collect();
    let mean_of = |f: fn(&SolvedResponse) -> f64| {
        stats::mean(&served.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let scored_indices: Vec<usize> = phase.scored().map(|(i, _)| i).collect();
    let ratios: Vec<f64> = spread(&scored_indices, RATIO_SAMPLES)
        .into_iter()
        .map(|i| {
            let served = phase.responses[i].as_ref().expect("scored").solution.length;
            served / reference_length(&phase.instances[i])
        })
        .collect();

    let lags = stats::sorted(phase.scored().map(|(i, _)| phase.lag[i] * 1e3).collect());
    report.note(format!(
        "{scored} scored requests; e2e p99 {:.3} ms over {} samples (printed, not gated: see NOTES.md); generator lag p99 {:.3} ms, max {:.3} ms",
        stats::percentile(&e2e, 99.0) * 1e3,
        e2e.len(),
        stats::percentile(&lags, 99.0),
        lags.last().copied().unwrap_or(0.0)
    ));
    report.metric("setup_s", phase.setup_s, "s");
    report.metric("peak_rss_mb", stats::peak_rss_mib(), "MiB");
    report.metric("e2e_p50_ms", stats::median(&e2e) * 1e3, "ms");
    report.metric("slo_ok_ratio", within as f64 / scored as f64, "ratio");
    report.metric(
        "achieved_rps",
        served.len() as f64 / (last_done - first_due),
        "1/s",
    );
    report.metric("tour_ratio", stats::mean(&ratios), "ratio");
    report.metric(
        "chip_latency_s",
        mean_of(|r| check::chip_seconds(&r.solution)),
        "sim_s",
    );
    report.metric(
        "chip_energy_j",
        mean_of(|r| r.solution.energy.total_joules()),
        "sim_J",
    );
    report.metric("served_len_mean", mean_of(|r| r.solution.length), "length");
}

/// Heuristic reference length (nearest neighbour + 2-opt + Or-opt), the same
/// reference `taxi::experiments::reference_length` uses for small instances.
fn reference_length(instance: &TspInstance) -> f64 {
    let matrix = instance.full_distance_matrix();
    taxi_baselines::tour_length(&matrix, &taxi_baselines::reference_tour(&matrix))
}

/// Dispatch, cache, fingerprint, ring, obs and generator metrics of the traced
/// phase: read from the client's own records and the fleet snapshot, plus a
/// serial replay of the stream through the fleet's cache layout.
fn serving_layers(phase: &Phase, plan: &Plan, layers: &mut Layers) {
    let scored: Vec<(usize, &SolvedResponse)> = phase.scored().collect();
    let count = scored.len().max(1) as f64;
    let ratio =
        |f: fn(&SolvedResponse) -> bool| scored.iter().filter(|(_, r)| f(r)).count() as f64 / count;
    layers.cache_served_hit_ratio = ratio(|r| r.cache_hit);
    layers.cache_coalesced_ratio = ratio(|r| r.coalesced);

    let queued: Vec<&SolvedResponse> = scored
        .iter()
        .map(|&(_, r)| r)
        .filter(|r| !r.cache_hit)
        .collect();
    let solved: Vec<&SolvedResponse> = queued.iter().copied().filter(|r| ran_pipeline(r)).collect();
    let waits = stats::sorted(
        queued
            .iter()
            .map(|r| r.queue_wait.as_secs_f64() * 1e3)
            .collect(),
    );
    layers.queue_wait_ms_p50 = stats::median(&waits);
    layers.queue_wait_ms_p99 = stats::percentile(&waits, 99.0);
    layers.solve_ms_p50 = stats::median(&stats::sorted(
        solved
            .iter()
            .map(|r| r.solve_time.as_secs_f64() * 1e3)
            .collect(),
    ));
    layers.deliver_us = stats::mean(
        &solved
            .iter()
            .map(|r| {
                r.end_to_end
                    .saturating_sub(r.queue_wait + r.solve_time)
                    .as_secs_f64()
                    * 1e6
            })
            .collect::<Vec<_>>(),
    );
    layers.batch_size_mean = stats::mean(
        &queued
            .iter()
            .map(|r| r.batch_size as f64)
            .collect::<Vec<_>>(),
    );
    layers.admit_us = stats::mean(
        &scored
            .iter()
            .map(|&(i, _)| phase.submit[i] * 1e6)
            .collect::<Vec<_>>(),
    );
    layers.shed = phase.snapshot.service.shed as f64;
    layers.rejected = phase.snapshot.service.rejected as f64;
    let completed: Vec<f64> = phase
        .snapshot
        .shards
        .iter()
        .map(|shard| shard.service.as_ref().map_or(0.0, |s| s.completed as f64))
        .collect();
    layers.shard_skew =
        completed.iter().copied().fold(0.0, f64::max) / stats::mean(&completed).max(1.0);
    layers.scrape_us = phase.scrape_us;
    let lags = stats::sorted(scored.iter().map(|&(i, _)| phase.lag[i] * 1e3).collect());
    layers.gen_lag_ms = stats::percentile(&lags, 99.0);
    layers.gen_lag_max_ms = lags.last().copied().unwrap_or(0.0);

    // Fingerprint and ring route of every scored instance, timed in bulk.
    let started = Instant::now();
    let keys: Vec<u128> = phase.instances[phase.warm..]
        .iter()
        .map(|instance| canonical_fingerprint(instance).0.as_u128())
        .collect();
    layers.fingerprint_us = started.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64;
    let ring = fleet_ring();
    let started = Instant::now();
    let owners: Vec<ShardId> = keys
        .iter()
        .map(|&key| std::hint::black_box(ring.route(key)).expect("ring has members"))
        .collect();
    layers.route_ns = started.elapsed().as_secs_f64() * 1e9 / keys.len().max(1) as f64;

    replay_cache(phase, plan, &owners, layers);
}

/// Replays the whole stream serially through one cache per shard (same policy,
/// same ring ownership as the fleet), inserting each miss with the solution the
/// fleet served. Timing-free, so `cache.hit_ratio` repeats exactly at a seed.
fn replay_cache(phase: &Phase, plan: &Plan, scored_owners: &[ShardId], layers: &mut Layers) {
    let token = TaxiSolver::new(solver_config()).cache_token();
    let caches: Vec<SolutionCache> = (0..SHARDS)
        .map(|_| SolutionCache::new(plan.cache))
        .collect();
    let ring = fleet_ring();
    let mut evictions_before = 0;
    let (mut hits, mut lookups, mut inserts) = (0u64, 0u64, 0u64);
    let (mut lookup_s, mut insert_s) = (0.0, 0.0);
    for (i, instance) in phase.instances.iter().enumerate() {
        if i == phase.warm {
            evictions_before = caches.iter().map(|c| c.stats().evictions).sum();
        }
        let Some(response) = &phase.responses[i] else {
            continue;
        };
        let scored = i >= phase.warm;
        let owner = if scored {
            scored_owners[i - phase.warm]
        } else {
            ring.route(canonical_fingerprint(instance).0.as_u128())
                .expect("ring has members")
        };
        let cache = &caches[owner.index()];
        let started = Instant::now();
        let lookup = cache.lookup(token, instance);
        let looked = started.elapsed().as_secs_f64();
        if let CacheLookup::Miss(key) = lookup {
            let started = Instant::now();
            cache.insert(key, instance, Arc::clone(&response.solution));
            if scored {
                insert_s += started.elapsed().as_secs_f64();
                inserts += 1;
            }
        } else if scored {
            hits += 1;
        }
        if scored {
            lookup_s += looked;
            lookups += 1;
        }
    }
    let evictions: u64 = caches.iter().map(|c| c.stats().evictions).sum();
    layers.cache_hit_ratio = hits as f64 / lookups.max(1) as f64;
    layers.cache_evictions = (evictions - evictions_before) as f64;
    layers.cache_lookup_us = lookup_s * 1e6 / lookups.max(1) as f64;
    layers.cache_insert_us = insert_s * 1e6 / inserts.max(1) as f64;
}

/// Pipeline, backend, crossbar, clustering and allocation metrics from offline
/// re-solves of a sample of scored instances, on one thread as a worker solves.
fn solve_layers(phase: &Phase, seed: u64, layers: &mut Layers, report: &mut Report) {
    let config = solver_config().with_threads(1);
    let scored_indices: Vec<usize> = phase.scored().map(|(i, _)| i).collect();
    let sample = spread(&scored_indices, PROBE_SAMPLES);
    let Some(&first) = sample.first() else {
        return;
    };
    let solver = TaxiSolver::new(config.clone());
    if let Err(e) = solver.solve(&phase.instances[first]) {
        report.fail(format!("warm-up solve: {e}"));
    }
    let mut traced = TracedSolves::new(&config, KERNEL_SAMPLES);
    let mut timings = Vec::new();
    for &i in &sample {
        let instance = &phase.instances[i];
        let what = format!("traced re-solve of request {i}");
        match traced.solve(&solver, instance) {
            Ok(solution) => {
                let served = &phase.responses[i].as_ref().expect("scored").solution;
                report.check(check::identical(&what, &solution, served));
            }
            Err(e) => report.fail(format!("{what}: {e}")),
        }
        match layers::time_cluster(instance, &config) {
            Ok(timing) => timings.push(timing),
            Err(e) => report.fail(format!("cluster timing of request {i}: {e}")),
        }
    }
    layers.set_pipeline(&traced, report);
    layers.cluster_build_ms = stats::mean(&timings.iter().map(|t| t.build_ms).collect::<Vec<_>>());
    layers.cluster_levels = stats::mean(&timings.iter().map(|t| t.levels).collect::<Vec<_>>());
    layers.cluster_fix_ms = stats::mean(&timings.iter().map(|t| t.fix_ms).collect::<Vec<_>>());
    match layers::allocs_per_warm_serial_solve(&config, &phase.instances[first]) {
        Ok(allocs) => layers.allocs_per_solve = allocs,
        Err(e) => report.fail(format!("serial solve: {e}")),
    }
    match layers::replay_kernels(
        &traced.backend.samples(),
        &config.macro_solver_config(),
        seed,
    ) {
        Ok(kernels) => layers.kernels = kernels,
        Err(e) => report.fail(format!("kernel replay: {e}")),
    }
}
