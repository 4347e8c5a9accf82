//! Serving-path integration tests across the umbrella crates: solve-context reuse,
//! capacity-bound caching, micro-batching, admission accounting, degradation,
//! fleet routing and warm restarts. Each test replays a small deterministic
//! workload and asserts exact accounting and bit-identical tours, never wall-clock
//! throughput.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use taxi::cache::CachePolicy;
use taxi::{SolutionCache, SolveContext, SolverBackend, TaxiConfig, TaxiSolution, TaxiSolver};
use taxi_dispatch::{
    AdmissionPolicy, ArrivalProcess, BatchPolicy, DispatchConfig, DispatchOutcome, DispatchRequest,
    DispatchService, Priority, Scenario, ServiceSnapshot, SnapshotPolicy, Ticket, Workload,
    WorkloadConfig,
};
use taxi_fleet::{Fleet, FleetConfig, RoutingPolicy};
use taxi_tsplib::generator::{clustered_instance, random_uniform_instance};
use taxi_tsplib::TspInstance;

/// The cheap software backend most serving tests run under.
fn nn_config(seed: u64) -> TaxiConfig {
    TaxiConfig::new()
        .with_seed(seed)
        .with_backend(SolverBackend::NnTwoOpt)
}

fn assert_same_solution(served: &TaxiSolution, expected: &TaxiSolution, what: &str) {
    assert_eq!(served.tour, expected.tour, "{what}: tour differs");
    assert_eq!(
        served.length.to_bits(),
        expected.length.to_bits(),
        "{what}: length differs"
    );
}

fn popular_routes(requests: usize, routes: usize, exponent: f64, seed: u64) -> Vec<TspInstance> {
    Workload::generate(
        WorkloadConfig::new(Scenario::CityDistricts { districts: 4 })
            .with_requests(requests)
            .with_size_range(24, 36)
            .with_interactive_fraction(0.0)
            .with_popular_routes(routes, exponent)
            .with_seed(seed),
    )
    .into_events()
    .into_iter()
    .map(|event| event.request.instance)
    .collect()
}

/// Submits one request and waits for its solution.
fn serve(service: &DispatchService, instance: &TspInstance) -> taxi_dispatch::SolvedResponse {
    service
        .submit(DispatchRequest::new(instance.clone()))
        .expect("admitted")
        .wait()
        .solved()
        .expect("solved")
}

fn temp_snapshot_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("taxi-suite-serving-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One persistent context serving instances that grow and shrink returns exactly
/// what a cold context returns: buffers sized for a larger instance never leak
/// state into a smaller one.
#[test]
fn persistent_context_matches_cold_contexts_across_growing_and_shrinking_instances() {
    let instances: Vec<TspInstance> = [40, 110, 25, 80, 110]
        .into_iter()
        .enumerate()
        .map(|(i, n)| clustered_instance(&format!("ctx{i}"), n, 4, 40 + i as u64))
        .collect();
    let solver = TaxiSolver::new(TaxiConfig::new().with_seed(11).with_threads(1));
    let mut persistent = SolveContext::new();
    for round in 0..2 {
        for instance in &instances {
            let warm = solver.solve_reusing(instance, &mut persistent).unwrap();
            let cold = solver
                .solve_reusing(instance, &mut SolveContext::new())
                .unwrap();
            let what = format!("round {round}, {}", instance.name());
            assert_same_solution(&warm, &cold, &what);
            assert_eq!(warm.levels, cold.levels, "{what}: levels differ");
            assert_eq!(
                warm.subproblems, cold.subproblems,
                "{what}: subproblems differ"
            );
        }
    }
}

/// One context handed from backend to backend stays transparent: each solve equals
/// the same backend's solve on a cold context.
#[test]
fn one_context_shared_across_backends_matches_cold_contexts() {
    let mut shared = SolveContext::new();
    for (i, backend) in SolverBackend::ALL.into_iter().cycle().take(8).enumerate() {
        let instance = clustered_instance(&format!("mix{i}"), 30 + 7 * i, 3, 60 + i as u64);
        let solver = TaxiSolver::new(
            TaxiConfig::new()
                .with_seed(13)
                .with_threads(1)
                .with_backend(backend),
        );
        let warm = solver.solve_reusing(&instance, &mut shared).unwrap();
        let cold = solver
            .solve_reusing(&instance, &mut SolveContext::new())
            .unwrap();
        assert_same_solution(&warm, &cold, &format!("{backend} on {}", instance.name()));
    }
}

/// A cache far smaller than the route pool evicts on every request of a cyclic
/// replay, and every answer is still the offline solve, bit for bit.
#[test]
fn undersized_cache_serves_bit_identical_tours_under_eviction() {
    let routes: Vec<TspInstance> = (0..8)
        .map(|r| random_uniform_instance(&format!("evict{r}"), 30, 300 + r))
        .collect();
    let offline = TaxiSolver::new(nn_config(21));
    let reference: Vec<TaxiSolution> = routes.iter().map(|r| offline.solve(r).unwrap()).collect();
    let service = DispatchService::start(
        DispatchConfig::new()
            .with_solver(nn_config(21))
            .with_workers(1)
            .with_cache(Arc::new(SolutionCache::new(
                CachePolicy::new().with_shards(1).with_max_entries(2),
            ))),
    );
    for round in 0..3 {
        for (route, expected) in routes.iter().zip(&reference) {
            let served = serve(&service, route);
            assert_same_solution(&served.solution, expected, &format!("round {round}"));
        }
    }
    let snapshot = service.shutdown();
    let cache = snapshot.cache.expect("cache stats");
    // Cycling eight routes through a two-entry LRU never finds the next route
    // resident: all 24 requests miss, insert, and (after the first two) evict.
    assert_eq!(snapshot.cache_hits, 0);
    assert_eq!(snapshot.completed, 24);
    assert_eq!(cache.insertions, 24);
    assert_eq!(cache.evictions, 22);
    assert_eq!(cache.entries, 2);
}

/// Serial replay through a cache a quarter the size of the route pool: with uniform
/// popularity the LRU thrashes, while Zipf skew keeps the head routes resident, so
/// skew (not repetition alone) earns the hit rate.
#[test]
fn zipf_skew_keeps_the_popular_head_resident_in_an_undersized_cache() {
    let hits_at = |exponent: f64| -> ServiceSnapshot {
        let service = DispatchService::start(
            DispatchConfig::new()
                .with_solver(nn_config(29))
                .with_workers(1)
                .with_cache(Arc::new(SolutionCache::new(
                    CachePolicy::new().with_shards(1).with_max_entries(8),
                ))),
        );
        for instance in popular_routes(150, 32, exponent, 31) {
            serve(&service, &instance);
        }
        service.shutdown()
    };
    // Measured: 38 hits uniform, 81 hits at exponent 1.1 (serial replay, so the
    // counts are deterministic).
    let uniform = hits_at(0.0);
    let skewed = hits_at(1.1);
    for snapshot in [&uniform, &skewed] {
        assert_eq!(snapshot.completed, 150);
        assert_eq!(snapshot.coalesced, 0, "serial replay never coalesces");
        assert_eq!(snapshot.solved_fresh() + snapshot.cache_hits, 150);
    }
    assert!(
        skewed.cache_hits > uniform.cache_hits,
        "skewed popularity ({} hits) must beat uniform ({} hits)",
        skewed.cache_hits,
        uniform.cache_hits
    );
}

/// The same request stream through a cached and an uncached service returns the
/// same tour for every request; only the cached one avoids solves.
#[test]
fn cache_on_and_cache_off_services_serve_identical_tours() {
    let stream = popular_routes(24, 6, 1.1, 47);
    let run = |cache: Option<Arc<SolutionCache>>| {
        let mut config = DispatchConfig::new()
            .with_solver(nn_config(29))
            .with_workers(2)
            .with_batch(
                BatchPolicy::new()
                    .with_max_batch(4)
                    .with_linger(Duration::ZERO),
            );
        if let Some(cache) = cache {
            config = config.with_cache(cache);
        }
        let service = DispatchService::start(config);
        let tickets: Vec<Ticket> = stream
            .iter()
            .map(|instance| {
                service
                    .submit(DispatchRequest::new(instance.clone()))
                    .expect("admitted")
            })
            .collect();
        let solutions: Vec<Arc<TaxiSolution>> = tickets
            .into_iter()
            .map(|ticket| ticket.wait().solved().expect("solved").solution)
            .collect();
        (solutions, service.shutdown())
    };
    let (off, off_snapshot) = run(None);
    let (on, on_snapshot) = run(Some(Arc::new(SolutionCache::with_defaults())));
    for (i, (a, b)) in off.iter().zip(&on).enumerate() {
        assert_same_solution(b, a, &format!("request {i}"));
    }
    assert!(off_snapshot.cache.is_none());
    assert_eq!(off_snapshot.cache_hits + off_snapshot.coalesced, 0);
    assert_eq!(off_snapshot.solved_fresh(), 24);
    let distinct: HashSet<&str> = stream.iter().map(|i| i.name()).collect();
    assert!(
        on_snapshot.solved_fresh() <= distinct.len() as u64,
        "at most one solve per distinct route ({} fresh for {} routes)",
        on_snapshot.solved_fresh(),
        distinct.len()
    );
}

/// Closed-loop clients against a shallow blocking queue: 16-wide micro-batches
/// serve the same tours as batch-size-1, and no batch exceeds its bound.
#[test]
fn micro_batching_serves_the_same_tours_as_single_request_batches() {
    let pool: Vec<TspInstance> = (0..12)
        .map(|i| random_uniform_instance(&format!("load-{i}"), 12, 9000 + i))
        .collect();
    let offline = TaxiSolver::new(nn_config(17));
    let reference: Vec<TaxiSolution> = pool.iter().map(|i| offline.solve(i).unwrap()).collect();
    for max_batch in [1, 16] {
        let service = DispatchService::start(
            DispatchConfig::new()
                .with_solver(nn_config(17))
                .with_workers(2)
                .with_queue_capacity(2)
                .with_admission(AdmissionPolicy::Block)
                .with_batch(
                    BatchPolicy::new()
                        .with_max_batch(max_batch)
                        .with_linger(Duration::from_micros(200)),
                ),
        );
        std::thread::scope(|scope| {
            for client in 0..4 {
                let (service, pool, reference) = (&service, &pool, &reference);
                scope.spawn(move || {
                    for step in 0..8 {
                        let i = (client * 5 + step) % pool.len();
                        let served = serve(service, &pool[i]);
                        assert!(served.batch_size >= 1 && served.batch_size <= max_batch);
                        assert_same_solution(
                            &served.solution,
                            &reference[i],
                            &format!("max_batch {max_batch}, {}", pool[i].name()),
                        );
                    }
                });
            }
        });
        let snapshot = service.shutdown();
        assert_eq!(snapshot.completed, 32);
        assert_eq!(snapshot.failed + snapshot.shed + snapshot.rejected, 0);
        if max_batch == 1 {
            assert_eq!(
                snapshot.batches, 32,
                "batch-size-1 pays one batch per request"
            );
        } else {
            assert!(snapshot.batches <= 32);
        }
    }
}

/// Reject admission against a full queue refuses synchronously, hands the refused
/// request back intact, and counts exactly the refusals.
#[test]
fn reject_admission_hands_refused_requests_back_and_counts_them() {
    let service = DispatchService::start(
        DispatchConfig::new()
            .with_solver(TaxiConfig::new().with_seed(23))
            .with_workers(1)
            .with_queue_capacity(2)
            .with_admission(AdmissionPolicy::Reject)
            .with_batch(
                BatchPolicy::new()
                    .with_max_batch(1)
                    .with_linger(Duration::ZERO),
            ),
    );
    let mut tickets = Vec::new();
    let mut refused = 0u64;
    for i in 0..20 {
        let instance = clustered_instance(&format!("rej{i}"), 60, 3, 700 + i);
        match service.submit(DispatchRequest::new(instance.clone())) {
            Ok(ticket) => tickets.push(ticket),
            Err(err) => {
                let returned = err.into_request();
                assert_eq!(returned.instance.name(), instance.name());
                assert_eq!(returned.instance.dimension(), instance.dimension());
                refused += 1;
            }
        }
    }
    // Twenty back-to-back submissions against one worker and two queue slots:
    // the queue fills long before a 60-city Ising solve finishes.
    assert!(refused > 0, "a full queue must refuse under Reject");
    let accepted = tickets.len() as u64;
    for ticket in tickets {
        assert!(ticket.wait().solved().is_some());
    }
    let snapshot = service.shutdown();
    assert_eq!(accepted + refused, 20);
    assert_eq!(snapshot.rejected, refused);
    assert_eq!(snapshot.submitted, accepted);
    assert_eq!(snapshot.completed, accepted);
    assert_eq!(snapshot.shed + snapshot.failed, 0);
}

/// A Poisson replay with interactive traffic, offered faster than it can be
/// served, under every admission policy: each offered request ends solved, shed
/// or refused (nothing fails or vanishes); only bulk requests ever degrade; and
/// every answer is the offline solve of the backend it ran on.
#[test]
fn overloaded_replay_accounts_for_every_request_under_each_admission_policy() {
    let events = Workload::generate(
        WorkloadConfig::new(Scenario::Uniform)
            .with_requests(30)
            .with_size_range(10, 14)
            .with_interactive_fraction(0.25)
            .with_interactive_deadline(Some(Duration::from_millis(50)))
            .with_arrivals(ArrivalProcess::Poisson { rate_hz: 1e6 })
            .with_seed(23),
    )
    .into_events();
    let primary = TaxiSolver::new(TaxiConfig::new().with_seed(23));
    let degraded = TaxiSolver::new(
        TaxiConfig::new()
            .with_seed(23)
            .with_backend(SolverBackend::NnTwoOpt),
    );
    for policy in [
        AdmissionPolicy::Reject,
        AdmissionPolicy::ShedOldest,
        AdmissionPolicy::Block,
    ] {
        let service = DispatchService::start(
            DispatchConfig::new()
                .with_solver(TaxiConfig::new().with_seed(23))
                .with_workers(2)
                .with_queue_capacity(8)
                .with_admission(policy)
                .with_batch(
                    BatchPolicy::new()
                        .with_max_batch(4)
                        .with_linger(Duration::ZERO)
                        .with_overload_threshold(3),
                ),
        );
        let mut submitted = Vec::new();
        let mut refused = 0u64;
        for event in &events {
            let request = event.request.clone();
            match service.submit(request.clone()) {
                Ok(ticket) => submitted.push((request, ticket)),
                Err(_) => refused += 1,
            }
        }
        let (mut solved, mut shed, mut degraded_count) = (0u64, 0u64, 0u64);
        for (request, ticket) in submitted {
            match ticket.wait() {
                DispatchOutcome::Solved(response) => {
                    solved += 1;
                    let reference = if response.degraded {
                        degraded_count += 1;
                        assert_eq!(
                            request.priority,
                            Priority::Bulk,
                            "{policy}: interactive requests never degrade"
                        );
                        degraded.solve(&request.instance).unwrap()
                    } else {
                        primary.solve(&request.instance).unwrap()
                    };
                    assert_same_solution(
                        &response.solution,
                        &reference,
                        &format!("{policy}, {}", request.instance.name()),
                    );
                }
                DispatchOutcome::Shed { .. } => shed += 1,
                DispatchOutcome::Failed(error) => panic!("{policy}: unexpected failure: {error}"),
            }
        }
        let snapshot = service.shutdown();
        assert_eq!(
            solved + shed + refused,
            30,
            "{policy}: a request went missing"
        );
        assert_eq!(snapshot.completed, solved);
        assert_eq!(snapshot.shed, shed);
        assert_eq!(snapshot.rejected, refused);
        assert_eq!(snapshot.degraded, degraded_count);
        assert_eq!(snapshot.failed, 0);
        if policy == AdmissionPolicy::Block {
            assert_eq!(solved, 30, "blocking admission loses nothing");
        }
    }
}

/// Fingerprint-affinity routing keys ownership by geometry, not popularity rank,
/// so a hotspot that migrates across the route pool still pays exactly one cold
/// miss per distinct route.
#[test]
fn affinity_routing_pays_one_cold_miss_per_route_across_a_hotspot_shift() {
    let stream: Vec<TspInstance> = Workload::generate(
        WorkloadConfig::new(Scenario::CityDistricts { districts: 4 })
            .with_requests(60)
            .with_size_range(20, 30)
            .with_interactive_fraction(0.0)
            .with_hotspot_shift(9, 1.1, 3)
            .with_seed(61),
    )
    .into_events()
    .into_iter()
    .map(|event| event.request.instance)
    .collect();
    let fleet = Fleet::start(
        FleetConfig::new()
            .with_shards(3)
            .with_shard_config(
                DispatchConfig::new()
                    .with_solver(nn_config(61))
                    .with_workers(1),
            )
            .with_routing(RoutingPolicy::FingerprintAffinity)
            .with_reconcile_interval(Duration::from_millis(5)),
    );
    for instance in &stream {
        let ticket = fleet
            .submit(DispatchRequest::new(instance.clone()))
            .expect("admitted");
        assert!(ticket.wait().solved().is_some());
    }
    let snapshot = fleet.shutdown();
    let distinct: HashSet<&str> = stream.iter().map(|i| i.name()).collect();
    assert!(distinct.len() > 3, "the hotspot must touch several routes");
    assert_eq!(snapshot.service.completed, 60);
    assert_eq!(
        snapshot.service.cache_hits,
        60 - distinct.len() as u64,
        "one cold miss per route under affinity"
    );
}

/// Whichever shard a request lands on, the fleet's answer is the offline solve:
/// sharding and routing are transparent to tour content.
#[test]
fn fleet_answers_match_offline_solves_under_scatter_routing() {
    let offline = TaxiSolver::new(nn_config(67));
    let fleet = Fleet::start(
        FleetConfig::new()
            .with_shards(3)
            .with_shard_config(
                DispatchConfig::new()
                    .with_solver(nn_config(67))
                    .with_workers(1),
            )
            .with_routing(RoutingPolicy::Scatter)
            .with_reconcile_interval(Duration::from_millis(5)),
    );
    let routes: Vec<TspInstance> = (0..5)
        .map(|r| random_uniform_instance(&format!("scatter{r}"), 26, 800 + r))
        .collect();
    let tickets: Vec<(usize, Ticket)> = (0..15)
        .map(|k| {
            let r = k % routes.len();
            let ticket = fleet
                .submit(DispatchRequest::new(routes[r].clone()))
                .expect("admitted");
            (r, ticket)
        })
        .collect();
    for (r, ticket) in tickets {
        let served = ticket.wait().solved().expect("solved");
        let reference = offline.solve(&routes[r]).unwrap();
        assert_same_solution(&served.solution, &reference, routes[r].name());
    }
    let snapshot = fleet.shutdown();
    assert_eq!(snapshot.service.completed, 15);
    assert_eq!(snapshot.service.failed, 0);
}

/// A snapshot restored into a smaller cache than the one that wrote it keeps
/// only the most recently used entries that fit, and every answer (restored hit
/// or fresh solve) equals the previous generation's.
#[test]
fn snapshot_restored_into_a_smaller_cache_respects_its_capacity() {
    let dir = temp_snapshot_dir("shrink");
    let config = |cache: SolutionCache| {
        DispatchConfig::new()
            .with_solver(nn_config(29))
            .with_workers(1)
            .with_cache(Arc::new(cache))
            .with_snapshot_policy(SnapshotPolicy::new(&dir).with_interval(Duration::ZERO))
    };
    let routes: Vec<TspInstance> = (0..6)
        .map(|r| random_uniform_instance(&format!("shrink{r}"), 28, 7_000 + r))
        .collect();
    // One shard in both generations, so the snapshot's oldest-first order is
    // global and a restore re-inserts the entries in gen 1's recency order.
    let gen1 = DispatchService::start(config(SolutionCache::new(
        CachePolicy::new().with_shards(1),
    )));
    let first: Vec<Arc<TaxiSolution>> = routes.iter().map(|r| serve(&gen1, r).solution).collect();
    assert_eq!(gen1.shutdown().snapshots_written, 1);

    let small = CachePolicy::new().with_shards(1).with_max_entries(2);
    let gen2 = DispatchService::start(config(SolutionCache::new(small)));
    let restored = gen2.snapshot();
    assert_eq!(restored.snapshots_restored, 1);
    assert!(restored.cache.expect("cache stats").entries <= 2);
    // Newest first: the two survivors (routes 5 and 4) hit, the rest re-solve.
    for (i, (route, expected)) in routes.iter().zip(&first).enumerate().rev() {
        let served = serve(&gen2, route);
        assert_eq!(served.cache_hit, i >= 4, "{}", route.name());
        assert_same_solution(&served.solution, expected, route.name());
    }
    let snapshot = gen2.shutdown();
    assert_eq!(snapshot.completed, 6);
    assert_eq!(snapshot.cache_hits, 2);
    assert_eq!(snapshot.solved_fresh(), 4);
    assert!(snapshot.cache.expect("cache stats").entries <= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With restore-on-start switched off, a new generation ignores the snapshot on
/// disk: it starts cold, re-solves every route once, and the answers equal the
/// retired generation's.
#[test]
fn restart_without_restore_starts_cold_and_solves_identically() {
    let dir = temp_snapshot_dir("cold");
    let routes: Vec<TspInstance> = (0..5)
        .map(|r| random_uniform_instance(&format!("cold{r}"), 28, 7_100 + r))
        .collect();
    let config = |restore: bool| {
        DispatchConfig::new()
            .with_solver(nn_config(29))
            .with_workers(1)
            .with_cache(Arc::new(SolutionCache::with_defaults()))
            .with_snapshot_policy(
                SnapshotPolicy::new(&dir)
                    .with_interval(Duration::ZERO)
                    .with_restore_on_start(restore),
            )
    };
    let gen1 = DispatchService::start(config(true));
    let first: Vec<Arc<TaxiSolution>> = routes.iter().map(|r| serve(&gen1, r).solution).collect();
    assert_eq!(gen1.shutdown().snapshots_written, 1);

    let gen2 = DispatchService::start(config(false));
    for (route, expected) in routes.iter().zip(&first) {
        let served = serve(&gen2, route);
        assert!(!served.cache_hit, "{}: nothing was restored", route.name());
        assert_same_solution(&served.solution, expected, route.name());
    }
    let snapshot = gen2.shutdown();
    assert_eq!(snapshot.snapshots_restored + snapshot.snapshots_rejected, 0);
    assert_eq!(snapshot.solved_fresh(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The neighbour limit prunes only the software backends' local search: the
/// Ising-macro backend's tours are bit-identical with and without it, while the
/// cache token still keeps the two configurations apart.
#[test]
fn neighbor_limit_leaves_the_ising_backend_bit_identical() {
    let exhaustive = TaxiConfig::new().with_seed(4);
    let pruned = exhaustive.clone().with_neighbor_limit(12);
    assert_ne!(exhaustive.cache_token(), pruned.cache_token());
    for seed in 0..3 {
        let instance = clustered_instance(&format!("limit{seed}"), 70, 4, 90 + seed);
        let a = TaxiSolver::new(exhaustive.clone())
            .solve(&instance)
            .unwrap();
        let b = TaxiSolver::new(pruned.clone()).solve(&instance).unwrap();
        assert_same_solution(&b, &a, instance.name());
    }
}
