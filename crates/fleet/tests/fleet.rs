//! Fleet integration tests: affinity routing vs scatter, drain-under-load
//! ticket preservation, and crash containment.

use std::time::{Duration, Instant};

use taxi_dispatch::{DispatchConfig, DispatchOutcome, DispatchRequest, Priority};
use taxi_fleet::{Fleet, FleetConfig, RoutingPolicy, ShardId, ShardState};
use taxi_tsplib::generator::random_uniform_instance;
use taxi_tsplib::instance::{EdgeWeightKind, TspInstance};

fn fleet_config(shards: usize, routing: RoutingPolicy) -> FleetConfig {
    FleetConfig::new()
        .with_shards(shards)
        .with_shard_config(
            DispatchConfig::new()
                .with_workers(1)
                .with_queue_capacity(128),
        )
        .with_routing(routing)
        .with_reconcile_interval(Duration::from_millis(5))
}

/// Runs the same popular-routes workload (7 routes × 10 sequential repeats)
/// through a 3-shard fleet and returns the fleet-wide cache hit count. Seven
/// routes are coprime with three shards, so round-robin scatter cannot
/// accidentally pin a route to one shard.
fn popular_route_hits(routing: RoutingPolicy) -> u64 {
    let fleet = Fleet::start(fleet_config(3, routing));
    let routes: Vec<TspInstance> = (0..7)
        .map(|r| random_uniform_instance(&format!("route{r}"), 24, 100 + r))
        .collect();
    for repeat in 0..10 {
        for route in &routes {
            let ticket = fleet
                .submit(DispatchRequest::new(route.clone()).with_priority(Priority::Interactive))
                .expect("admitted");
            assert!(
                ticket.wait().solved().is_some(),
                "repeat {repeat} must solve"
            );
        }
    }
    let snapshot = fleet.shutdown();
    assert_eq!(snapshot.service.completed, 70);
    snapshot.service.cache.expect("per-shard caches").hits
}

#[test]
fn affinity_routing_beats_scatter_on_repeat_geometries() {
    // Affinity: each route pays exactly one cold miss on its owning shard
    // (7 misses). Scatter: every shard pays its own cold miss per route
    // (up to 21 misses) — the private caches duplicate instead of partitioning.
    let affinity = popular_route_hits(RoutingPolicy::FingerprintAffinity);
    let scatter = popular_route_hits(RoutingPolicy::Scatter);
    assert_eq!(affinity, 63, "one cold miss per route under affinity");
    assert!(
        affinity > scatter,
        "affinity ({affinity} hits) must beat scatter ({scatter} hits)"
    );
}

#[test]
fn drain_under_load_resolves_every_ticket_and_recovers_the_shard() {
    let fleet = Fleet::start(fleet_config(3, RoutingPolicy::FingerprintAffinity));
    // Burst enough distinct work to leave real backlogs on single-worker
    // shards, then drain shard 0 while its queue is hot.
    let mut tickets = Vec::new();
    for i in 0..60u64 {
        let request =
            DispatchRequest::new(random_uniform_instance(&format!("burst{i}"), 32, 500 + i));
        tickets.push(fleet.submit(request).expect("admitted"));
    }
    fleet.drain(ShardId::new(0));
    fleet.reconcile_now();
    // The pass that extracted shard 0's backlog re-adopted it onto survivors.
    let drained = fleet.snapshot();
    assert_eq!(drained.orphaned, 0, "no pending left orphaned:\n{drained}");
    // Keep submitting through the drain: the front-end must route around it.
    for i in 60..90u64 {
        let request =
            DispatchRequest::new(random_uniform_instance(&format!("burst{i}"), 32, 500 + i));
        tickets.push(fleet.submit(request).expect("admitted"));
    }
    // Every accepted ticket resolves with a solution — the drained backlog was
    // migrated to survivors, not dropped.
    for (index, ticket) in tickets.into_iter().enumerate() {
        assert!(
            ticket.wait().solved().is_some(),
            "ticket {index} must resolve with a solution"
        );
    }
    // Auto-restart brings the drained shard back into rotation.
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        fleet.reconcile_now();
        let snapshot = fleet.snapshot();
        let shard = &snapshot.shards[0];
        if shard.state == ShardState::Serving && shard.generation >= 2 {
            break snapshot;
        }
        assert!(
            Instant::now() < deadline,
            "shard 0 never recovered:\n{snapshot}"
        );
    };
    assert!(recovered.shards[0].ring_share > 0.0, "back on the ring");
    // Survivors did real work while shard 0 was out (read from the live
    // snapshot: shutdown retires per-shard views into the aggregate).
    let survivor_completed: u64 = recovered.shards[1..]
        .iter()
        .filter_map(|s| s.service.as_ref())
        .map(|s| s.completed)
        .sum();
    assert!(survivor_completed > 0, "{recovered}");
    let snapshot = fleet.shutdown();
    assert_eq!(snapshot.service.completed, 90, "{snapshot}");
    assert_eq!(snapshot.service.failed, 0, "{snapshot}");
}

#[test]
fn worker_panic_is_contained_to_its_shard_and_the_generation_recycles() {
    let fleet = Fleet::start(fleet_config(2, RoutingPolicy::FingerprintAffinity));
    // A NaN coordinate panics the solver's clustering stage inside the worker
    // (the instance must be large enough to be clustered — tiny ones solve
    // degenerately); the dispatch layer contains the panic (catch_unwind),
    // fails the ticket explicitly, and counts a worker panic — which the fleet
    // health probe reads as a crash.
    let mut coords: Vec<(f64, f64)> = (0..64).map(|i| ((i % 8) as f64, (i / 8) as f64)).collect();
    coords[5].0 = f64::NAN;
    let poison = TspInstance::from_coordinates("poison", coords, EdgeWeightKind::Euclidean)
        .expect("constructible");
    let ticket = fleet
        .submit(DispatchRequest::new(poison))
        .expect("admitted");
    let outcome = ticket.wait();
    assert!(
        matches!(outcome, DispatchOutcome::Failed(_)),
        "client gets an explicit error, not a hang: {outcome:?}"
    );
    // The poisoned shard goes Failed -> Starting -> Serving with a fresh
    // generation; the fleet never stops serving.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        fleet.reconcile_now();
        let snapshot = fleet.snapshot();
        let recycled = snapshot
            .shards
            .iter()
            .any(|s| s.generation >= 2 && s.state == ShardState::Serving);
        let all_serving = snapshot
            .shards
            .iter()
            .all(|s| s.state == ShardState::Serving);
        if recycled && all_serving {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "poisoned shard never recycled:\n{snapshot}"
        );
    }
    // Good traffic keeps flowing after containment.
    for i in 0..6u64 {
        let ticket = fleet
            .submit(DispatchRequest::new(random_uniform_instance(
                &format!("after{i}"),
                16,
                900 + i,
            )))
            .expect("admitted");
        assert!(ticket.wait().solved().is_some(), "post-crash solve {i}");
    }
    let snapshot = fleet.shutdown();
    assert_eq!(snapshot.service.completed, 6, "{snapshot}");
    assert_eq!(snapshot.service.failed, 1, "the poison request only");
    assert_eq!(
        snapshot.service.worker_panics, 1,
        "retired generations keep their counters: {snapshot}"
    );
    assert_eq!(snapshot.service.submitted, 7, "{snapshot}");
}
