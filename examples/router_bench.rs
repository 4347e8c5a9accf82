//! Adaptive-router load harness: adaptive routing vs. every fixed backend on one
//! mixed-size Zipf workload, emitting `BENCH_router.json` (a CI artifact).
//!
//! The workload is deliberately **bimodal-hostile to any single backend**: a
//! popular-routes pool of PCB-drilling geometries (the family with the widest
//! heuristic-vs-exact quality gap) with Zipf popularity, sizes blending small
//! (≤ 14 cities), medium (52–64) and large (130–170) instances, half the traffic
//! interactive with a 3 ms latency budget. On this mix
//!
//! * `exact-dp` has the best tours but blows the budget on large instances,
//! * `nn-2opt`/`greedy-edge` always meet the budget but pay a quality tax,
//! * `ising-macro` (the paper's hardware model) is the slowest arm, and
//! * the **adaptive** arm routes per instance from online profiles — exact where it
//!   fits the budget, heuristics where it does not.
//!
//! Reported per arm: p99 end-to-end latency, deadline-miss rate, mean tour-quality
//! ratio (cost / best-known offline cost of that route). The harness asserts the
//! adaptive arm beats **every** fixed backend on at least one of those axes and
//! spot-checks that routed responses are bit-identical to offline solves with the
//! chosen backend.
//!
//! Run with `cargo run --release --example router_bench`; set `TAXI_ROUTER_SMOKE=1`
//! (CI) for a fast smoke-scale run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use taxi::router::{AdaptiveRouter, RouterConfig};
use taxi::{BackendChoice, SolverBackend, TaxiConfig, TaxiSolver};
use taxi_bench::json::{JsonArray, JsonObject};
use taxi_dispatch::{
    AdmissionPolicy, BatchPolicy, DispatchConfig, DispatchService, Scenario, ServiceSnapshot,
    SizeMix, Ticket, Workload, WorkloadConfig, WorkloadEvent,
};

const DEADLINE: Duration = Duration::from_millis(3);
const ROUTES: usize = 24;
const ZIPF_EXPONENT: f64 = 1.0;

struct Scale {
    smoke: bool,
    workers: usize,
    requests: usize,
    warmup: usize,
    /// Requests in flight per replay window: small enough that queue wait stays a
    /// fraction of the deadline (no head-of-line amplification of one slow solve).
    window: usize,
    identity_checks: usize,
}

impl Scale {
    fn detect() -> Self {
        let smoke = std::env::var("TAXI_ROUTER_SMOKE").is_ok_and(|v| v != "0");
        if smoke {
            Self {
                smoke,
                workers: 2,
                requests: 160,
                warmup: 64,
                window: 4,
                identity_checks: 6,
            }
        } else {
            Self {
                smoke,
                workers: 4,
                requests: 640,
                warmup: 96,
                window: 8,
                identity_checks: 16,
            }
        }
    }
}

/// Size classes aligned with the profiler's power-of-two buckets (≤ 16, 33–64,
/// 129–256) so one class never straddles two profile cells; the medium class sits
/// at the top of its bucket, where the heuristics' quality tax is largest.
fn size_mix() -> SizeMix {
    SizeMix::new((10, 14), (52, 64), (130, 170)).with_weights([0.40, 0.45, 0.15])
}

fn events_for(requests: usize, seed: u64) -> Vec<WorkloadEvent> {
    Workload::generate(
        WorkloadConfig::new(Scenario::PcbDrilling)
            .with_requests(requests)
            .with_size_mix(size_mix())
            .with_popular_routes(ROUTES, ZIPF_EXPONENT)
            .with_interactive_fraction(0.5)
            .with_interactive_deadline(Some(DEADLINE))
            .with_seed(seed),
    )
    .into_events()
}

fn base_solver() -> TaxiConfig {
    TaxiConfig::new().with_seed(37)
}

/// Best-known offline cost per distinct route (minimum over all four fixed
/// backends under the serving configuration) — the quality reference every arm's
/// tours are scored against.
fn reference_costs(events: &[WorkloadEvent]) -> HashMap<String, f64> {
    let mut refs: HashMap<String, f64> = HashMap::new();
    let solvers: Vec<TaxiSolver> = SolverBackend::ALL
        .iter()
        .map(|&b| TaxiSolver::new(base_solver().with_threads(1).with_backend(b)))
        .collect();
    for event in events {
        let name = event.request.instance.name().to_string();
        if refs.contains_key(&name) {
            continue;
        }
        let best = solvers
            .iter()
            .map(|solver| {
                solver
                    .solve(&event.request.instance)
                    .expect("reference solve")
                    .length
            })
            .fold(f64::INFINITY, f64::min);
        refs.insert(name, best);
    }
    refs
}

struct Arm {
    name: &'static str,
    completed: u64,
    p99: Duration,
    mean: Duration,
    miss_rate: f64,
    mean_quality: f64,
    exploration_share: f64,
    /// Scored (count, quality-ratio sum, miss count) per routed backend — empty
    /// for fixed arms; diagnostic of where an adaptive arm spends its traffic.
    routed_breakdown: HashMap<&'static str, (u64, f64, u64)>,
    snapshot: ServiceSnapshot,
}

/// Replays the workload through one service arm in bounded windows and scores it.
///
/// Every arm first replays the same **unscored warm-up** stream: it warms solver
/// scratch for all arms alike, and for the adaptive arm it also fills the profiler
/// cells, so the scored phase measures the router's steady state rather than its
/// cold-start sweep (the sweep itself is exercised and asserted in the test
/// suites).
fn run_arm(
    scale: &Scale,
    name: &'static str,
    solver: TaxiConfig,
    router: Option<Arc<AdaptiveRouter>>,
    warmup: &[WorkloadEvent],
    events: &[WorkloadEvent],
    refs: &HashMap<String, f64>,
) -> Arm {
    let mut config = DispatchConfig::new()
        .with_solver(solver)
        .with_workers(scale.workers)
        .with_queue_capacity(scale.window.max(8))
        .with_admission(AdmissionPolicy::Block)
        .with_batch(
            BatchPolicy::new()
                .with_max_batch(4)
                .with_linger(Duration::from_micros(100)),
        );
    if let Some(router) = router {
        config = config.with_router(router);
    }
    let service = DispatchService::start(config);
    let mut warmup_tickets: Vec<Ticket> = Vec::with_capacity(scale.window);
    for chunk in warmup.chunks(scale.window) {
        for event in chunk {
            warmup_tickets.push(service.submit(event.request.clone()).expect("admitted"));
        }
        for ticket in warmup_tickets.drain(..) {
            let _ = ticket.wait();
        }
    }
    let warmed_up = service.snapshot();
    let mut misses = 0u64;
    let mut quality_sum = 0.0;
    let mut quality_n = 0u64;
    let mut routed_breakdown: HashMap<&'static str, (u64, f64, u64)> = HashMap::new();
    let mut latencies: Vec<Duration> = Vec::with_capacity(events.len());
    let mut identity_failures = 0usize;
    let mut identity_checked = 0usize;
    let mut tickets: Vec<Ticket> = Vec::with_capacity(scale.window);
    for chunk in events.chunks(scale.window) {
        for event in chunk {
            tickets.push(service.submit(event.request.clone()).expect("admitted"));
        }
        for (event, ticket) in chunk.iter().zip(tickets.drain(..)) {
            let response = ticket.wait().solved().expect("solved");
            latencies.push(response.end_to_end);
            if response.missed_deadline {
                misses += 1;
            }
            let reference = refs[event.request.instance.name()];
            if reference > 0.0 {
                let ratio = (response.solution.length / reference).max(1.0);
                quality_sum += ratio;
                quality_n += 1;
                if let Some(backend) = response.routed {
                    let slot = routed_breakdown
                        .entry(backend.label())
                        .or_insert((0, 0.0, 0));
                    slot.0 += 1;
                    slot.1 += ratio;
                    slot.2 += u64::from(response.missed_deadline);
                }
            }
            // Spot-check the routed-solve contract: a routed response is
            // bit-identical to an offline solve with the chosen backend.
            if let Some(backend) = response.routed {
                if identity_checked < scale.identity_checks && !response.cache_hit {
                    identity_checked += 1;
                    let offline =
                        TaxiSolver::new(base_solver().with_threads(1).with_backend(backend))
                            .solve(&event.request.instance)
                            .expect("offline identity solve");
                    if offline.tour != response.solution.tour
                        || offline.length != response.solution.length
                    {
                        identity_failures += 1;
                    }
                }
            }
        }
    }
    assert_eq!(
        identity_failures, 0,
        "{identity_checked} routed responses checked, {identity_failures} differed from \
         direct backend invocation"
    );
    let snapshot = service.shutdown();
    // Score only the measured phase: latency quantiles from the scored responses
    // themselves, exploration share from the snapshot delta across the phase
    // boundary. (The embedded raw snapshot still covers warm-up + scored.)
    latencies.sort_unstable();
    let p99 =
        latencies[((latencies.len() as f64 * 0.99).ceil() as usize - 1).min(latencies.len() - 1)];
    let mean = latencies.iter().sum::<Duration>() / latencies.len() as u32;
    let scored = latencies.len() as u64;
    let routed_delta = snapshot.routed_total() - warmed_up.routed_total();
    let explored_delta = snapshot.explored - warmed_up.explored;
    Arm {
        name,
        completed: scored,
        p99,
        mean,
        miss_rate: misses as f64 / scored.max(1) as f64,
        mean_quality: if quality_n == 0 {
            0.0
        } else {
            quality_sum / quality_n as f64
        },
        exploration_share: if routed_delta == 0 {
            0.0
        } else {
            explored_delta as f64 / routed_delta as f64
        },
        routed_breakdown,
        snapshot,
    }
}

/// The axes (of p99 latency / deadline-miss rate / mean quality ratio) on which
/// `adaptive` strictly beats `fixed`.
fn winning_axes(adaptive: &Arm, fixed: &Arm) -> Vec<&'static str> {
    let mut axes = Vec::new();
    if adaptive.p99 < fixed.p99 {
        axes.push("p99_latency");
    }
    if adaptive.miss_rate < fixed.miss_rate {
        axes.push("deadline_miss_rate");
    }
    if adaptive.mean_quality < fixed.mean_quality {
        axes.push("mean_quality");
    }
    axes
}

fn main() {
    let scale = Scale::detect();
    println!(
        "router load harness ({} scale: {} workers, {} requests, {} routes, deadline {:?})",
        if scale.smoke { "smoke" } else { "full" },
        scale.workers,
        scale.requests,
        ROUTES,
        DEADLINE,
    );
    // Warm-up replays a prefix-like stream over the *same* route pool (same
    // workload seed → same pool), so the adaptive arm's per-geometry knowledge
    // carries into the scored phase exactly as it would for a long-lived service.
    let warmup = events_for(scale.warmup, 61);
    let events = events_for(scale.requests, 61);
    let refs = reference_costs(&events);
    println!("  {} distinct routes referenced", refs.len());

    let adaptive_router = Arc::new(AdaptiveRouter::new(
        RouterConfig::new()
            .with_seed(41)
            .with_epsilon(0.02)
            .with_min_samples(2)
            .with_exploration_regret(0.02),
    ));
    let adaptive = run_arm(
        &scale,
        "adaptive",
        base_solver().with_backend_choice(BackendChoice::Adaptive),
        Some(Arc::clone(&adaptive_router)),
        &warmup,
        &events,
        &refs,
    );
    let fixed: Vec<Arm> = SolverBackend::ALL
        .into_iter()
        .map(|backend| {
            run_arm(
                &scale,
                backend.label(),
                base_solver().with_backend(backend),
                None,
                &warmup,
                &events,
                &refs,
            )
        })
        .collect();

    let print_arm = |arm: &Arm| {
        println!(
            "  {:<12} p99 {:8.2}ms  mean {:7.2}ms  miss {:5.1}%  quality {:.4}{}",
            arm.name,
            arm.p99.as_secs_f64() * 1e3,
            arm.mean.as_secs_f64() * 1e3,
            arm.miss_rate * 100.0,
            arm.mean_quality,
            if arm.exploration_share > 0.0 {
                format!("  ({:.1}% explored)", arm.exploration_share * 100.0)
            } else {
                String::new()
            },
        );
    };
    print_arm(&adaptive);
    for (backend, (count, ratio_sum, missed)) in &adaptive.routed_breakdown {
        println!(
            "      → {:<12} {:4} solves, mean quality {:.4}, {} missed",
            backend,
            count,
            ratio_sum / *count as f64,
            missed,
        );
    }
    for arm in &fixed {
        print_arm(arm);
    }

    let mut beats = Vec::new();
    for arm in &fixed {
        let axes = winning_axes(&adaptive, arm);
        println!("  adaptive beats {:<12} on: {}", arm.name, axes.join(", "));
        beats.push((arm.name, axes));
    }

    let arm_json = |arm: &Arm| {
        JsonObject::new()
            .str("name", arm.name)
            .uint("completed", arm.completed)
            .num("p99_ms", arm.p99.as_secs_f64() * 1e3, 3)
            .num("mean_ms", arm.mean.as_secs_f64() * 1e3, 3)
            .num("deadline_miss_rate", arm.miss_rate, 4)
            .num("mean_quality", arm.mean_quality, 5)
            .num("exploration_share", arm.exploration_share, 4)
            .raw("snapshot", &arm.snapshot.to_json())
    };
    let mix = size_mix();
    let artifact = JsonObject::new()
        .str("bench", "router")
        .bool("smoke", scale.smoke)
        .uint("workers", scale.workers as u64)
        .object(
            "workload",
            JsonObject::new()
                .str("scenario", "drilling")
                .uint("requests", scale.requests as u64)
                .uint("warmup_requests", scale.warmup as u64)
                .uint("routes", ROUTES as u64)
                .num("zipf_exponent", ZIPF_EXPONENT, 2)
                .num("deadline_ms", DEADLINE.as_secs_f64() * 1e3, 1)
                .num("interactive_fraction", 0.5, 2)
                .str(
                    "size_mix",
                    &format!(
                        "small {}..={} / medium {}..={} / large {}..={} @ {:?}",
                        mix.small.0,
                        mix.small.1,
                        mix.medium.0,
                        mix.medium.1,
                        mix.large.0,
                        mix.large.1,
                        mix.weights,
                    ),
                ),
        )
        .object("adaptive", arm_json(&adaptive))
        .array("fixed", JsonArray::from_objects(fixed.iter().map(arm_json)))
        .object(
            "adaptive_beats",
            beats
                .into_iter()
                .fold(JsonObject::new(), |object, (name, axes)| {
                    object.str(name, &axes.join(","))
                }),
        )
        .object(
            "bit_identity",
            JsonObject::new()
                .bool("routed_solves_match_direct_invocation", true)
                .uint("checked_per_arm", scale.identity_checks as u64),
        );
    let path = taxi_bench::artifact_path("BENCH_router.json");
    std::fs::write(&path, artifact.render()).expect("write BENCH_router.json");
    println!("wrote {}", path.display());
    // Asserted after the artifact lands so a failing claim still leaves the
    // evidence on disk (and as a CI artifact).
    for arm in &fixed {
        assert!(
            !winning_axes(&adaptive, arm).is_empty(),
            "adaptive routing must beat {} on at least one axis",
            arm.name
        );
    }
}
