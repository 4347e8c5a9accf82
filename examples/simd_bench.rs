//! SIMD compute-core bench: kernel ns/op before/after plus end-to-end backend
//! throughput with and without neighbor-pruned local search. Emits the results as
//! `BENCH_simd.json` (consumed as a CI artifact).
//!
//! Two kinds of comparison:
//!
//! * **Kernels** — each hot kernel is timed against a faithful re-implementation of
//!   its pre-refactor shape (nested `Vec<Vec<f64>>` storage, scalar accumulation,
//!   per-cell scan). The f64 results must agree **bit-identically** wherever the
//!   refactor promises identity (lengths, matrix fills, MAC, superposition); the
//!   neighbor-pruned 2-opt arm is the opt-in approximation and is gated by a tour
//!   validity + quality bound instead.
//! * **End-to-end** — `instances_per_sec` for the software backends solving whole
//!   instances directly, before (`neighbor_limit = 0`, the exhaustive legacy scan)
//!   vs after (`neighbor_limit = 12`). A separate `pipeline` section reports the
//!   full hierarchical solver for all four backends — its sub-problems are capped
//!   at the cluster size, so pruning is expected to be neutral there.
//!
//! Run with `cargo run --release --example simd_bench`; set `TAXI_SIMD_SMOKE=1`
//! (CI) for a fast smoke-scale run.

use std::hint::black_box;
use std::time::Instant;

use taxi::{SolverBackend, SolverScratch, TaxiConfig, TaxiSolver};
use taxi_baselines::HeuristicScratch;
use taxi_baselines::{nearest_neighbor_tour, tour_length, two_opt, two_opt_limited};
use taxi_device::DeviceParams;
use taxi_dist::DistanceMatrix;
use taxi_tsplib::generator::{clustered_instance, random_uniform_instance};
use taxi_xbar::array::NonIdealityConfig;
use taxi_xbar::{BitPrecision, CrossbarArray, QuantizedDistances};

struct Scale {
    kernel_n: usize,
    kernel_iters: u32,
    mac_n: usize,
    mac_iters: u32,
    two_opt_n: usize,
    two_opt_iters: u32,
    flat_n: usize,
    flat_rounds: usize,
    pipeline_n: usize,
    pipeline_rounds: usize,
}

impl Scale {
    fn from_env() -> (Self, bool) {
        let smoke = std::env::var("TAXI_SIMD_SMOKE").is_ok_and(|v| v != "0");
        let scale = if smoke {
            Scale {
                kernel_n: 128,
                kernel_iters: 2_000,
                mac_n: 16,
                mac_iters: 2_000,
                two_opt_n: 160,
                two_opt_iters: 8,
                flat_n: 140,
                flat_rounds: 6,
                pipeline_n: 150,
                pipeline_rounds: 2,
            }
        } else {
            Scale {
                kernel_n: 512,
                kernel_iters: 20_000,
                mac_n: 64,
                mac_iters: 20_000,
                two_opt_n: 400,
                two_opt_iters: 30,
                flat_n: 320,
                flat_rounds: 20,
                pipeline_n: 400,
                pipeline_rounds: 6,
            }
        };
        (scale, smoke)
    }
}

/// Times `f` over `iters` calls and returns ns/op.
fn ns_per_op(iters: u32, mut f: impl FnMut()) -> f64 {
    // One untimed call to warm caches.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

struct KernelResult {
    name: &'static str,
    before_ns: f64,
    after_ns: f64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.before_ns / self.after_ns
    }
}

fn euclid_matrix(n: usize, seed: u64) -> DistanceMatrix {
    let mut state = seed.wrapping_add(0x9E37_79B9);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 1000.0
    };
    let points: Vec<(f64, f64)> = (0..n).map(|_| (next(), next())).collect();
    DistanceMatrix::from_fn(n, |i, j| {
        let (x1, y1) = points[i];
        let (x2, y2) = points[j];
        (x1 - x2).hypot(y1 - y2)
    })
}

/// Pre-refactor tour length: nested rows, scalar edge-by-edge accumulation.
fn tour_length_legacy(rows: &[Vec<f64>], order: &[usize]) -> f64 {
    let n = order.len();
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        total += rows[order[i]][order[(i + 1) % n]];
    }
    total
}

fn bench_tour_length(scale: &Scale) -> KernelResult {
    let matrix = euclid_matrix(scale.kernel_n, 1);
    let rows = matrix.to_rows();
    let order: Vec<usize> = (0..scale.kernel_n).collect();
    let legacy = tour_length_legacy(&rows, &order);
    let chunked = tour_length(&matrix, &order);
    assert!(
        legacy == chunked,
        "chunked tour length must be bit-identical to the legacy kernel"
    );
    KernelResult {
        name: "tour_length",
        before_ns: ns_per_op(scale.kernel_iters, || {
            black_box(tour_length_legacy(black_box(&rows), black_box(&order)));
        }),
        after_ns: ns_per_op(scale.kernel_iters, || {
            black_box(tour_length(black_box(&matrix), black_box(&order)));
        }),
    }
}

fn bench_matrix_fill(scale: &Scale) -> KernelResult {
    let n = scale.kernel_n;
    let coords: Vec<(f64, f64)> = {
        let m = euclid_matrix(n, 2);
        (0..n).map(|i| (m.get(0, i), m.get(i, 0))).collect()
    };
    let dist = |i: usize, j: usize| {
        let (x1, y1) = coords[i];
        let (x2, y2) = coords[j];
        (x1 - x2).hypot(y1 - y2)
    };
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut flat = DistanceMatrix::default();
    let fills = (scale.kernel_iters / 100).max(64);
    let result = KernelResult {
        name: "matrix_fill",
        before_ns: ns_per_op(fills, || {
            // Pre-refactor fill: row-of-Vecs, clear + extend per row.
            if rows.len() < n {
                rows.resize_with(n, Vec::new);
            }
            for i in 0..n {
                let row = &mut rows[i];
                row.clear();
                row.extend((0..n).map(|j| dist(i, j)));
            }
            black_box(&rows);
        }),
        after_ns: ns_per_op(fills, || {
            flat.fill_from_fn(n, dist);
            black_box(&flat);
        }),
    };
    for i in 0..n {
        for j in 0..n {
            assert!(
                rows[i][j] == flat.get(i, j),
                "fills must agree bit-identically"
            );
        }
    }
    result
}

/// Scalar MAC over the same cached conductances the chunked kernel reads.
fn mac_scalar_reference(array: &CrossbarArray, row_vector: &[bool], out: &mut [f64]) {
    let geometry = array.geometry();
    let v = array.params().read_voltage;
    let bits = geometry.precision.bits();
    out.fill(0.0);
    for p in 0..bits {
        let significance = f64::from(1u32 << (bits - 1 - p));
        let start = geometry.weight_partition_start(p);
        for (city, slot) in out.iter_mut().enumerate() {
            let mut i_col = 0.0;
            for (row, &active) in row_vector.iter().enumerate() {
                if active {
                    i_col += v * array.effective_conductance(row, start + city);
                }
            }
            *slot += significance * i_col;
        }
    }
}

fn bench_crossbar_mac(scale: &Scale) -> KernelResult {
    let n = scale.mac_n;
    let matrix = euclid_matrix(n, 3);
    let q = QuantizedDistances::from_distances(&matrix, BitPrecision::FOUR)
        .expect("quantization succeeds");
    let mut array = CrossbarArray::new(
        n,
        BitPrecision::FOUR,
        DeviceParams::default(),
        NonIdealityConfig::realistic(),
    );
    array.program_weights(&q).expect("weights program");
    let row_vector: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
    let mut before_out = vec![0.0f64; n];
    let mut after_out = vec![0.0f64; n];
    mac_scalar_reference(&array, &row_vector, &mut before_out);
    array.weighted_column_currents_uncached_into(&row_vector, &mut after_out);
    assert_eq!(
        before_out, after_out,
        "chunked MAC must be bit-identical to the scalar reference"
    );
    KernelResult {
        name: "crossbar_mac",
        before_ns: ns_per_op(scale.mac_iters, || {
            mac_scalar_reference(black_box(&array), black_box(&row_vector), &mut before_out);
            black_box(&before_out);
        }),
        after_ns: ns_per_op(scale.mac_iters, || {
            array.weighted_column_currents_uncached_into(black_box(&row_vector), &mut after_out);
            black_box(&after_out);
        }),
    }
}

fn bench_superposition(scale: &Scale) -> KernelResult {
    let n = scale.mac_n;
    let matrix = euclid_matrix(n, 4);
    let q = QuantizedDistances::from_distances(&matrix, BitPrecision::FOUR)
        .expect("quantization succeeds");
    let mut array = CrossbarArray::new(
        n,
        BitPrecision::FOUR,
        DeviceParams::default(),
        NonIdealityConfig::realistic(),
    );
    array.program_weights(&q).expect("weights program");
    let perm: Vec<usize> = (0..n).collect();
    array.write_assignment(&perm).expect("assignment writes");
    let orders: Vec<usize> = (0..4.min(n)).collect();

    let geometry = array.geometry();
    let v = array.params().read_voltage;
    let spin_start = geometry.spin_storage_start();
    let mut before_out = vec![0.0f64; n];
    let mut after_out = vec![0.0f64; n];

    let result = KernelResult {
        name: "superposition",
        before_ns: ns_per_op(scale.mac_iters, || {
            before_out.fill(0.0);
            for &order in &orders {
                let col = spin_start + order;
                for (row, slot) in before_out.iter_mut().enumerate() {
                    *slot += v * array.effective_conductance(row, col);
                }
            }
            black_box(&before_out);
        }),
        after_ns: ns_per_op(scale.mac_iters, || {
            array
                .superpose_orders_into(black_box(&orders), &mut after_out)
                .expect("superposition succeeds");
            black_box(&after_out);
        }),
    };
    assert_eq!(
        before_out, after_out,
        "chunked superposition must be bit-identical to the scalar reference"
    );
    result
}

fn bench_two_opt(scale: &Scale) -> KernelResult {
    let n = scale.two_opt_n;
    let matrix = euclid_matrix(n, 5);
    let seed_order = nearest_neighbor_tour(&matrix, 0);
    let mut scratch = HeuristicScratch::new();

    let mut exhaustive = seed_order.clone();
    two_opt(&matrix, &mut exhaustive, 1_000);
    let exhaustive_len = tour_length(&matrix, &exhaustive);
    let limit = 16;
    let mut pruned = seed_order.clone();
    two_opt_limited(&matrix, &mut pruned, 1_000, &mut scratch, limit);
    let pruned_len = tour_length(&matrix, &pruned);
    // Quality gate for the opt-in approximation: valid permutation, bounded regression.
    let mut sorted = pruned.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..n).collect::<Vec<_>>(),
        "pruned 2-opt must stay a tour"
    );
    assert!(
        pruned_len <= exhaustive_len * 1.2,
        "pruned 2-opt regressed quality beyond 20%: {pruned_len:.1} vs {exhaustive_len:.1}"
    );

    let mut order = seed_order.clone();
    KernelResult {
        name: "two_opt_pass",
        before_ns: ns_per_op(scale.two_opt_iters, || {
            order.copy_from_slice(&seed_order);
            black_box(two_opt(black_box(&matrix), &mut order, 1_000));
        }),
        after_ns: ns_per_op(scale.two_opt_iters, || {
            order.copy_from_slice(&seed_order);
            black_box(two_opt_limited(
                black_box(&matrix),
                &mut order,
                1_000,
                &mut scratch,
                limit,
            ));
        }),
    }
}

struct EndToEnd {
    backend: &'static str,
    before_ips: f64,
    after_ips: f64,
}

impl EndToEnd {
    fn speedup(&self) -> f64 {
        self.after_ips / self.before_ips
    }
}

/// Direct backend solves over whole flat instances (where neighbor pruning engages).
fn flat_end_to_end(scale: &Scale) -> Vec<EndToEnd> {
    let instances: Vec<DistanceMatrix> = (0..3)
        .map(|i| {
            random_uniform_instance("simd-flat", scale.flat_n + 20 * i, 7 + i as u64)
                .full_distance_matrix()
        })
        .collect();
    let mut results = Vec::new();
    for kind in [SolverBackend::NnTwoOpt, SolverBackend::GreedyEdge] {
        let before = TaxiConfig::new().with_backend(kind).build_backend();
        let after = TaxiConfig::new()
            .with_backend(kind)
            .with_neighbor_limit(12)
            .build_backend();
        let mut scratch = SolverScratch::new();
        let mut out = Vec::new();
        let mut arm = |backend: &std::sync::Arc<dyn taxi::TourSolver>| {
            // Warm-up.
            for m in &instances {
                backend
                    .solve_cycle_into(m, 1, &mut scratch, &mut out)
                    .expect("solve succeeds");
            }
            let start = Instant::now();
            for _ in 0..scale.flat_rounds {
                for m in &instances {
                    backend
                        .solve_cycle_into(m, 1, &mut scratch, &mut out)
                        .expect("solve succeeds");
                    black_box(&out);
                }
            }
            (scale.flat_rounds * instances.len()) as f64 / start.elapsed().as_secs_f64()
        };
        let before_ips = arm(&before);
        let after_ips = arm(&after);
        results.push(EndToEnd {
            backend: kind.label(),
            before_ips,
            after_ips,
        });
    }
    results
}

/// Full hierarchical pipeline for every backend (pruning is neutral here by design:
/// sub-problems are capped at the cluster size).
fn pipeline_end_to_end(scale: &Scale) -> Vec<EndToEnd> {
    let instance = clustered_instance("simd-pipeline", scale.pipeline_n, 12, 77);
    let mut results = Vec::new();
    for kind in SolverBackend::ALL {
        let arm = |limit: usize| {
            let solver = TaxiSolver::new(
                TaxiConfig::new()
                    .with_seed(7)
                    .with_threads(1)
                    .with_backend(kind)
                    .with_neighbor_limit(limit),
            );
            let mut ctx = taxi::SolveContext::new();
            solver
                .solve_reusing(&instance, &mut ctx)
                .expect("warm-up solve succeeds");
            let start = Instant::now();
            for _ in 0..scale.pipeline_rounds {
                black_box(
                    solver
                        .solve_reusing(&instance, &mut ctx)
                        .expect("solve succeeds"),
                );
            }
            scale.pipeline_rounds as f64 / start.elapsed().as_secs_f64()
        };
        results.push(EndToEnd {
            backend: kind.label(),
            before_ips: arm(0),
            after_ips: arm(12),
        });
    }
    results
}

fn main() {
    let (scale, smoke) = Scale::from_env();
    println!(
        "SIMD compute-core bench ({} scale)",
        if smoke { "smoke" } else { "full" }
    );

    let kernels = vec![
        bench_tour_length(&scale),
        bench_matrix_fill(&scale),
        bench_crossbar_mac(&scale),
        bench_superposition(&scale),
        bench_two_opt(&scale),
    ];
    println!("\nkernels (ns/op):");
    for k in &kernels {
        println!(
            "  {:14} before {:>10.1}  after {:>10.1}  speedup {:>6.2}x",
            k.name,
            k.before_ns,
            k.after_ns,
            k.speedup()
        );
    }

    let flat = flat_end_to_end(&scale);
    println!("\nend-to-end, direct backend solves (instances/s):");
    for e in &flat {
        println!(
            "  {:14} before {:>8.2}  after {:>8.2}  speedup {:>6.2}x",
            e.backend,
            e.before_ips,
            e.after_ips,
            e.speedup()
        );
    }

    let pipeline = pipeline_end_to_end(&scale);
    println!("\nend-to-end, hierarchical pipeline (instances/s):");
    for e in &pipeline {
        println!(
            "  {:14} before {:>8.2}  after {:>8.2}  speedup {:>6.2}x",
            e.backend,
            e.before_ips,
            e.after_ips,
            e.speedup()
        );
    }

    let best = flat
        .iter()
        .map(|e| e.speedup())
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        best >= 1.3,
        "acceptance gate: expected >= 1.3x end-to-end on at least one backend, best was {best:.2}x"
    );

    let mut json = String::from("{\n  \"bench\": \"simd_compute_core\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"before_ns_per_op\": {:.1}, \"after_ns_per_op\": {:.1}, \"speedup\": {:.3} }}{}\n",
            k.name,
            k.before_ns,
            k.after_ns,
            k.speedup(),
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in flat.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"backend\": \"{}\", \"before_instances_per_sec\": {:.3}, \"after_instances_per_sec\": {:.3}, \"speedup\": {:.3} }}{}\n",
            e.backend,
            e.before_ips,
            e.after_ips,
            e.speedup(),
            if i + 1 < flat.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"pipeline\": [\n");
    for (i, e) in pipeline.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"backend\": \"{}\", \"before_instances_per_sec\": {:.3}, \"after_instances_per_sec\": {:.3}, \"speedup\": {:.3} }}{}\n",
            e.backend,
            e.before_ips,
            e.after_ips,
            e.speedup(),
            if i + 1 < pipeline.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = taxi_bench::artifact_path("BENCH_simd.json");
    std::fs::write(&path, json).expect("write BENCH_simd.json");
    println!("\nwrote {}", path.display());
}
