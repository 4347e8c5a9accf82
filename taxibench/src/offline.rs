//! `solve-pla33810`: one cold solve, then repeated warm `TaxiSolver::solve`
//! calls on a 33,810-city grid instance (the generator family the repository
//! substitutes for TSPLIB's pla33810), with `nproc` solver threads on the
//! default Ising-macro backend.

use std::time::{Duration, Instant};

use taxi::{TaxiConfig, TaxiError, TaxiSolution, TaxiSolver};
use taxi_tsplib::generator::grid_drilling_instance;
use taxi_tsplib::TspInstance;

use crate::layers::{self, Layers, TracedSolves};
use crate::report::Report;
use crate::{check, stats, Args};

/// Solver set-ups (new solver + cold solve) per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Warm solves measured at least, however short `--seconds` is.
const MIN_SOLVES: usize = 3;
/// Latency limit of one warm solve for `slo_ok_ratio`: about three times a
/// warm solve on 2 vCPUs, so only a real stall misses it.
const LATENCY_LIMIT_S: f64 = 2.0;
/// Full-size sub-problems kept for the crossbar kernel replay.
const KERNEL_SAMPLES: usize = 256;
/// Repeats of the standalone clustering timing (median reported).
const CLUSTER_REPEATS: usize = 3;

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let spec = taxi_tsplib::benchmark_suite()
        .into_iter()
        .find(|spec| spec.name == "pla33810")
        .expect("pla33810 is part of the paper's suite");
    let instance = grid_drilling_instance(spec.name, spec.dimension, args.seed);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = TaxiConfig::new().with_threads(threads).with_seed(args.seed);
    report.note(format!(
        "{}-city grid instance (seed {}), {threads} solver threads",
        instance.dimension(),
        args.seed
    ));

    // Set-up: a new solver and its cold first solve. The last solver stays warm.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut warm: Option<(TaxiSolver, TaxiSolution)> = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let solver = TaxiSolver::new(config.clone());
        let cold = solver.solve(&instance);
        setups.push(started.elapsed().as_secs_f64());
        let first = warm.as_ref().map(|(_, first)| first);
        if let Some(solution) = record(&mut report, "cold solve", cold, first, &instance) {
            warm = Some((solver, solution));
        }
    }
    let Some((solver, first)) = warm else {
        return report;
    };
    let reference = taxi::experiments::reference_length(&spec, &instance);

    // Measurement: warm solves, each traced solve right after an untraced one.
    let mut traced = args
        .trace
        .then(|| TracedSolves::new(&config, KERNEL_SAMPLES));
    let mut walls = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while walls.len() < MIN_SOLVES || Instant::now() < deadline {
        let started = Instant::now();
        let result = solver.solve(&instance);
        walls.push(started.elapsed().as_secs_f64());
        record(&mut report, "warm solve", result, Some(&first), &instance);
        if let Some(traced) = traced.as_mut() {
            let result = traced.solve(&solver, &instance);
            record(
                &mut report,
                "traced warm solve",
                result,
                Some(&first),
                &instance,
            );
        }
    }
    let walls = stats::sorted(walls);

    match traced {
        None => {
            let within = walls.iter().filter(|&&w| w <= LATENCY_LIMIT_S).count();
            report.note(format!(
                "{} warm solves: median (solve_s) {:.6} s, slowest {:.3} ms",
                walls.len(),
                stats::median(&walls),
                walls[walls.len() - 1] * 1e3
            ));
            report.metric("setup_s", stats::median(&stats::sorted(setups)), "s");
            report.metric("peak_rss_mb", stats::peak_rss_mib(), "MiB");
            report.metric("e2e_p50_ms", stats::median(&walls) * 1e3, "ms");
            report.metric("slo_ok_ratio", within as f64 / walls.len() as f64, "ratio");
            report.metric(
                "achieved_rps",
                walls.len() as f64 / walls.iter().sum::<f64>(),
                "1/s",
            );
            report.metric("tour_ratio", first.length / reference, "ratio");
            report.metric("chip_latency_s", check::chip_seconds(&first), "sim_s");
            report.metric("chip_energy_j", first.energy.total_joules(), "sim_J");
            report.metric("served_len_mean", first.length, "length");
        }
        Some(traced) => {
            let mut layers = Layers::default();
            layers.set_pipeline(&traced, &mut report);
            layers.e2e_p99_ms = walls[walls.len() - 1] * 1e3;
            layers.trace_overhead =
                stats::median(&stats::sorted(traced.walls.clone())) / stats::median(&walls) - 1.0;
            trace_offline_layers(
                &mut layers,
                &traced,
                &config,
                &instance,
                args.seed,
                &mut report,
            );
            layers.emit(&mut report);
        }
    }
    report
}

/// The per-layer replays that run after the measured solves.
fn trace_offline_layers(
    layers: &mut Layers,
    traced: &TracedSolves,
    config: &TaxiConfig,
    instance: &TspInstance,
    seed: u64,
    report: &mut Report,
) {
    let mut builds = Vec::new();
    let mut fixes = Vec::new();
    for _ in 0..CLUSTER_REPEATS {
        match layers::time_cluster(instance, config) {
            Ok(timing) => {
                builds.push(timing.build_ms);
                fixes.push(timing.fix_ms);
                layers.cluster_levels = timing.levels;
            }
            Err(e) => report.fail(format!("cluster timing: {e}")),
        }
    }
    layers.cluster_build_ms = stats::median(&stats::sorted(builds));
    layers.cluster_fix_ms = stats::median(&stats::sorted(fixes));
    match layers::allocs_per_warm_serial_solve(config, instance) {
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

/// Counts one solve, checks its tour, and checks it against `first` when given.
fn record(
    report: &mut Report,
    what: &str,
    result: Result<TaxiSolution, TaxiError>,
    first: Option<&TaxiSolution>,
    instance: &TspInstance,
) -> Option<TaxiSolution> {
    report.attempted += 1;
    match result {
        Ok(solution) => {
            report.check(check::tour(what, instance, &solution.tour, solution.length));
            if let Some(first) = first {
                report.check(check::identical(what, &solution, first));
            }
            Some(solution)
        }
        Err(e) => {
            report.fail(format!("{what}: {e}"));
            None
        }
    }
}
