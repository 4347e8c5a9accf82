//! Integration tests for the pluggable solver-backend API: backend agreement on small
//! instances, `solve_batch` equivalence, and pipeline stage-report accounting.

use proptest::prelude::*;

use taxi::pipeline::Stage;
use taxi::{SolverBackend, TaxiConfig, TaxiSolver};
use taxi_baselines::held_karp;
use taxi_tsplib::generator::{clustered_instance, random_uniform_instance};

fn is_permutation(order: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order.iter().all(|&c| {
            if c >= n || seen[c] {
                false
            } else {
                seen[c] = true;
                true
            }
        })
}

/// Every backend must produce a valid permutation tour through the full pipeline.
#[test]
fn every_backend_returns_a_valid_tour() {
    let instance = clustered_instance("agree", 80, 5, 11);
    for backend in SolverBackend::ALL {
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(1).with_backend(backend));
        let solution = solver.solve(&instance).unwrap();
        assert!(
            is_permutation(solution.tour.order(), instance.dimension()),
            "backend {backend} produced an invalid tour"
        );
    }
}

/// On instances small enough to fit one macro, every backend's cycle must be at least as
/// long as the Held–Karp optimum, and the exact backend must match it.
#[test]
fn backends_agree_with_exact_dp_on_tiny_instances() {
    for seed in [3u64, 7, 20] {
        let instance = random_uniform_instance("tiny-exact", 10, seed);
        let matrix = instance.full_distance_matrix();
        let optimum = held_karp(&matrix).unwrap().length;
        for backend in SolverBackend::ALL {
            let solver = TaxiSolver::new(TaxiConfig::new().with_seed(5).with_backend(backend));
            let solution = solver.solve(&instance).unwrap();
            assert_eq!(solution.levels, 0, "10 cities must fit one macro");
            assert!(
                solution.length >= optimum - 1e-9,
                "backend {backend} undercut the optimum: {} < {optimum}",
                solution.length
            );
            if backend == SolverBackend::Exact {
                assert!(
                    (solution.length - optimum).abs() < 1e-9,
                    "exact backend must return the optimum, got {} vs {optimum}",
                    solution.length
                );
            }
        }
    }
}

/// `solve_batch` must produce tours identical to per-instance `solve` under a fixed
/// seed, for every backend and for both serial and parallel configurations.
#[test]
fn solve_batch_matches_sequential_solves() {
    let instances = vec![
        clustered_instance("eq-a", 70, 4, 2),
        clustered_instance("eq-b", 100, 6, 3),
        random_uniform_instance("eq-c", 11, 4),
    ];
    for backend in [SolverBackend::IsingMacro, SolverBackend::NnTwoOpt] {
        for threads in [1usize, 4] {
            let solver = TaxiSolver::new(
                TaxiConfig::new()
                    .with_seed(21)
                    .with_threads(threads)
                    .with_backend(backend),
            );
            let batch = solver.solve_batch(&instances);
            for (instance, batched) in instances.iter().zip(&batch) {
                let batched = batched.as_ref().unwrap();
                let individual = solver.solve(instance).unwrap();
                assert_eq!(
                    batched.tour, individual.tour,
                    "batch/sequential divergence for {backend} with {threads} threads"
                );
            }
        }
    }
}

/// Every backend is deterministic in `(instance, seed)`, so the tour and the modelled
/// chip energy must not depend on the number of solver threads. For the Ising macro
/// this is what lets a figure measured on one host hold on any other.
#[test]
fn backends_are_thread_count_invariant() {
    let instance = clustered_instance("invariant", 120, 6, 8);
    for backend in SolverBackend::ALL {
        let solve = |threads| {
            TaxiSolver::new(
                TaxiConfig::new()
                    .with_seed(6)
                    .with_threads(threads)
                    .with_backend(backend),
            )
            .solve(&instance)
            .unwrap()
        };
        let serial = solve(1);
        for threads in [2, 7] {
            let parallel = solve(threads);
            assert_eq!(
                serial.tour, parallel.tour,
                "{backend} diverged between 1 and {threads} threads"
            );
            assert_eq!(
                serial.energy, parallel.energy,
                "{backend} modelled energy moved between 1 and {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The five stage reports must be present, in order, and tie out to the solution's
    /// latency breakdown: host-measured stages match the breakdown's host components and
    /// the Account stage's modelled seconds equal the modelled hardware latency.
    #[test]
    fn stage_reports_sum_to_the_latency_breakdown(
        cities in 12usize..90,
        seed in 0u64..500,
    ) {
        let instance = clustered_instance("stage-sum", cities, 4, seed);
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(seed));
        let solution = solver.solve(&instance).unwrap();

        let stages: Vec<Stage> = solution.stage_reports.iter().map(|r| r.stage).collect();
        prop_assert_eq!(stages, Stage::ALL.to_vec());

        let report = |stage: Stage| solution.stage_report(stage).unwrap();
        prop_assert!(
            (report(Stage::Cluster).seconds - solution.latency.clustering_seconds).abs()
                < 1e-12
        );
        prop_assert!(
            (report(Stage::FixEndpoints).seconds - solution.latency.fixing_seconds).abs()
                < 1e-12
        );
        prop_assert!(
            (report(Stage::SolveLevels).seconds - solution.software_solve_seconds).abs()
                < 1e-12
        );
        prop_assert_eq!(report(Stage::SolveLevels).items, solution.subproblems);

        let modeled = solution.latency.ising_seconds
            + solution.latency.transfer_seconds
            + solution.latency.mapping_seconds;
        prop_assert!((report(Stage::Account).modeled_seconds - modeled).abs() < 1e-12);

        // Host stages + modelled hardware = the full latency breakdown.
        let host = report(Stage::Cluster).seconds + report(Stage::FixEndpoints).seconds;
        prop_assert!(
            (host + modeled - solution.latency.total_seconds()).abs() < 1e-9,
            "stage reports must sum to the latency breakdown"
        );
    }
}
