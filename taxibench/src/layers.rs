//! Per-layer measurement taken from outside the program: a pipeline observer on
//! the benchmark's own clock, a timing wrapper around the sub-problem backend,
//! and replays of the public cluster and crossbar calls. Nothing here changes
//! what the program computes; the traced solves are checked against untraced
//! ones bit for bit.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use taxi::pipeline::{PipelineObserver, Stage, StageReport};
use taxi::{SolverScratch, SubTour, TaxiConfig, TaxiError, TaxiSolution, TaxiSolver, TourSolver};
use taxi_cluster::{EndpointFixer, Hierarchy, Point};
use taxi_device::WriteCurrent;
use taxi_dist::DistanceMatrix;
use taxi_ising::macro_solver::nearest_neighbor_order;
use taxi_ising::{AnnealingSchedule, MacroSolverConfig};
use taxi_tsplib::TspInstance;
use taxi_xbar::{
    ArgMaxCircuit, CrossbarArray, CurrentComparator, IsingMacro, QuantizedDistances,
    StochasticMaskCircuit,
};

use crate::report::Report;

/// `MacroConfig`'s default ArgMax resolution for realistic devices (the config
/// exposes no getter for it).
const ARGMAX_RESOLUTION: f64 = 1e-3;

/// Every per-layer metric of the benchmark. Each traced run reports all of them;
/// a layer the workload never calls reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub fingerprint_us: f64,
    pub cluster_build_ms: f64,
    pub cluster_levels: f64,
    pub cluster_fix_ms: f64,
    /// Mean seconds per solve of Cluster, FixEndpoints, SolveLevels, Assemble and
    /// Account, in `Stage::ALL` order.
    pub stage_s: [f64; 5],
    pub residual_s: f64,
    pub wall_s: f64,
    pub allocs_per_solve: f64,
    pub subproblem_us: f64,
    pub subproblems: f64,
    pub kernels: KernelSplit,
    pub cache_hit_ratio: f64,
    pub cache_served_hit_ratio: f64,
    pub cache_coalesced_ratio: f64,
    pub cache_evictions: f64,
    pub cache_lookup_us: f64,
    pub cache_insert_us: f64,
    pub admit_us: f64,
    pub queue_wait_ms_p50: f64,
    pub queue_wait_ms_p99: f64,
    pub solve_ms_p50: f64,
    pub deliver_us: f64,
    pub batch_size_mean: f64,
    pub shed: f64,
    pub rejected: f64,
    pub route_ns: f64,
    pub shard_skew: f64,
    pub scrape_us: f64,
    pub e2e_p99_ms: f64,
    pub gen_lag_ms: f64,
    pub gen_lag_max_ms: f64,
    pub trace_overhead: f64,
}

impl Layers {
    /// Adds every per-layer metric to `report`, in the order of `BENCHMARK.json`.
    pub fn emit(&self, report: &mut Report) {
        let k = &self.kernels;
        report.metric("tsplib.fingerprint_us", self.fingerprint_us, "us");
        report.metric("cluster.build_ms", self.cluster_build_ms, "ms");
        report.metric("cluster.levels", self.cluster_levels, "count");
        report.metric("cluster.fix_ms", self.cluster_fix_ms, "ms");
        report.metric("pipeline.cluster_s", self.stage_s[0], "s");
        report.metric("pipeline.fix_s", self.stage_s[1], "s");
        report.metric("pipeline.solve_levels_s", self.stage_s[2], "s");
        report.metric("pipeline.assemble_s", self.stage_s[3], "s");
        report.metric("pipeline.account_s", self.stage_s[4], "s");
        report.metric("pipeline.residual_s", self.residual_s, "s");
        report.metric("pipeline.wall_s", self.wall_s, "s");
        report.metric("pipeline.allocs_per_solve", self.allocs_per_solve, "count");
        report.metric("ising.subproblem_us", self.subproblem_us, "us");
        report.metric("ising.subproblems", self.subproblems, "count");
        report.metric("xbar.superpose_ns", k.superpose_ns, "ns");
        report.metric("xbar.mac_ns", k.mac_ns, "ns");
        report.metric("xbar.mask_ns", k.mask_ns, "ns");
        report.metric("xbar.argmax_ns", k.argmax_ns, "ns");
        report.metric("xbar.step_ns", k.step_ns, "ns");
        report.metric("xbar.residual_ns", k.residual_ns(), "ns");
        report.metric("xbar.steps", k.steps, "count");
        report.metric("arch.account_ms", self.stage_s[4] * 1e3, "ms");
        report.metric("cache.hit_ratio", self.cache_hit_ratio, "ratio");
        report.metric(
            "cache.served_hit_ratio",
            self.cache_served_hit_ratio,
            "ratio",
        );
        report.metric("cache.coalesced_ratio", self.cache_coalesced_ratio, "ratio");
        report.metric("cache.evictions", self.cache_evictions, "count");
        report.metric("cache.lookup_us", self.cache_lookup_us, "us");
        report.metric("cache.insert_us", self.cache_insert_us, "us");
        report.metric("dispatch.admit_us", self.admit_us, "us");
        report.metric("dispatch.queue_wait_ms_p50", self.queue_wait_ms_p50, "ms");
        report.metric("dispatch.queue_wait_ms_p99", self.queue_wait_ms_p99, "ms");
        report.metric("dispatch.solve_ms_p50", self.solve_ms_p50, "ms");
        report.metric("dispatch.deliver_us", self.deliver_us, "us");
        report.metric("dispatch.batch_size_mean", self.batch_size_mean, "count");
        report.metric("dispatch.shed", self.shed, "count");
        report.metric("dispatch.rejected", self.rejected, "count");
        report.metric("fleet.route_ns", self.route_ns, "ns");
        report.metric("fleet.shard_skew", self.shard_skew, "ratio");
        report.metric("obs.scrape_us", self.scrape_us, "us");
        report.metric("harness.e2e_p99_ms", self.e2e_p99_ms, "ms");
        report.metric("harness.gen_lag_ms", self.gen_lag_ms, "ms");
        report.metric("harness.gen_lag_max_ms", self.gen_lag_max_ms, "ms");
        report.metric("harness.trace_overhead", self.trace_overhead, "ratio");
    }

    /// Fills the pipeline and backend metrics from traced solves. The residual is
    /// defined so that stage times plus residual equal the wall time; the split
    /// is printed as a note.
    pub fn set_pipeline(&mut self, traced: &TracedSolves, report: &mut Report) {
        let solves = traced.walls.len().max(1) as f64;
        for (slot, total) in self.stage_s.iter_mut().zip(traced.stage_s) {
            *slot = total / solves;
        }
        self.wall_s = traced.walls.iter().sum::<f64>() / solves;
        self.residual_s = self.wall_s - self.stage_s.iter().sum::<f64>();
        let calls = traced.backend.calls.load(Ordering::Relaxed);
        self.subproblems = calls as f64 / solves;
        self.subproblem_us =
            traced.backend.nanos.load(Ordering::Relaxed) as f64 / calls.max(1) as f64 / 1e3;
        report.note(format!(
            "pipeline split per traced solve: cluster {:.6} + fix {:.6} + solve_levels {:.6} + assemble {:.6} + account {:.6} + residual {:.6} = wall {:.6} s",
            self.stage_s[0],
            self.stage_s[1],
            self.stage_s[2],
            self.stage_s[3],
            self.stage_s[4],
            self.residual_s,
            self.wall_s
        ));
    }
}

/// Stage times of one solve on the benchmark's clock.
///
/// Cluster, Assemble and Account are timed between their start and end hooks.
/// FixEndpoints and SolveLevels interleave per level and both start before the
/// level loop, so the loop is timed as one interval and split by the program's
/// own FixEndpoints report: SolveLevels gets the rest of the loop.
#[derive(Debug, Default)]
pub struct StageClock {
    started: [Option<Instant>; 5],
    seconds: [f64; 5],
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|&s| s == stage)
        .expect("Stage::ALL lists every stage")
}

impl PipelineObserver for StageClock {
    fn on_stage_start(&mut self, stage: Stage) {
        self.started[stage_index(stage)] = Some(Instant::now());
    }

    fn on_stage_end(&mut self, report: &StageReport) {
        let index = stage_index(report.stage);
        let elapsed = self.started[index].map_or(0.0, |t| t.elapsed().as_secs_f64());
        match report.stage {
            Stage::FixEndpoints => {
                self.seconds[index] += report.seconds;
                self.seconds[stage_index(Stage::SolveLevels)] += elapsed - report.seconds;
            }
            Stage::SolveLevels => {}
            _ => self.seconds[index] += elapsed,
        }
    }
}

/// A [`TourSolver`] that forwards to the configured backend, timing every
/// sub-problem call and keeping copies of the first sub-problems of full
/// cluster size for the crossbar kernel replay.
pub struct TimedBackend {
    inner: Arc<dyn TourSolver>,
    calls: AtomicU64,
    nanos: AtomicU64,
    sample_cities: usize,
    sample_limit: usize,
    sampled: AtomicBool,
    samples: Mutex<Vec<DistanceMatrix>>,
}

impl TimedBackend {
    /// Wraps the backend `config` builds, sampling up to `sample_limit`
    /// sub-problems with exactly `config.max_cluster_size()` cities.
    pub fn new(config: &TaxiConfig, sample_limit: usize) -> Self {
        Self {
            inner: config.build_backend(),
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            sample_cities: config.max_cluster_size(),
            sample_limit,
            sampled: AtomicBool::new(sample_limit == 0),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// The sampled sub-problem matrices.
    pub fn samples(&self) -> Vec<DistanceMatrix> {
        self.samples.lock().expect("sample lock").clone()
    }

    fn timed<R>(&self, distances: &DistanceMatrix, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = f();
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if distances.n() == self.sample_cities && !self.sampled.load(Ordering::Relaxed) {
            let mut samples = self.samples.lock().expect("sample lock");
            if samples.len() < self.sample_limit {
                samples.push(distances.clone());
            } else {
                self.sampled.store(true, Ordering::Relaxed);
            }
        }
        result
    }
}

impl TourSolver for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve_cycle(&self, distances: &DistanceMatrix, seed: u64) -> Result<SubTour, TaxiError> {
        self.timed(distances, || self.inner.solve_cycle(distances, seed))
    }

    fn solve_path(
        &self,
        distances: &DistanceMatrix,
        start: usize,
        end: usize,
        seed: u64,
    ) -> Result<SubTour, TaxiError> {
        self.timed(distances, || {
            self.inner.solve_path(distances, start, end, seed)
        })
    }

    fn solve_cycle_into(
        &self,
        distances: &DistanceMatrix,
        seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        self.timed(distances, || {
            self.inner.solve_cycle_into(distances, seed, scratch, out)
        })
    }

    fn solve_path_into(
        &self,
        distances: &DistanceMatrix,
        start: usize,
        end: usize,
        seed: u64,
        scratch: &mut SolverScratch,
        out: &mut Vec<usize>,
    ) -> Result<f64, TaxiError> {
        self.timed(distances, || {
            self.inner
                .solve_path_into(distances, start, end, seed, scratch, out)
        })
    }
}

/// Accumulated stage clocks and backend timings of a series of traced solves.
pub struct TracedSolves {
    pub stage_s: [f64; 5],
    pub walls: Vec<f64>,
    pub backend: Arc<TimedBackend>,
}

impl TracedSolves {
    pub fn new(config: &TaxiConfig, sample_limit: usize) -> Self {
        Self {
            stage_s: [0.0; 5],
            walls: Vec::new(),
            backend: Arc::new(TimedBackend::new(config, sample_limit)),
        }
    }

    /// Solves `instance` with the stage clock and the timed backend attached.
    pub fn solve(
        &mut self,
        solver: &TaxiSolver,
        instance: &TspInstance,
    ) -> Result<TaxiSolution, TaxiError> {
        let backend: Arc<dyn TourSolver> = self.backend.clone();
        let mut clock = StageClock::default();
        let started = Instant::now();
        let solution = solver.solve_with_backend_observed(instance, &backend, &mut clock)?;
        self.walls.push(started.elapsed().as_secs_f64());
        for (total, s) in self.stage_s.iter_mut().zip(clock.seconds) {
            *total += s;
        }
        Ok(solution)
    }
}

/// Clustering and endpoint fixing of one instance, timed through the cluster
/// crate's public calls.
pub struct ClusterTiming {
    pub build_ms: f64,
    pub levels: f64,
    pub fix_ms: f64,
}

/// Times `Hierarchy::build` and one top-down pass of `EndpointFixer::fix_into`
/// over every level (clusters visited in index order, since the solve's visiting
/// orders are internal to the pipeline).
pub fn time_cluster(instance: &TspInstance, config: &TaxiConfig) -> Result<ClusterTiming, String> {
    let coords = instance
        .coordinates()
        .ok_or("instance has no coordinates")?;
    let cities: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let hierarchy_config = config.hierarchy_config().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let hierarchy = Hierarchy::build(&cities, &hierarchy_config).map_err(|e| e.to_string())?;
    let build = started.elapsed();

    let mut fix = Duration::ZERO;
    if let Some(top) = hierarchy.top_level() {
        let mut cluster_order: Vec<usize> = (0..top.len()).collect();
        let mut endpoints = Vec::new();
        for level_index in (0..hierarchy.num_levels()).rev() {
            let level = hierarchy.level(level_index);
            let positions: &[Point] = if level_index == 0 {
                &cities
            } else {
                hierarchy.level(level_index - 1).centroids()
            };
            let started = Instant::now();
            EndpointFixer::new(positions)
                .fix_into(&level, &cluster_order, &mut endpoints)
                .map_err(|e| e.to_string())?;
            fix += started.elapsed();
            cluster_order = cluster_order
                .iter()
                .flat_map(|&c| level.members(c).iter().map(|&m| m as usize))
                .collect();
        }
    }
    Ok(ClusterTiming {
        build_ms: build.as_secs_f64() * 1e3,
        levels: hierarchy.num_levels() as f64,
        fix_ms: fix.as_secs_f64() * 1e3,
    })
}

/// Heap allocations of one warm serial solve (`threads = 1`, so every
/// allocation happens on this thread while nothing else runs).
pub fn allocs_per_warm_serial_solve(
    config: &TaxiConfig,
    instance: &TspInstance,
) -> Result<f64, String> {
    let solver = TaxiSolver::new(config.clone().with_threads(1));
    solver.solve(instance).map_err(|e| e.to_string())?;
    let (result, allocations) = crate::alloc::count(|| solver.solve(instance));
    result.map_err(|e| e.to_string())?;
    Ok(allocations as f64)
}

/// Host time per call of each crossbar kernel, per full optimisation step, and
/// the macro's step count per sub-problem.
#[derive(Debug, Default)]
pub struct KernelSplit {
    pub superpose_ns: f64,
    pub mac_ns: f64,
    pub mask_ns: f64,
    pub argmax_ns: f64,
    pub step_ns: f64,
    pub steps: f64,
}

impl KernelSplit {
    /// The part of a step no kernel accounts for: assignment readout, latch
    /// copy, neighbour suppression and the spin-storage update.
    pub fn residual_ns(&self) -> f64 {
        self.step_ns - (self.superpose_ns + self.mac_ns + self.mask_ns + self.argmax_ns)
    }
}

/// Replays sampled sub-problems through the public crossbar kernels and
/// `IsingMacro::optimize_order`, one annealing schedule per sub-problem. Each
/// kernel runs in its own loop over the schedule (so one clock read covers a
/// whole schedule) on the inputs the preceding kernel produced.
pub fn replay_kernels(
    samples: &[DistanceMatrix],
    config: &MacroSolverConfig,
    seed: u64,
) -> Result<KernelSplit, String> {
    let err = |e: taxi_xbar::XbarError| e.to_string();
    let macro_config = config.macro_config();
    let params = macro_config.device_params();
    let schedule = config.schedule();
    let total = schedule.len();
    let currents: Vec<WriteCurrent> = (0..total).map(|t| schedule.current_at(t)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ns = [0u128; 5];
    let mut steps = 0u64;
    let mut calls = 0u64;
    for matrix in samples {
        let n = matrix.n();
        let initial = nearest_neighbor_order(matrix, 0);

        let mut macro_ = IsingMacro::new(matrix, macro_config.clone()).map_err(err)?;
        macro_.initialize_order(&initial).map_err(err)?;
        let started = Instant::now();
        for (t, &i_write) in currents.iter().enumerate() {
            black_box(
                macro_
                    .optimize_order(t % n, i_write, &mut rng)
                    .map_err(err)?,
            );
        }
        ns[4] += started.elapsed().as_nanos();
        steps += macro_.op_counts().order_steps;

        let weights =
            QuantizedDistances::from_distances(matrix, macro_config.precision()).map_err(err)?;
        let mut array = CrossbarArray::new(
            n,
            macro_config.precision(),
            params.clone(),
            macro_config.non_ideality(),
        );
        array.program_weights(&weights).map_err(err)?;
        array.write_assignment(&initial).map_err(err)?;
        let comparator = CurrentComparator::for_device(params);
        let mut row = vec![0.0; n];
        let mut latched = vec![vec![false; n]; n];
        let started = Instant::now();
        for t in 0..total {
            let order = t % n;
            array
                .superpose_orders_into(&[(order + n - 1) % n, (order + 1) % n], &mut row)
                .map_err(err)?;
            comparator.compare_into(&row, &mut latched[order]);
        }
        ns[0] += started.elapsed().as_nanos();

        let mut city = vec![vec![0.0; n]; n];
        let started = Instant::now();
        for t in 0..total {
            let order = t % n;
            array.weighted_column_currents_into(&latched[order], &mut city[order]);
        }
        ns[1] += started.elapsed().as_nanos();

        let mut mask = StochasticMaskCircuit::new(params.clone(), n).map_err(err)?;
        let mut gated = vec![vec![0.0; n]; n];
        let started = Instant::now();
        for (t, &i_write) in currents.iter().enumerate() {
            let order = t % n;
            mask.gate_into(&city[order], i_write, &mut rng, &mut gated[order])
                .map_err(err)?;
        }
        ns[2] += started.elapsed().as_nanos();

        let argmax = ArgMaxCircuit::new(ARGMAX_RESOLUTION);
        let started = Instant::now();
        for t in 0..total {
            black_box(argmax.winner(&gated[t % n], &mut rng));
        }
        ns[3] += started.elapsed().as_nanos();
        calls += total as u64;
    }
    let per_call = |total_ns: u128| total_ns as f64 / calls.max(1) as f64;
    Ok(KernelSplit {
        superpose_ns: per_call(ns[0]),
        mac_ns: per_call(ns[1]),
        mask_ns: per_call(ns[2]),
        argmax_ns: per_call(ns[3]),
        step_ns: per_call(ns[4]),
        steps: steps as f64 / samples.len().max(1) as f64,
    })
}
