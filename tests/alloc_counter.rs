//! Allocation-counting proof of the zero-realloc solve path.
//!
//! A counting global allocator wraps the system allocator for this test binary only.
//! The tests drive the exact operations of the pipeline's per-level sub-problem solve
//! loop — member extraction, in-place distance-matrix fill, and the buffer-reusing
//! [`TourSolver::solve_cycle_into`] / [`TourSolver::solve_path_into`] backend calls —
//! through the public API, warm the scratch arena, and then assert that a steady-state
//! pass performs **zero heap allocations** for every built-in backend.
//!
//! A second test shows the end-to-end effect: a warm [`SolveContext`] solve allocates
//! strictly less than a cold one, and batched solves stay bit-identical to individual
//! solves across all four backends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taxi::{SolveContext, SolverBackend, SolverScratch, TaxiConfig, TaxiSolver};
use taxi_cluster::{EndpointFixer, Hierarchy, Point};
use taxi_dist::DistanceMatrix;
use taxi_tsplib::generator::clustered_instance;
use taxi_tsplib::TspInstance;

/// Counts every allocation (alloc, alloc_zeroed, realloc) passed to the system
/// allocator.
struct CountingAllocator;

// Per-thread counter (const-init `Cell<u64>` has no destructor and never
// allocates itself): sibling tests running concurrently in this binary
// allocate on their own threads and cannot pollute a measured region.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Drives one full pass of the level-solve loop (the body of the pipeline's
/// `SolveLevels` stage for level 0) through the public buffer-reusing API, returning
/// the number of heap allocations it performed.
struct LevelSolveHarness {
    instance: TspInstance,
    hierarchy: Hierarchy,
    endpoints: Vec<taxi_cluster::FixedEndpoints>,
    scratch: SolverScratch,
    matrix: DistanceMatrix,
    members: Vec<usize>,
    out: Vec<usize>,
}

impl LevelSolveHarness {
    fn new() -> Self {
        let instance = clustered_instance("alloc-proof", 140, 7, 11);
        let points: Vec<Point> = instance
            .coordinates()
            .unwrap()
            .iter()
            .map(|&(x, y)| Point::new(x, y))
            .collect();
        let config = TaxiConfig::new();
        let hierarchy = Hierarchy::build(&points, &config.hierarchy_config().unwrap()).unwrap();
        assert!(hierarchy.num_levels() >= 1, "instance must need clustering");
        let level = hierarchy.level(0);
        let order: Vec<usize> = (0..level.len()).collect();
        let fixer = EndpointFixer::new(&points);
        let mut endpoints = Vec::new();
        fixer.fix_into(&level, &order, &mut endpoints).unwrap();
        Self {
            instance,
            hierarchy,
            endpoints,
            scratch: SolverScratch::new(),
            matrix: DistanceMatrix::default(),
            members: Vec::new(),
            out: Vec::new(),
        }
    }

    /// One pass over every multi-member cluster of level 0: extract members, fill the
    /// distance matrix in place, solve through the backend into the reused buffer.
    fn run_pass(&mut self, backend: &dyn taxi::TourSolver, seed: u64) {
        let level = self.hierarchy.level(0);
        for c in 0..level.len() {
            let members = level.members(c);
            if members.len() == 1 {
                continue;
            }
            self.members.clear();
            self.members.extend(members.iter().map(|&m| m as usize));
            let n = self.members.len();
            self.instance
                .distance_matrix_into(&self.members, &mut self.matrix)
                .unwrap();
            let e = self.endpoints[c];
            let start = self.members.iter().position(|&m| m == e.entry).unwrap();
            let end = self.members.iter().position(|&m| m == e.exit).unwrap();
            let seed = seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if start == end {
                backend
                    .solve_cycle_into(&self.matrix, seed, &mut self.scratch, &mut self.out)
                    .unwrap();
            } else {
                backend
                    .solve_path_into(
                        &self.matrix,
                        start,
                        end,
                        seed,
                        &mut self.scratch,
                        &mut self.out,
                    )
                    .unwrap();
            }
            assert_eq!(self.out.len(), n, "backend must return a full order");
        }
    }
}

/// The tentpole acceptance criterion: after warm-up, the level-solve loop performs
/// zero heap allocations — for every built-in backend.
#[test]
fn level_solve_loop_is_allocation_free_after_warmup() {
    for backend_kind in SolverBackend::ALL {
        let mut harness = LevelSolveHarness::new();
        let backend = TaxiConfig::new().with_backend(backend_kind).build_backend();
        // Warm-up: grows every buffer to the largest sub-problem and builds one warm
        // macro per distinct sub-problem size.
        harness.run_pass(backend.as_ref(), 3);
        harness.run_pass(backend.as_ref(), 4);
        // Steady state must be allocation-free.
        let before = allocations();
        harness.run_pass(backend.as_ref(), 5);
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "steady-state level-solve loop of `{backend_kind}` performed {delta} allocations"
        );
    }
}

/// End-to-end arena effect: a solve on a warm context allocates strictly less than on
/// a cold one (single-threaded so no pool noise enters the measurement).
#[test]
fn warm_context_solves_allocate_less_than_cold() {
    let instance = clustered_instance("arena", 150, 8, 21);
    let solver = TaxiSolver::new(TaxiConfig::new().with_seed(5).with_threads(1));

    let mut cold_ctx = SolveContext::new();
    let cold_start = allocations();
    let cold = solver.solve_reusing(&instance, &mut cold_ctx).unwrap();
    let cold_allocs = allocations() - cold_start;

    // Same context again: everything on the solve path reuses warm buffers.
    let warm_start = allocations();
    let warm = solver.solve_reusing(&instance, &mut cold_ctx).unwrap();
    let warm_allocs = allocations() - warm_start;

    assert_eq!(cold.tour, warm.tour, "reuse must not change results");
    assert!(
        warm_allocs * 2 < cold_allocs,
        "warm solve should allocate less than half of a cold solve ({warm_allocs} vs {cold_allocs})"
    );
}

/// Batched solves with fixed seeds stay bit-identical to per-instance solves across all
/// four backends (sharded workers with per-worker contexts must be behaviourally
/// transparent).
#[test]
fn batched_solves_are_bit_identical_across_backends() {
    let instances = vec![
        clustered_instance("batch-a", 60, 4, 5),
        clustered_instance("batch-b", 90, 5, 6),
        clustered_instance("batch-c", 75, 6, 7),
    ];
    for backend in SolverBackend::ALL {
        let solver = TaxiSolver::new(
            TaxiConfig::new()
                .with_seed(13)
                .with_threads(3)
                .with_backend(backend),
        );
        let batch = solver.solve_batch(&instances);
        for (instance, result) in instances.iter().zip(&batch) {
            let individual = solver.solve(instance).unwrap();
            let batched = result.as_ref().unwrap();
            assert_eq!(batched.tour, individual.tour, "{backend}");
            assert_eq!(batched.length, individual.length, "{backend}");
            assert_eq!(batched.subproblems, individual.subproblems, "{backend}");
        }
    }
}
