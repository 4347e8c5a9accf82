//! Allocation-counting proof that the solution-cache **hit path** is
//! allocation-free in steady state.
//!
//! The hit path is: canonical fingerprint into the thread-local scratch (sort is in
//! place, the permutation buffer is warm), key mixing, shard lock + map probe + LRU
//! relink, exact-fingerprint comparison, and an `Arc` clone of the stored solution.
//! None of that may touch the heap once warm — that is what lets admission-time
//! cache hits serve at memory speed while workers grind fresh solves.
//!
//! The first iteration (miss + solve + insert) and the first hit (growing the
//! scratch, initialising the config token) are warm-up and excluded from the
//! measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taxi::{SolutionCache, SolveProvenance, SolverBackend, TaxiConfig, TaxiSolver};
use taxi_tsplib::fingerprint::canonical_fingerprint;
use taxi_tsplib::generator::clustered_instance;

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

#[test]
fn cache_hit_path_is_allocation_free_after_warmup() {
    let cache = SolutionCache::with_defaults();
    let solver = TaxiSolver::new(
        TaxiConfig::new()
            .with_seed(5)
            .with_threads(1)
            .with_backend(SolverBackend::NnTwoOpt),
    );
    let instance = clustered_instance("hot-route", 60, 4, 11);

    // Warm-up: the miss solves and inserts; the first hit warms the thread-local
    // fingerprint scratch and the memoised configuration token.
    let seeded = solver.solve_cached(&instance, &cache).unwrap();
    assert_eq!(seeded.provenance, SolveProvenance::Computed);
    let warm = solver.solve_cached(&instance, &cache).unwrap();
    assert_eq!(
        warm.provenance,
        SolveProvenance::CacheHit { remapped: false }
    );

    // Steady state: repeated bit-identical hits must not allocate at all.
    const HITS: usize = 64;
    let before = allocations();
    for _ in 0..HITS {
        let served = solver.solve_cached(&instance, &cache).unwrap();
        assert!(matches!(
            served.provenance,
            SolveProvenance::CacheHit { remapped: false }
        ));
        assert_eq!(served.solution.tour.order().len(), 60);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state cache hit path performed {delta} allocations over {HITS} hits"
    );
    let stats = cache.stats();
    assert_eq!(stats.exact_hits, 1 + HITS as u64);
    assert_eq!(stats.insertions, 1);
}

/// The raw lookup API (what dispatch admission calls) is equally allocation-free.
#[test]
fn raw_lookup_hits_do_not_allocate() {
    let cache = SolutionCache::with_defaults();
    let solver = TaxiSolver::new(
        TaxiConfig::new()
            .with_seed(6)
            .with_threads(1)
            .with_backend(SolverBackend::GreedyEdge),
    );
    let instance = clustered_instance("lookup", 48, 4, 21);
    let token = solver.cache_token();
    solver.solve_cached(&instance, &cache).unwrap();
    // Warm hit (thread-local scratch for this code path).
    assert!(matches!(
        cache.lookup(token, &instance),
        taxi::CacheLookup::Hit(_)
    ));
    // The fleet's admission path: the routing fingerprint is handed to the probe.
    let (canonical, _) = canonical_fingerprint(&instance);
    let before = allocations();
    for _ in 0..64 {
        let taxi::CacheLookup::Hit(hit) = cache.lookup(token, &instance) else {
            panic!("warm cache must hit");
        };
        assert!(!hit.remapped);
        let taxi::CacheLookup::Hit(hit) = cache.lookup_fingerprinted(token, canonical, &instance)
        else {
            panic!("warm cache must hit");
        };
        assert!(!hit.remapped);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "raw lookup hit path performed {delta} allocations"
    );
}
