//! The solution cache: serving-side memoization of end-to-end solves.
//!
//! A [`SolutionCache`] memoises [`TaxiSolution`]s behind the canonical instance
//! fingerprint of `taxi_tsplib::fingerprint`, scoped to a solver configuration
//! (see [`TaxiConfig::cache_token`](crate::TaxiConfig::cache_token)). The flow on
//! every lookup:
//!
//! 1. **Fingerprint** — the instance's permutation-invariant canonical fingerprint
//!    is computed into a thread-local scratch (allocation-free once warm) and mixed
//!    with the configuration token to form the cache key.
//! 2. **Shard probe** — the key selects a shard of the underlying
//!    [`taxi_cache::ShardedLru`]; a live entry is a hit.
//! 3. **Serve** — if the request's *exact* fingerprint matches the one stored with
//!    the entry, the request is a bit-identical resubmission and the stored
//!    [`Arc<TaxiSolution>`] is served verbatim (an `Arc` clone: the steady-state hit
//!    path performs **zero heap allocations**). Otherwise the request is a
//!    permutation of the cached geometry: the stored canonical tour is **remapped**
//!    through the request's own canonical permutation, producing a tour over the
//!    request's indexing that visits the same physical coordinates in the same
//!    order — so its cost is bit-for-bit the cached solve's cost.
//!
//! Misses go through [`Singleflight`] coalescing in
//! [`TaxiSolver::solve_cached`](crate::TaxiSolver::solve_cached): concurrent misses
//! on one key elect a leader that solves once while followers park on the flight
//! ticket; a leader that errors or panics fails only itself (followers wake and
//! retry). Eviction (LRU in entries and bytes) and TTL expiry are the
//! [`CachePolicy`]'s business, unchanged from `taxi-cache`.

use std::cell::RefCell;
use std::sync::Arc;

pub use taxi_cache::CachePolicy;

use taxi_cache::{ShardedLru, Singleflight, Weighted};
use taxi_snap::{RecordReader, RecordWriter, SnapError};
use taxi_tsplib::fingerprint::{canonical_fingerprint_into, exact_fingerprint};
use taxi_tsplib::{Fingerprint, FingerprintScratch, Tour, TspInstance};

use crate::{EnergyBreakdown, LatencyBreakdown, TaxiSolution};

std::thread_local! {
    /// Per-thread fingerprint scratch: lets any thread (dispatch admission, workers,
    /// plain callers) fingerprint instances without allocating once warm.
    static SCRATCH: RefCell<FingerprintScratch> = RefCell::new(FingerprintScratch::new());
}

/// One cached solve: the solution plus everything needed to serve it to a permuted
/// resubmission of the same geometry.
#[derive(Debug)]
pub struct CachedEntry {
    /// The stored solution, in the seeding request's city indexing.
    solution: Arc<TaxiSolution>,
    /// Exact fingerprint of the seeding instance (unmixed): a request matching it is
    /// a bit-identical resubmission and is served verbatim.
    exact: Fingerprint,
    /// The seeding instance's canonical permutation (canonical position → seeding
    /// index). Kept for diagnostics and the remap invariants' debug assertions.
    perm: Vec<u32>,
    /// The stored tour expressed in canonical indexing
    /// (`canonical_tour[i] = inverse_perm[solution.tour[i]]`), precomputed so serving
    /// a permuted request is one gather, not two.
    canonical_tour: Vec<u32>,
}

impl CachedEntry {
    /// The stored solution in the seeding request's indexing.
    pub fn solution(&self) -> &Arc<TaxiSolution> {
        &self.solution
    }
}

impl Weighted for CachedEntry {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<TaxiSolution>()
            + std::mem::size_of_val(self.solution.tour.order())
            + self.solution.stage_reports.capacity()
                * std::mem::size_of::<crate::pipeline::StageReport>()
            + self.perm.capacity() * 4
            + self.canonical_tour.capacity() * 4
    }
}

/// A successful cache lookup.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The served solution, in the **requester's** city indexing.
    pub solution: Arc<TaxiSolution>,
    /// `false` for a bit-identical resubmission served verbatim; `true` when the
    /// stored tour was remapped through the canonical permutation.
    pub remapped: bool,
}

/// Outcome of [`SolutionCache::lookup`]: a hit, or the computed key under which the
/// caller should solve/coalesce/insert.
#[derive(Debug)]
pub enum CacheLookup {
    /// The cache served the request.
    Hit(CacheHit),
    /// No live entry; the value is the instance's cache key (canonical fingerprint
    /// mixed with the configuration token).
    Miss(u128),
}

/// Point-in-time statistics of a [`SolutionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolutionCacheStats {
    /// Lookups that served a stored solution.
    pub hits: u64,
    /// Hits served verbatim (bit-identical resubmission).
    pub exact_hits: u64,
    /// Hits served by permutation remap.
    pub remapped_hits: u64,
    /// Lookups that found nothing live.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries dropped by TTL expiry.
    pub expirations: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Accounted bytes currently cached.
    pub bytes: usize,
}

impl SolutionCacheStats {
    /// Hit fraction of all lookups so far (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent, configuration-scoped solution cache. See the [module docs](self).
///
/// # Example
///
/// ```
/// use taxi::cache::SolutionCache;
/// use taxi::{SolveProvenance, TaxiConfig, TaxiSolver};
/// use taxi_tsplib::generator::clustered_instance;
///
/// let cache = SolutionCache::with_defaults();
/// let solver = TaxiSolver::new(TaxiConfig::new().with_seed(11));
/// let instance = clustered_instance("popular", 60, 4, 3);
/// let first = solver.solve_cached(&instance, &cache)?;
/// assert_eq!(first.provenance, SolveProvenance::Computed);
/// let second = solver.solve_cached(&instance, &cache)?;
/// assert_eq!(
///     second.provenance,
///     SolveProvenance::CacheHit { remapped: false }
/// );
/// assert_eq!(first.solution.tour, second.solution.tour);
/// # Ok::<(), taxi::TaxiError>(())
/// ```
#[derive(Debug)]
pub struct SolutionCache {
    entries: ShardedLru<u128, Arc<CachedEntry>>,
    flights: Singleflight<u128, Arc<CachedEntry>>,
    exact_hits: std::sync::atomic::AtomicU64,
    remapped_hits: std::sync::atomic::AtomicU64,
}

impl SolutionCache {
    /// Creates a cache under the given LRU policy.
    pub fn new(policy: CachePolicy) -> Self {
        Self {
            entries: ShardedLru::new(policy),
            flights: Singleflight::new(),
            exact_hits: std::sync::atomic::AtomicU64::new(0),
            remapped_hits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Creates a cache under the default policy (8 shards, 4096 entries, 64 MiB,
    /// no TTL).
    pub fn with_defaults() -> Self {
        Self::new(CachePolicy::new())
    }

    /// The underlying LRU policy.
    pub fn policy(&self) -> &CachePolicy {
        self.entries.policy()
    }

    /// The cache key of `instance` under configuration `token`: its canonical
    /// fingerprint mixed with the token.
    pub fn key(&self, token: u64, instance: &TspInstance) -> u128 {
        SCRATCH.with(|scratch| {
            canonical_fingerprint_into(instance, &mut scratch.borrow_mut())
                .mixed_with(token)
                .as_u128()
        })
    }

    /// Looks `instance` up under configuration `token`, serving a hit in the
    /// requester's indexing (see the [module docs](self) for the verbatim/remap
    /// rule) or returning the computed key on a miss.
    pub fn lookup(&self, token: u64, instance: &TspInstance) -> CacheLookup {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let key = canonical_fingerprint_into(instance, &mut scratch)
                .mixed_with(token)
                .as_u128();
            let Some(entry) = self.entries.get(&key) else {
                return CacheLookup::Miss(key);
            };
            CacheLookup::Hit(self.serve_entry(&entry, instance, Some(scratch.permutation()), true))
        })
    }

    /// [`lookup`](Self::lookup) for a caller that already holds the instance's
    /// canonical fingerprint (the fleet computes it for ring routing), so admission
    /// fingerprints each request once. `canonical` must be
    /// `canonical_fingerprint_into(instance, ..)`. The canonical permutation is
    /// recomputed only when a hit needs a remap.
    pub fn lookup_fingerprinted(
        &self,
        token: u64,
        canonical: Fingerprint,
        instance: &TspInstance,
    ) -> CacheLookup {
        debug_assert_eq!(
            canonical,
            SCRATCH.with(|scratch| canonical_fingerprint_into(instance, &mut scratch.borrow_mut())),
            "the supplied fingerprint must be the instance's canonical fingerprint"
        );
        let key = canonical.mixed_with(token).as_u128();
        match self.entries.get(&key) {
            Some(entry) => CacheLookup::Hit(self.serve_entry(&entry, instance, None, true)),
            None => CacheLookup::Miss(key),
        }
    }

    /// Probes a previously computed `key` (a [`lookup`](Self::lookup) miss value or
    /// [`key`](Self::key)) without re-fingerprinting on the miss path — the
    /// worker-side re-check of a request that already missed at admission. The miss
    /// is **not** re-counted (the admission lookup counted it); a hit counts
    /// normally, and only a hit that needs a remap fingerprints the instance (to
    /// build the remap permutation).
    pub fn lookup_keyed(&self, key: u128, instance: &TspInstance) -> Option<CacheHit> {
        let entry = self.entries.probe(&key)?;
        Some(self.serve_entry(&entry, instance, None, true))
    }

    /// Serves `entry` to `instance`, which must canonicalise to the same key the
    /// entry was stored under — the singleflight/coalescing path, where the caller
    /// already holds the entry. Not counted as a cache hit: a coalesced serve rides
    /// a flight completion, not a cache probe, so it stays out of the hit-rate
    /// statistics.
    pub fn serve(&self, entry: &Arc<CachedEntry>, instance: &TspInstance) -> CacheHit {
        self.serve_entry(entry, instance, None, false)
    }

    /// Serves `entry` to `instance`. `perm` is the request's canonical permutation
    /// when the caller already computed it; otherwise it is computed only if the
    /// request is not a verbatim resubmission. `record` ties the exact/remapped
    /// counters to the paths whose underlying probe counted a cache hit, preserving
    /// the invariant `hits == exact_hits + remapped_hits`.
    fn serve_entry(
        &self,
        entry: &Arc<CachedEntry>,
        instance: &TspInstance,
        perm: Option<&[u32]>,
        record: bool,
    ) -> CacheHit {
        use std::sync::atomic::Ordering;
        if exact_fingerprint(instance) == entry.exact {
            if record {
                self.exact_hits.fetch_add(1, Ordering::Relaxed);
            }
            return CacheHit {
                solution: Arc::clone(&entry.solution),
                remapped: false,
            };
        }
        // A permuted resubmission: gather the stored canonical tour through the
        // request's own canonical permutation. Same physical coordinates, same visit
        // order, bit-identical cost.
        let gather = |perm: &[u32]| -> Vec<usize> {
            debug_assert_eq!(perm.len(), entry.canonical_tour.len());
            entry
                .canonical_tour
                .iter()
                .map(|&c| perm[c as usize] as usize)
                .collect()
        };
        let order = match perm {
            Some(perm) => gather(perm),
            None => SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                let _ = canonical_fingerprint_into(instance, &mut scratch);
                gather(scratch.permutation())
            }),
        };
        let tour = Tour::new(order).expect("remapped canonical tour is a permutation");
        let mut solution = (*entry.solution).clone();
        debug_assert_eq!(
            tour.length(instance).to_bits(),
            solution.length.to_bits(),
            "remap must preserve tour cost bit-for-bit"
        );
        solution.tour = tour;
        if record {
            self.remapped_hits.fetch_add(1, Ordering::Relaxed);
        }
        CacheHit {
            solution: Arc::new(solution),
            remapped: true,
        }
    }

    /// Inserts `solution` (a solve of `instance`) under `key` (which must be
    /// [`Self::key`] of the same `(token, instance)` pair), returning the stored
    /// entry for singleflight completion / coalesced serving.
    pub fn insert(
        &self,
        key: u128,
        instance: &TspInstance,
        solution: Arc<TaxiSolution>,
    ) -> Arc<CachedEntry> {
        let (perm, canonical_tour) = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let _ = canonical_fingerprint_into(instance, &mut scratch);
            let perm = scratch.permutation().to_vec();
            let mut inverse = vec![0u32; perm.len()];
            for (canonical, &original) in perm.iter().enumerate() {
                inverse[original as usize] = canonical as u32;
            }
            let canonical_tour: Vec<u32> = solution
                .tour
                .order()
                .iter()
                .map(|&city| inverse[city])
                .collect();
            (perm, canonical_tour)
        });
        let entry = Arc::new(CachedEntry {
            exact: exact_fingerprint(instance),
            solution,
            perm,
            canonical_tour,
        });
        self.entries.insert(key, Arc::clone(&entry));
        entry
    }

    /// The singleflight registry coalescing concurrent misses on one key.
    pub fn flights(&self) -> &Singleflight<u128, Arc<CachedEntry>> {
        &self.flights
    }

    /// Drops every cached entry (counters are preserved; in-progress flights are
    /// unaffected).
    pub fn clear(&self) {
        self.entries.clear();
    }

    /// Serialises every live entry into `writer` (the payload of a
    /// `taxi-snap` snapshot section). Entries are written oldest-first per
    /// shard, so a restore re-inserts them in the same relative recency order.
    ///
    /// What is persisted per entry is the cache's *semantic* answer — the key,
    /// the exact fingerprint, the canonical permutation and tour, the
    /// bit-exact tour length, and the summary solve statistics (levels,
    /// sub-problem count, latency/energy breakdowns). Per-stage reports and
    /// the raw architecture-simulator report are diagnostics of the original
    /// solve process, not of the answer; they restore as defaults.
    pub fn snapshot_into(&self, writer: &mut RecordWriter) {
        let mut staged: Vec<(u128, Arc<CachedEntry>)> = Vec::new();
        self.entries
            .for_each(|&key, entry| staged.push((key, Arc::clone(entry))));
        writer.write_u64(staged.len() as u64);
        for (key, entry) in staged {
            let solution = &entry.solution;
            writer.write_u128(key);
            writer.write_u128(entry.exact.as_u128());
            writer.write_u32(entry.perm.len() as u32);
            for &p in &entry.perm {
                writer.write_u32(p);
            }
            for &c in &entry.canonical_tour {
                writer.write_u32(c);
            }
            writer.write_f64_bits(solution.length);
            writer.write_u64(solution.levels as u64);
            writer.write_u64(solution.subproblems as u64);
            writer.write_f64_bits(solution.latency.clustering_seconds);
            writer.write_f64_bits(solution.latency.fixing_seconds);
            writer.write_f64_bits(solution.latency.ising_seconds);
            writer.write_f64_bits(solution.latency.transfer_seconds);
            writer.write_f64_bits(solution.latency.mapping_seconds);
            writer.write_f64_bits(solution.energy.ising_joules);
            writer.write_f64_bits(solution.energy.transfer_joules);
            writer.write_f64_bits(solution.energy.mapping_joules);
            writer.write_f64_bits(solution.software_solve_seconds);
        }
    }

    /// Restores entries serialised by [`snapshot_into`](Self::snapshot_into),
    /// returning how many were inserted.
    ///
    /// The restore is **validate-fully-then-apply**: every record is decoded and
    /// semantically checked (stored permutations must actually be permutations,
    /// the cost must be finite, the payload must end exactly where it claims)
    /// before a single entry is inserted. Any failure returns the typed error
    /// with the cache untouched — the consumer cold-starts rather than serving
    /// from a suspect snapshot. Keys are pre-mixed with the configuration token
    /// they were recorded under, so entries restored into a service running a
    /// *different* configuration are unreachable dead weight, never wrong
    /// answers (they age out via LRU).
    pub fn restore_from(&self, reader: &mut RecordReader<'_>) -> Result<usize, SnapError> {
        let count = reader.read_u64()?;
        let mut staged: Vec<(u128, CachedEntry)> =
            Vec::with_capacity(usize::try_from(count).unwrap_or(0).min(4096));
        for _ in 0..count {
            let key = reader.read_u128()?;
            let exact = Fingerprint::from_u128(reader.read_u128()?);
            let n = reader.read_u32()? as usize;
            let mut perm = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                perm.push(reader.read_u32()?);
            }
            let mut canonical_tour = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                canonical_tour.push(reader.read_u32()?);
            }
            if !is_permutation(&perm) || !is_permutation(&canonical_tour) {
                return Err(SnapError::Corrupt {
                    context: "cache entry permutation",
                });
            }
            let length = reader.read_f64_bits()?;
            if !length.is_finite() {
                return Err(SnapError::Corrupt {
                    context: "cache entry tour length not finite",
                });
            }
            let levels = reader.read_u64()? as usize;
            let subproblems = reader.read_u64()? as usize;
            let latency = LatencyBreakdown {
                clustering_seconds: reader.read_f64_bits()?,
                fixing_seconds: reader.read_f64_bits()?,
                ising_seconds: reader.read_f64_bits()?,
                transfer_seconds: reader.read_f64_bits()?,
                mapping_seconds: reader.read_f64_bits()?,
            };
            let energy = EnergyBreakdown {
                ising_joules: reader.read_f64_bits()?,
                transfer_joules: reader.read_f64_bits()?,
                mapping_joules: reader.read_f64_bits()?,
            };
            let software_solve_seconds = reader.read_f64_bits()?;
            // Rebuild the tour in the seeding request's indexing:
            // canonical_tour[i] = inverse_perm[tour[i]]  ⇒  tour[i] = perm[canonical_tour[i]].
            let order: Vec<usize> = canonical_tour
                .iter()
                .map(|&c| perm[c as usize] as usize)
                .collect();
            let tour = Tour::new(order).map_err(|_| SnapError::Corrupt {
                context: "cache entry tour",
            })?;
            let solution = TaxiSolution {
                tour,
                length,
                levels,
                subproblems,
                latency,
                energy,
                arch_report: Default::default(),
                software_solve_seconds,
                stage_reports: Vec::new(),
            };
            staged.push((
                key,
                CachedEntry {
                    solution: Arc::new(solution),
                    exact,
                    perm,
                    canonical_tour,
                },
            ));
        }
        if !reader.is_empty() {
            return Err(SnapError::Corrupt {
                context: "trailing bytes after cache entries",
            });
        }
        let restored = staged.len();
        for (key, entry) in staged {
            self.entries.insert(key, Arc::new(entry));
        }
        Ok(restored)
    }

    /// Current statistics.
    pub fn stats(&self) -> SolutionCacheStats {
        use std::sync::atomic::Ordering;
        let inner = self.entries.stats();
        SolutionCacheStats {
            hits: inner.hits,
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            remapped_hits: self.remapped_hits.load(Ordering::Relaxed),
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            expirations: inner.expirations,
            entries: inner.entries,
            bytes: inner.bytes,
        }
    }
}

/// Whether `values` is a permutation of `0..values.len()` (every index exactly
/// once) — the semantic validity check a restored entry must pass before it is
/// allowed anywhere near a serving path.
fn is_permutation(values: &[u32]) -> bool {
    let mut seen = vec![false; values.len()];
    for &value in values {
        match seen.get_mut(value as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveProvenance, TaxiConfig, TaxiSolver};
    use taxi_tsplib::generator::clustered_instance;
    use taxi_tsplib::EdgeWeightKind;

    fn permuted(instance: &TspInstance, rotate: usize) -> TspInstance {
        let coords = instance.coordinates().unwrap();
        let n = coords.len();
        let rotated: Vec<(f64, f64)> = (0..n).map(|i| coords[(i + rotate) % n]).collect();
        TspInstance::from_coordinates("permuted", rotated, instance.edge_weight_kind()).unwrap()
    }

    #[test]
    fn lookup_miss_then_exact_hit_then_remapped_hit() {
        let cache = SolutionCache::with_defaults();
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(5));
        let instance = clustered_instance("hit", 50, 4, 9);

        let CacheLookup::Miss(key) = cache.lookup(1, &instance) else {
            panic!("cold cache must miss");
        };
        let solution = Arc::new(solver.solve(&instance).unwrap());
        cache.insert(key, &instance, Arc::clone(&solution));

        let CacheLookup::Hit(hit) = cache.lookup(1, &instance) else {
            panic!("resubmission must hit");
        };
        assert!(!hit.remapped);
        assert_eq!(hit.solution.tour, solution.tour);

        let shuffled = permuted(&instance, 13);
        let CacheLookup::Hit(hit) = cache.lookup(1, &shuffled) else {
            panic!("permuted resubmission must hit canonically");
        };
        assert!(hit.remapped);
        assert!(hit.solution.tour.is_valid_for(&shuffled));
        assert_eq!(
            hit.solution.tour.length(&shuffled).to_bits(),
            solution.length.to_bits(),
            "remapped tour cost is bit-identical to the cached solve"
        );

        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.remapped_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// A caller-supplied canonical fingerprint serves exactly what `lookup` serves:
    /// the same miss key, the verbatim hit, and the remap of a permuted
    /// resubmission (whose permutation is then computed inside the cache).
    #[test]
    fn fingerprinted_lookup_matches_lookup() {
        use taxi_tsplib::fingerprint::canonical_fingerprint;
        let cache = SolutionCache::with_defaults();
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(5));
        let instance = clustered_instance("fp", 50, 4, 9);
        let shuffled = permuted(&instance, 13);
        let (canonical, _) = canonical_fingerprint(&instance);
        assert_eq!(canonical, canonical_fingerprint(&shuffled).0);

        let CacheLookup::Miss(key) = cache.lookup_fingerprinted(1, canonical, &instance) else {
            panic!("cold cache must miss");
        };
        assert_eq!(key, cache.key(1, &instance));
        let solution = Arc::new(solver.solve(&instance).unwrap());
        cache.insert(key, &instance, Arc::clone(&solution));

        for request in [&instance, &shuffled] {
            let CacheLookup::Hit(direct) = cache.lookup(1, request) else {
                panic!("lookup must hit");
            };
            let CacheLookup::Hit(given) = cache.lookup_fingerprinted(1, canonical, request) else {
                panic!("fingerprinted lookup must hit");
            };
            assert_eq!(given.remapped, direct.remapped);
            assert_eq!(given.remapped, !std::ptr::eq(request, &instance));
            assert_eq!(given.solution.tour, direct.solution.tour);
            assert_eq!(
                given.solution.length.to_bits(),
                direct.solution.length.to_bits()
            );
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.exact_hits, stats.remapped_hits, stats.misses),
            (2, 2, 1)
        );
    }

    #[test]
    fn tokens_isolate_configurations() {
        let cache = SolutionCache::with_defaults();
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(2));
        let instance = clustered_instance("token", 40, 3, 1);
        let CacheLookup::Miss(key) = cache.lookup(10, &instance) else {
            panic!("miss");
        };
        let solution = Arc::new(solver.solve(&instance).unwrap());
        cache.insert(key, &instance, solution);
        assert!(matches!(cache.lookup(10, &instance), CacheLookup::Hit(_)));
        assert!(
            matches!(cache.lookup(11, &instance), CacheLookup::Miss(_)),
            "a different configuration token must not see the entry"
        );
    }

    #[test]
    fn explicit_matrix_instances_use_exact_identity() {
        let cache = SolutionCache::with_defaults();
        let m = TspInstance::from_matrix(
            "m",
            taxi_dist::DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap(),
        )
        .unwrap();
        assert!(matches!(cache.lookup(0, &m), CacheLookup::Miss(_)));
    }

    #[test]
    fn solve_cached_full_round_trip_is_bit_identical() {
        let cache = SolutionCache::with_defaults();
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(21));
        let instance = clustered_instance("round", 60, 4, 7);
        let offline = solver.solve(&instance).unwrap();

        let computed = solver.solve_cached(&instance, &cache).unwrap();
        assert_eq!(computed.provenance, SolveProvenance::Computed);
        assert_eq!(computed.solution.tour, offline.tour);
        assert_eq!(computed.solution.length.to_bits(), offline.length.to_bits());

        let hit = solver.solve_cached(&instance, &cache).unwrap();
        assert_eq!(
            hit.provenance,
            SolveProvenance::CacheHit { remapped: false }
        );
        assert_eq!(hit.solution.tour, offline.tour);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = SolutionCache::with_defaults();
        let solver = TaxiSolver::new(TaxiConfig::new());
        let instance = clustered_instance("clear", 40, 3, 2);
        solver.solve_cached(&instance, &cache).unwrap();
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert!(matches!(cache.lookup(0, &instance), CacheLookup::Miss(_)));
    }

    #[test]
    fn snapshot_restore_round_trip_serves_bit_identical_hits() {
        let cache = SolutionCache::with_defaults();
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(17));
        let instances: Vec<TspInstance> = (0..4)
            .map(|seed| clustered_instance("snap", 40 + seed * 7, 4, seed as u64))
            .collect();
        for instance in &instances {
            let CacheLookup::Miss(key) = cache.lookup(3, instance) else {
                panic!("cold cache must miss");
            };
            let solution = Arc::new(solver.solve(instance).unwrap());
            cache.insert(key, instance, solution);
        }

        let mut writer = RecordWriter::new();
        cache.snapshot_into(&mut writer);
        let bytes = writer.into_bytes();

        let restored = SolutionCache::with_defaults();
        let count = restored
            .restore_from(&mut RecordReader::new(&bytes))
            .unwrap();
        assert_eq!(count, instances.len());
        assert_eq!(restored.stats().entries, instances.len());

        for instance in &instances {
            let CacheLookup::Hit(original) = cache.lookup(3, instance) else {
                panic!("source cache must hit");
            };
            let CacheLookup::Hit(warm) = restored.lookup(3, instance) else {
                panic!("restored cache must hit");
            };
            assert!(!warm.remapped, "exact fingerprints survive the round trip");
            assert_eq!(warm.solution.tour, original.solution.tour);
            assert_eq!(
                warm.solution.length.to_bits(),
                original.solution.length.to_bits(),
                "restored hit must be bit-identical"
            );
            assert_eq!(warm.solution.levels, original.solution.levels);
            assert_eq!(warm.solution.subproblems, original.solution.subproblems);
            // Permuted resubmissions remap bit-identically through the restored
            // canonical tour too.
            let shuffled = permuted(instance, 7);
            let CacheLookup::Hit(remapped) = restored.lookup(3, &shuffled) else {
                panic!("permuted resubmission must hit the restored cache");
            };
            assert!(remapped.remapped);
            assert_eq!(
                remapped.solution.tour.length(&shuffled).to_bits(),
                original.solution.length.to_bits()
            );
        }
        // A different configuration token still misses: restored keys stay scoped.
        assert!(matches!(
            restored.lookup(4, &instances[0]),
            CacheLookup::Miss(_)
        ));
    }

    #[test]
    fn restore_rejects_semantic_corruption_without_partial_state() {
        let cache = SolutionCache::with_defaults();
        let solver = TaxiSolver::new(TaxiConfig::new().with_seed(8));
        for seed in 0..3u64 {
            let instance = clustered_instance("bad", 30, 3, seed);
            let CacheLookup::Miss(key) = cache.lookup(0, &instance) else {
                panic!("miss");
            };
            let solution = Arc::new(solver.solve(&instance).unwrap());
            cache.insert(key, &instance, solution);
        }
        let mut writer = RecordWriter::new();
        cache.snapshot_into(&mut writer);
        let good = writer.into_bytes();

        // A duplicated permutation index: structurally decodable, semantically
        // impossible. Offset 44 is the first perm word of the first entry
        // (count u64 + key u128 + exact u128 + n u32).
        let mut evil = good.clone();
        let n = u32::from_le_bytes(evil[40..44].try_into().unwrap()) as usize;
        assert!(n > 1);
        evil.copy_within(48..52, 44); // perm[0] = perm[1]
        let target = SolutionCache::with_defaults();
        let err = target
            .restore_from(&mut RecordReader::new(&evil))
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err:?}");
        assert_eq!(
            target.stats().entries,
            0,
            "a rejected restore must apply nothing"
        );

        // Truncation mid-stream: typed error, still nothing applied.
        let err = target
            .restore_from(&mut RecordReader::new(&good[..good.len() - 3]))
            .unwrap_err();
        assert!(matches!(err, SnapError::Truncated { .. }), "{err:?}");
        assert_eq!(target.stats().entries, 0);

        // Trailing garbage after the declared entries: rejected too.
        let mut padded = good.clone();
        padded.push(0xEE);
        let err = target
            .restore_from(&mut RecordReader::new(&padded))
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err:?}");
        assert_eq!(target.stats().entries, 0);
    }

    #[test]
    fn is_permutation_accepts_exactly_permutations() {
        assert!(is_permutation(&[]));
        assert!(is_permutation(&[0]));
        assert!(is_permutation(&[2, 0, 1]));
        assert!(!is_permutation(&[0, 0]));
        assert!(!is_permutation(&[1, 2]));
        assert!(!is_permutation(&[0, 3, 1]));
    }

    #[test]
    fn coordinates_of_different_kinds_never_cross_serve() {
        // Same coordinates, different distance convention: distinct canonical keys.
        let cache = SolutionCache::with_defaults();
        let coords = vec![(0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (4.0, 4.0)];
        let euclid =
            TspInstance::from_coordinates("e", coords.clone(), EdgeWeightKind::Euclidean).unwrap();
        let euc2d = TspInstance::from_coordinates("e", coords, EdgeWeightKind::Euc2d).unwrap();
        assert_ne!(cache.key(0, &euclid), cache.key(0, &euc2d));
    }
}
