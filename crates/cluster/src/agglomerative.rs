//! Agglomerative clustering with Ward linkage (nearest-neighbour chain algorithm).
//!
//! Ward's criterion merges, at every step, the pair of clusters whose union has the
//! smallest increase in within-cluster variance. With cluster centroids `c_i`, `c_j` and
//! sizes `n_i`, `n_j`, that increase is
//!
//! ```text
//! Δ(i, j) = (n_i · n_j) / (n_i + n_j) · ‖c_i − c_j‖²
//! ```
//!
//! The nearest-neighbour chain algorithm builds the full dendrogram in O(n) memory (Ward
//! linkage is reducible, so chain merges produce the same dendrogram as greedy merging).
//! The dendrogram is then cut into the requested number of clusters.
//!
//! Every chain step asks for the nearest live neighbour of the chain's top. A linear scan
//! answers that in O(n), so a whole run costs O(n²). Instead, a uniform grid over the live
//! centroids answers it by scanning rings of cells outward from the query until a lower
//! bound on every farther cluster's delta exceeds the best one found; on spread-out
//! inputs a query then touches a few cells. An exact tie keeps the smaller index, which
//! is the linear scan's first-minimum rule, so every merge (pair and delta bits) is the
//! one the linear scan makes. The scan remains as the fallback: while fewer than 64
//! clusters are live, when the rings would cover more than four cells per live cluster,
//! and for inputs with a non-finite coordinate (or a magnitude or spread outside
//! 10^±100, where the grid's rounding slack would not hold).
//!
//! For very large inputs (beyond [`AgglomerativeConfig::max_exact_points`]) the points
//! are first divided into spatially compact chunks with a recursive median split and the
//! exact algorithm runs inside each chunk. This keeps the 85 900-city TSPLIB instance
//! tractable while preserving the compact-irregular-cluster behaviour the paper relies
//! on (see DESIGN.md).

use crate::{ClusterError, Point};

/// Configuration of the agglomerative clustering pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgglomerativeConfig {
    /// Desired number of clusters.
    pub target_clusters: usize,
    /// Largest input size handled by one exact NN-chain run; larger inputs are chunked
    /// first.
    pub max_exact_points: usize,
    /// Chunk size used by the divisive pre-partition for very large inputs.
    pub prepartition_chunk: usize,
}

impl AgglomerativeConfig {
    /// Creates a configuration with default scalability thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if `target_clusters` is zero.
    pub fn new(target_clusters: usize) -> Result<Self, ClusterError> {
        if target_clusters == 0 {
            return Err(ClusterError::InvalidConfig {
                name: "target_clusters",
                reason: "must be at least 1".to_string(),
            });
        }
        Ok(Self {
            target_clusters,
            max_exact_points: 20_000,
            prepartition_chunk: 2_048,
        })
    }

    /// Overrides the exact-algorithm threshold.
    pub fn with_max_exact_points(mut self, max_exact_points: usize) -> Self {
        self.max_exact_points = max_exact_points.max(2);
        self
    }

    /// Overrides the pre-partition chunk size.
    pub fn with_prepartition_chunk(mut self, chunk: usize) -> Self {
        self.prepartition_chunk = chunk.max(2);
        self
    }
}

/// Clusters `points` into `config.target_clusters` groups using Ward-linkage
/// agglomerative clustering. Returns the member indices of each cluster.
///
/// # Errors
///
/// Returns [`ClusterError::EmptyInput`] for an empty point set or
/// [`ClusterError::TooManyClusters`] when more clusters than points are requested.
///
/// # Example
///
/// ```
/// use taxi_cluster::{agglomerative_clusters, AgglomerativeConfig, Point};
///
/// // Two well-separated blobs must be recovered as two clusters.
/// let mut points = Vec::new();
/// for i in 0..5 {
///     points.push(Point::new(i as f64 * 0.1, 0.0));
///     points.push(Point::new(100.0 + i as f64 * 0.1, 0.0));
/// }
/// let clusters = agglomerative_clusters(&points, &AgglomerativeConfig::new(2)?)?;
/// assert_eq!(clusters.len(), 2);
/// assert!(clusters.iter().all(|c| c.len() == 5));
/// # Ok::<(), taxi_cluster::ClusterError>(())
/// ```
pub fn agglomerative_clusters(
    points: &[Point],
    config: &AgglomerativeConfig,
) -> Result<Vec<Vec<usize>>, ClusterError> {
    if points.is_empty() {
        return Err(ClusterError::EmptyInput);
    }
    if config.target_clusters > points.len() {
        return Err(ClusterError::TooManyClusters {
            requested: config.target_clusters,
            points: points.len(),
        });
    }
    let all_indices: Vec<usize> = (0..points.len()).collect();
    let mut scratch = WardScratch::default();
    if points.len() <= config.max_exact_points {
        return Ok(ward_cut(
            points,
            &all_indices,
            config.target_clusters,
            &mut scratch,
        ));
    }

    // Divisive pre-partition: split into spatially compact chunks, then run the exact
    // algorithm inside each chunk with a proportional share of the cluster budget.
    let chunks = median_split_chunks(points, &all_indices, config.prepartition_chunk);
    let total = points.len() as f64;
    let mut clusters = Vec::with_capacity(config.target_clusters);
    let mut remaining_clusters = config.target_clusters;
    for chunk in &chunks {
        let share = ((chunk.len() as f64 / total) * config.target_clusters as f64).round() as usize;
        let k = share.max(1).min(chunk.len()).min(remaining_clusters.max(1));
        clusters.extend(ward_cut(points, chunk, k, &mut scratch));
        remaining_clusters = remaining_clusters.saturating_sub(k);
    }
    Ok(clusters)
}

/// One merge of the dendrogram.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Merge {
    a: usize,
    b: usize,
    delta: f64,
}

/// Runs exact NN-chain Ward clustering over the points selected by `indices` and cuts the
/// dendrogram into `k` clusters. Returns member lists in terms of the original indices.
fn ward_cut(
    points: &[Point],
    indices: &[usize],
    k: usize,
    scratch: &mut WardScratch,
) -> Vec<Vec<usize>> {
    let n = indices.len();
    if k >= n {
        return indices.iter().map(|&i| vec![i]).collect();
    }
    let merges = nn_chain_dendrogram(points, indices, scratch, NnSearch::Grid);

    // Cut: apply the n - k merges with the smallest Ward deltas (Ward is monotonic, so
    // this equals cutting the dendrogram at k clusters).
    let mut order: Vec<usize> = (0..merges.len()).collect();
    // total_cmp: identical to partial_cmp for the non-negative finite Ward deltas the
    // dendrogram produces, and a defined (not Equal-collapsed) order if a delta is NaN.
    order.sort_by(|&x, &y| merges[x].delta.total_cmp(&merges[y].delta));
    let mut uf = UnionFind::new(n);
    for &m in order.iter().take(n - k) {
        uf.union(merges[m].a, merges[m].b);
    }
    // BTreeMap keeps the cluster order deterministic (keyed by the union-find root, i.e.
    // the smallest-index representative encountered first).
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for local in 0..n {
        groups
            .entry(uf.find(local))
            .or_default()
            .push(indices[local]);
    }
    groups.into_values().collect()
}

/// Below this many live clusters the nearest-neighbour query scans them all.
const GRID_MIN_LIVE: usize = 64;

/// The grid runs only on inputs whose coordinates all lie within this magnitude. It
/// rejects NaN and ±∞ (the linear scan then reproduces the poisoned-input behaviour
/// exactly), and it keeps every Ward delta and centroid finite, so the grid's
/// distance bound never meets an overflow.
const GRID_COORD_LIMIT: f64 = 1e100;

/// Relative slack of the ring lower bound: it absorbs the rounding of the cell
/// assignment and of the Ward delta itself, many orders of magnitude above both.
const BOUND_SLACK: f64 = 1.0 - 1e-9;

/// How [`nn_chain_dendrogram`] finds each nearest neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NnSearch {
    /// Ring search of the centroid grid, falling back to the scan when it cannot help.
    Grid,
    /// Scan every live cluster (the reference the grid must reproduce).
    #[cfg(test)]
    Linear,
}

/// Scratch of one [`agglomerative_clusters`] call, reused by every chunk.
#[derive(Debug, Default)]
struct WardScratch {
    /// Centroid of each local cluster (valid while its size is non-zero).
    centroids: Vec<Point>,
    /// Member count of each local cluster; 0 marks a cluster merged away.
    sizes: Vec<f64>,
    /// Live clusters in ascending order, kept only while the linear scan runs.
    alive: Vec<usize>,
    chain: Vec<usize>,
    grid: CentroidGrid,
}

/// Ward delta of merging the cluster at `ca` of size `sa` with the one at `cb` of `sb`.
#[inline]
fn ward(ca: Point, sa: f64, cb: Point, sb: f64) -> f64 {
    #[cfg(test)]
    tests::WARD_EVALS.with(|evals| evals.set(evals.get() + 1));
    (sa * sb) / (sa + sb) * ca.squared_distance(&cb)
}

/// Builds the full Ward dendrogram with the nearest-neighbour chain algorithm.
/// Cluster identities in the returned merges refer to *local* leaf indices (0..n): a
/// merged cluster keeps the index of the chain's top, so each merge records the
/// surviving index and the absorbed one.
///
/// Each chain step needs the nearest live neighbour of the chain's top under Ward's
/// delta, the first minimum in ascending index order. [`NnSearch::Grid`] answers it
/// from a [`CentroidGrid`] by scanning rings of cells outward from the query's cell
/// until a lower bound on every farther cluster's delta exceeds the best found; an
/// exact tie keeps the smaller index, so it returns exactly the linear scan's answer.
/// The search falls back to that scan while fewer than [`GRID_MIN_LIVE`] clusters are
/// live, when the rings would cover more than four cells per live cluster, and for
/// the whole run when a coordinate is not finite or beyond [`GRID_COORD_LIMIT`] (or
/// the grid cannot be laid, see [`CentroidGrid::build`]). On spread-out inputs a query
/// then costs a few cells instead of O(n) deltas.
fn nn_chain_dendrogram(
    points: &[Point],
    indices: &[usize],
    scratch: &mut WardScratch,
    search: NnSearch,
) -> Vec<Merge> {
    let n = indices.len();
    let WardScratch {
        centroids,
        sizes,
        alive,
        chain,
        grid,
    } = scratch;
    centroids.clear();
    centroids.extend(indices.iter().map(|&global| points[global]));
    sizes.clear();
    sizes.resize(n, 1.0);
    chain.clear();
    let mut live = n;
    let mut use_grid = search == NnSearch::Grid
        && n >= GRID_MIN_LIVE
        && n < NIL as usize
        && centroids
            .iter()
            .all(|p| p.x.abs() <= GRID_COORD_LIMIT && p.y.abs() <= GRID_COORD_LIMIT)
        && grid.build(centroids, sizes, live);
    alive.clear();
    if !use_grid {
        alive.extend(0..n);
    }
    // Smallest index that may still be live: where an empty chain restarts.
    let mut first = 0;
    let mut merges = Vec::with_capacity(n.saturating_sub(1));

    while merges.len() + 1 < n {
        if chain.is_empty() {
            while sizes[first] == 0.0 {
                first += 1;
            }
            chain.push(first);
        }
        let current = *chain.last().expect("chain is non-empty");
        let found = if use_grid {
            grid.nearest(current, centroids, sizes, live)
        } else {
            None
        };
        let (best, best_delta) = found.unwrap_or_else(|| {
            if use_grid {
                alive.clear();
                alive.extend((0..n).filter(|&c| sizes[c] > 0.0));
            }
            linear_nearest(current, alive, centroids, sizes)
        });
        // Non-finite geometry (NaN/∞ coordinates) produces NaN Ward deltas for every
        // neighbour, leaving `best` unset. Fail fast with a diagnosable message: the
        // fleet's crash containment expects poisoned instances to panic inside the
        // clustering stage rather than emit an arbitrary dendrogram.
        assert!(
            best != usize::MAX,
            "agglomerative clustering: no finite Ward delta from cluster {current}; \
             input coordinates are likely NaN or infinite"
        );
        let reciprocal = chain.len() >= 2 && chain[chain.len() - 2] == best;
        if reciprocal {
            // Merge `best` into `current`.
            chain.pop();
            chain.pop();
            let (a, sa) = (centroids[current], sizes[current]);
            let (b, sb) = (centroids[best], sizes[best]);
            centroids[current] = Point::new(
                (a.x * sa + b.x * sb) / (sa + sb),
                (a.y * sa + b.y * sb) / (sa + sb),
            );
            sizes[current] = sa + sb;
            sizes[best] = 0.0;
            live -= 1;
            merges.push(Merge {
                a: current,
                b: best,
                delta: best_delta,
            });
            if use_grid {
                grid.remove(best);
                grid.remove(current);
                if live < GRID_MIN_LIVE {
                    use_grid = false;
                } else if live * 4 < grid.built_for {
                    use_grid = grid.build(centroids, sizes, live);
                } else {
                    grid.insert(current, centroids[current]);
                }
                if !use_grid {
                    alive.clear();
                    alive.extend((0..n).filter(|&c| sizes[c] > 0.0));
                }
            } else {
                alive.retain(|&c| c != best);
            }
        } else {
            chain.push(best);
        }
    }
    merges
}

/// Nearest live neighbour of `current` by scanning every entry of `alive` (ascending):
/// the first minimum under total order wins, and NaN deltas sort above +∞ so they are
/// never selected. Returns `usize::MAX` when no delta is finite. The scan is
/// lane-chunked: Ward deltas land in fixed-width array temporaries, then fold into the
/// running best, identical to a sequential scan because every comparison is exact.
fn linear_nearest(
    current: usize,
    alive: &[usize],
    centroids: &[Point],
    sizes: &[f64],
) -> (usize, f64) {
    let (cc, cs) = (centroids[current], sizes[current]);
    let mut best = usize::MAX;
    let mut best_delta = f64::INFINITY;
    let chunks = alive.chunks_exact(taxi_dist::LANES);
    let tail_start = alive.len() - chunks.remainder().len();
    for chunk in chunks {
        let mut deltas = [f64::NAN; taxi_dist::LANES];
        for l in 0..taxi_dist::LANES {
            let other = chunk[l];
            if other != current {
                deltas[l] = ward(cc, cs, centroids[other], sizes[other]);
            }
        }
        for (l, &delta) in deltas.iter().enumerate() {
            if delta.total_cmp(&best_delta) == std::cmp::Ordering::Less {
                best_delta = delta;
                best = chunk[l];
            }
        }
    }
    for &other in &alive[tail_start..] {
        if other == current {
            continue;
        }
        let delta = ward(cc, cs, centroids[other], sizes[other]);
        if delta.total_cmp(&best_delta) == std::cmp::Ordering::Less {
            best_delta = delta;
            best = other;
        }
    }
    (best, best_delta)
}

/// End of a cell list.
const NIL: u32 = u32::MAX;

/// Uniform grid over the live cluster centroids of one NN-chain run.
///
/// Each cell holds an intrusive doubly linked list of its clusters, stored in flat
/// arrays: `head` per cell and `next` / `prev` / `cell` per local cluster, so a merge
/// unlinks two clusters and links the merged one in O(1). The cell side is chosen for
/// about two clusters per cell (`sqrt(2 · bbox_area / live)`, widened on degenerate
/// boxes so there are never many more cells than clusters), and the grid is rebuilt
/// over the live centroids once their count falls below a quarter of what it was built
/// for. The arrays keep their capacity from one build (and one chunk) to the next.
#[derive(Debug, Default)]
struct CentroidGrid {
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    cell: Vec<u32>,
    origin: Point,
    side: f64,
    cols: usize,
    rows: usize,
    /// Live clusters when the grid was last built.
    built_for: usize,
}

impl CentroidGrid {
    /// Lays the grid over the bounding box of the `live` clusters (non-zero size) and
    /// inserts them. Returns `false`, leaving the grid unusable, when the cell side
    /// would not be a normal float well above the scale of rounding (all centroids
    /// coincide, or their spread is below `1 / GRID_COORD_LIMIT`, where the bound's
    /// relative slack would not cover subnormal rounding); the linear scan answers
    /// instead.
    fn build(&mut self, centroids: &[Point], sizes: &[f64], live: usize) -> bool {
        let (mut lo, mut hi) = (
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for (p, &size) in centroids.iter().zip(sizes.iter()) {
            if size > 0.0 {
                lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
                hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
            }
        }
        let (width, height) = (hi.x - lo.x, hi.y - lo.y);
        let live_f = live as f64;
        let side = (2.0 * width * height / live_f)
            .sqrt()
            .max(width.max(height) / live_f);
        if !(side.is_finite() && side > 1.0 / GRID_COORD_LIMIT) {
            return false;
        }
        self.origin = lo;
        self.side = side;
        self.cols = (width / side) as usize + 1;
        self.rows = (height / side) as usize + 1;
        self.built_for = live;
        self.head.clear();
        self.head.resize(self.cols * self.rows, NIL);
        for list in [&mut self.next, &mut self.prev, &mut self.cell] {
            list.clear();
            list.resize(centroids.len(), NIL);
        }
        for (c, (&p, &size)) in centroids.iter().zip(sizes.iter()).enumerate() {
            if size > 0.0 {
                self.insert(c, p);
            }
        }
        true
    }

    /// Links cluster `c` with centroid `p` into the list of `p`'s cell.
    fn insert(&mut self, c: usize, p: Point) {
        // Coordinates are bounded (see GRID_COORD_LIMIT), so the float-to-int casts
        // saturate only on rounding just outside the box; `min` keeps the far edge.
        let cx = (((p.x - self.origin.x) / self.side) as usize).min(self.cols - 1);
        let cy = (((p.y - self.origin.y) / self.side) as usize).min(self.rows - 1);
        let cell = cy * self.cols + cx;
        let old = self.head[cell];
        self.cell[c] = cell as u32;
        self.next[c] = old;
        self.prev[c] = NIL;
        if old != NIL {
            self.prev[old as usize] = c as u32;
        }
        self.head[cell] = c as u32;
    }

    /// Unlinks cluster `c` from its cell's list.
    fn remove(&mut self, c: usize) {
        let (prev, next) = (self.prev[c], self.next[c]);
        if prev == NIL {
            self.head[self.cell[c] as usize] = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next != NIL {
            self.prev[next as usize] = prev;
        }
    }

    /// Nearest live neighbour of `query` (first minimum of the Ward delta in index
    /// order), or `None` when the rings needed would cover more than four cells per
    /// live cluster and the linear scan is cheaper.
    ///
    /// A cluster whose cell is `r` Chebyshev rings out lies at least `(r − 1) · side`
    /// away, and `s·t / (s + t) ≥ s / (s + 1)` for any size `t ≥ 1`, so before ring
    /// `r ≥ 2` every remaining delta is at least `s / (s + 1) · ((r − 1) · side)²`.
    fn nearest(
        &self,
        query: usize,
        centroids: &[Point],
        sizes: &[f64],
        live: usize,
    ) -> Option<(usize, f64)> {
        let (qc, qs) = (centroids[query], sizes[query]);
        let weight = qs / (qs + 1.0) * BOUND_SLACK;
        let cell = self.cell[query] as usize;
        let (qx, qy) = (cell % self.cols, cell / self.cols);
        let max_ring = qx.max(self.cols - 1 - qx).max(qy).max(self.rows - 1 - qy);
        let mut best = usize::MAX;
        let mut best_delta = f64::INFINITY;
        let scan_cell = |cell: usize, best: &mut usize, best_delta: &mut f64| {
            let mut other = self.head[cell];
            while other != NIL {
                let o = other as usize;
                if o != query {
                    // Grid runs see only finite deltas, so an exact tie is bit-equal.
                    let delta = ward(qc, qs, centroids[o], sizes[o]);
                    match delta.total_cmp(best_delta) {
                        std::cmp::Ordering::Less => (*best, *best_delta) = (o, delta),
                        std::cmp::Ordering::Equal if o < *best => *best = o,
                        _ => {}
                    }
                }
                other = self.next[o];
            }
        };
        for r in 0..=max_ring {
            if r >= 2 {
                let reach = (r - 1) as f64 * self.side;
                if weight * reach * reach > best_delta {
                    break;
                }
            }
            let (x0, x1) = (qx.saturating_sub(r), (qx + r).min(self.cols - 1));
            let (y0, y1) = (qy.saturating_sub(r), (qy + r).min(self.rows - 1));
            if (x1 - x0 + 1) * (y1 - y0 + 1) > 4 * live {
                return None;
            }
            for y in y0..=y1 {
                let row = y * self.cols;
                if y + r == qy || y == qy + r {
                    for x in x0..=x1 {
                        scan_cell(row + x, &mut best, &mut best_delta);
                    }
                } else {
                    if qx >= r {
                        scan_cell(row + qx - r, &mut best, &mut best_delta);
                    }
                    if qx + r < self.cols {
                        scan_cell(row + qx + r, &mut best, &mut best_delta);
                    }
                }
            }
        }
        Some((best, best_delta))
    }
}

/// Recursively splits the points selected by `indices` along the axis of larger spread at
/// the median, until every chunk holds at most `chunk_size` points.
fn median_split_chunks(points: &[Point], indices: &[usize], chunk_size: usize) -> Vec<Vec<usize>> {
    if indices.len() <= chunk_size {
        return vec![indices.to_vec()];
    }
    let (min_x, max_x) = indices
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
            (lo.min(points[i].x), hi.max(points[i].x))
        });
    let (min_y, max_y) = indices
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
            (lo.min(points[i].y), hi.max(points[i].y))
        });
    let split_x = (max_x - min_x) >= (max_y - min_y);
    let mut sorted = indices.to_vec();
    sorted.sort_by(|&a, &b| {
        let (ka, kb) = if split_x {
            (points[a].x, points[b].x)
        } else {
            (points[a].y, points[b].y)
        };
        ka.total_cmp(&kb)
    });
    let mid = sorted.len() / 2;
    let (left, right) = sorted.split_at(mid);
    let mut chunks = median_split_chunks(points, left, chunk_size);
    chunks.extend(median_split_chunks(points, right, chunk_size));
    chunks
}

/// Splits an oversized member list into pieces of at most `max_size` members using the
/// same recursive median split (exposed for the hierarchy builder).
pub(crate) fn split_to_max_size(
    points: &[Point],
    members: &[usize],
    max_size: usize,
) -> Vec<Vec<usize>> {
    median_split_chunks(points, members, max_size)
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cell::Cell;

    thread_local! {
        /// Ward delta evaluations on this thread (tests run on parallel threads).
        pub(super) static WARD_EVALS: Cell<u64> = const { Cell::new(0) };
    }

    /// Merges of one NN-chain run as `(survivor, absorbed, delta bits)`, plus the Ward
    /// delta evaluations it took.
    fn dendrogram(
        points: &[Point],
        indices: &[usize],
        search: NnSearch,
    ) -> (Vec<(usize, usize, u64)>, u64) {
        let before = WARD_EVALS.with(Cell::get);
        let merges = nn_chain_dendrogram(points, indices, &mut WardScratch::default(), search);
        let evals = WARD_EVALS.with(Cell::get) - before;
        let merges = merges
            .iter()
            .map(|m| (m.a, m.b, m.delta.to_bits()))
            .collect();
        (merges, evals)
    }

    /// Inputs that stress the grid's geometry: uniform, duplicate-heavy, collinear,
    /// far-apart blobs, extreme aspect ratios and tiny spreads at large offsets.
    fn oracle_points(kind: usize, n: usize, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| match kind {
                0 => Point::new(rng.gen_range(-200.0..200.0), rng.gen_range(-200.0..200.0)),
                // Duplicate-heavy lattice: a few hundred sites for up to ~1k points.
                1 => Point::new(rng.gen_range(0..12) as f64, rng.gen_range(0..12) as f64),
                // Exactly horizontal, then diagonal, lines (zero-area bounding boxes).
                2 => Point::new(rng.gen_range(0..400) as f64 * 0.5, 3.0),
                3 => {
                    let t = rng.gen_range(0.0..1.0);
                    Point::new(t, 2.0 * t - 1.0)
                }
                // Far-apart blobs with tight spreads.
                4 => {
                    let blob = (i % 5) as f64;
                    Point::new(
                        blob * 1e6 + rng.gen_range(0.0..1.0),
                        (blob * 7.0) % 3.0 * 1e6 + rng.gen_range(0.0..1.0),
                    )
                }
                // 10^9 : 1 aspect ratio.
                5 => Point::new(rng.gen_range(0.0..1e9), rng.gen_range(0.0..1.0)),
                // Tiny spread at a large offset (cell assignment near rounding).
                6 => Point::new(
                    1e9 + rng.gen_range(0.0..1e-3),
                    -1e9 + rng.gen_range(0.0..1e-3),
                ),
                // All points coincide: no grid can be laid.
                7 => Point::new(5.0, 5.0),
                // Spreads far below and far above the grid's working range.
                8 => Point::new(rng.gen_range(0.0..1e-120), rng.gen_range(0.0..1e-120)),
                9 => Point::new(rng.gen_range(0.0..1e120), rng.gen_range(0.0..1e120)),
                // Integer lattice, every point distinct (many exact ties).
                _ => {
                    let side = (n as f64).sqrt().ceil() as usize;
                    Point::new((i % side) as f64, (i / side) as f64)
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The grid search reproduces the linear scan merge for merge: same pair, same
        /// delta bits, over every geometry of `oracle_points` and a shuffled subset of
        /// indices (so local and global indices differ).
        #[test]
        fn grid_nn_chain_matches_linear_scan(
            kind in 0usize..11,
            n in 64usize..700,
            seed in 0u64..1_000_000,
        ) {
            let points = oracle_points(kind, n, seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let mut indices: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..8) != 0).collect();
            for i in (1..indices.len()).rev() {
                indices.swap(i, rng.gen_range(0..=i));
            }
            let (grid, _) = dendrogram(&points, &indices, NnSearch::Grid);
            let (linear, _) = dendrogram(&points, &indices, NnSearch::Linear);
            prop_assert_eq!(grid, linear);
        }
    }

    /// Pins the saving as a count, independent of host speed: on a 4,096-point lattice
    /// the grid evaluates at most 15% of the linear scan's Ward deltas.
    #[test]
    fn grid_search_evaluates_a_fraction_of_the_deltas() {
        let points = oracle_points(10, 4_096, 0);
        let indices: Vec<usize> = (0..points.len()).collect();
        let (grid, grid_evals) = dendrogram(&points, &indices, NnSearch::Grid);
        let (linear, linear_evals) = dendrogram(&points, &indices, NnSearch::Linear);
        assert_eq!(grid, linear);
        assert!(
            grid_evals * 100 <= linear_evals * 15,
            "grid {grid_evals} vs linear {linear_evals} Ward deltas"
        );
    }

    #[test]
    #[should_panic(expected = "no finite Ward delta")]
    fn non_finite_coordinate_panics_in_clustering() {
        let mut points = oracle_points(0, 200, 1);
        points[17] = Point::new(f64::NAN, 0.0);
        let cfg = AgglomerativeConfig::new(10).unwrap();
        let _ = agglomerative_clusters(&points, &cfg);
    }

    fn blobs(centers: &[(f64, f64)], per_blob: usize, spread: f64) -> Vec<Point> {
        let mut pts = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for k in 0..per_blob {
                // Deterministic jitter.
                let angle = (ci * per_blob + k) as f64 * 2.399_963; // golden angle
                let r = spread * ((k % 7) as f64 / 7.0);
                pts.push(Point::new(cx + r * angle.cos(), cy + r * angle.sin()));
            }
        }
        pts
    }

    #[test]
    fn empty_input_is_rejected() {
        let cfg = AgglomerativeConfig::new(2).unwrap();
        assert_eq!(
            agglomerative_clusters(&[], &cfg),
            Err(ClusterError::EmptyInput)
        );
    }

    #[test]
    fn zero_clusters_is_rejected() {
        assert!(AgglomerativeConfig::new(0).is_err());
    }

    #[test]
    fn more_clusters_than_points_is_rejected() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let cfg = AgglomerativeConfig::new(5).unwrap();
        assert!(matches!(
            agglomerative_clusters(&pts, &cfg),
            Err(ClusterError::TooManyClusters { .. })
        ));
    }

    #[test]
    fn clusters_partition_the_input() {
        let pts = blobs(&[(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)], 20, 2.0);
        let cfg = AgglomerativeConfig::new(3).unwrap();
        let clusters = agglomerative_clusters(&pts, &cfg).unwrap();
        let mut seen = vec![false; pts.len()];
        for cluster in &clusters {
            for &i in cluster {
                assert!(!seen[i], "point {i} assigned to two clusters");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every point must be assigned");
    }

    #[test]
    fn well_separated_blobs_are_recovered() {
        let pts = blobs(
            &[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)],
            15,
            3.0,
        );
        let cfg = AgglomerativeConfig::new(4).unwrap();
        let clusters = agglomerative_clusters(&pts, &cfg).unwrap();
        assert_eq!(clusters.len(), 4);
        for cluster in &clusters {
            assert_eq!(
                cluster.len(),
                15,
                "each blob must map to exactly one cluster"
            );
            // All members of a cluster must come from the same blob (indices are grouped
            // by blob in the generator).
            let blob = cluster[0] / 15;
            assert!(cluster.iter().all(|&i| i / 15 == blob));
        }
    }

    #[test]
    fn singleton_request_returns_one_cluster() {
        let pts = blobs(&[(0.0, 0.0), (10.0, 0.0)], 5, 1.0);
        let cfg = AgglomerativeConfig::new(1).unwrap();
        let clusters = agglomerative_clusters(&pts, &cfg).unwrap();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 10);
    }

    #[test]
    fn k_equals_n_returns_singletons() {
        let pts = blobs(&[(0.0, 0.0)], 6, 2.0);
        let cfg = AgglomerativeConfig::new(6).unwrap();
        let clusters = agglomerative_clusters(&pts, &cfg).unwrap();
        assert_eq!(clusters.len(), 6);
        assert!(clusters.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn prepartition_path_still_partitions_input() {
        let pts = blobs(
            &[(0.0, 0.0), (200.0, 0.0), (0.0, 200.0), (200.0, 200.0)],
            50,
            5.0,
        );
        let cfg = AgglomerativeConfig::new(8)
            .unwrap()
            .with_max_exact_points(60)
            .with_prepartition_chunk(64);
        let clusters = agglomerative_clusters(&pts, &cfg).unwrap();
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, pts.len());
        assert!(
            clusters.len() >= 4,
            "expected at least one cluster per chunk"
        );
    }

    #[test]
    fn ward_prefers_merging_nearby_points() {
        // Three points: two close together, one far away; with k = 2 the far point must
        // be alone.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(100.0, 0.0),
        ];
        let cfg = AgglomerativeConfig::new(2).unwrap();
        let clusters = agglomerative_clusters(&pts, &cfg).unwrap();
        let lonely = clusters
            .iter()
            .find(|c| c.len() == 1)
            .expect("a singleton cluster");
        assert_eq!(lonely[0], 2);
    }

    #[test]
    fn median_split_respects_chunk_size() {
        let pts = blobs(&[(0.0, 0.0)], 100, 50.0);
        let idx: Vec<usize> = (0..pts.len()).collect();
        let chunks = median_split_chunks(&pts, &idx, 16);
        assert!(chunks.iter().all(|c| c.len() <= 16));
        let total: usize = chunks.iter().map(Vec::len).sum();
        assert_eq!(total, pts.len());
    }
}
