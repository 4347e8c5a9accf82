//! Classical TSP construction heuristics and local search.
//!
//! These serve two purposes in the reproduction: they provide the *reference tour* used
//! as the optimal-ratio denominator on synthetic instances (where the published TSPLIB
//! optimum does not apply), and they are the comparison heuristics for the ablation
//! benches.
//!
//! All entry points consume the flat [`DistanceMatrix`]; the tour/path length kernels
//! gather edge distances in [`LANES`]-wide chunks (array temporaries the autovectorizer
//! can lower to SIMD) while accumulating strictly sequentially, so results are
//! bit-identical to a scalar loop. Exhaustive 2-opt/Or-opt remain the default; the
//! `*_neighbors` variants prune move generation to k-nearest candidate lists
//! ([`NeighborLists`]) and are opt-in (they may visit moves in a different order, so
//! their tours can differ from — but never invalidate — the exhaustive search).

use taxi_dist::{DistanceMatrix, NeighborLists, LANES};

/// Reusable scratch buffers for the construction heuristics and local searches.
///
/// One scratch per worker turns the whole heuristic stack (`nearest_neighbor_*`,
/// `greedy_edge_tour`, Or-opt relocation) into zero-allocation operations once the
/// buffers have grown to the largest sub-problem seen; the `*_into` / `*_with` variants
/// below consume it. Results are identical to the allocating entry points.
#[derive(Debug, Clone, Default)]
pub struct HeuristicScratch {
    visited: Vec<bool>,
    // Or-opt relocation buffers.
    segment: Vec<usize>,
    trial: Vec<usize>,
    candidate: Vec<usize>,
    // Greedy-edge construction buffers.
    edges: Vec<(u32, u32)>,
    degree: Vec<u8>,
    component: Vec<u32>,
    /// Cycle adjacency: every vertex ends with degree ≤ 2.
    adjacency: Vec<[u32; 2]>,
    adj_len: Vec<u8>,
    // Neighbor-pruned local-search buffers (used only when a neighbor limit is set).
    neighbors: NeighborLists,
    knn_scratch: Vec<(f64, u32)>,
    position: Vec<u32>,
}

impl HeuristicScratch {
    /// Creates an empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Length of the closed tour `order` under `distances`.
///
/// The edge distances are gathered [`LANES`] at a time into an array temporary, but the
/// accumulation is strictly sequential (edge 0, edge 1, ...), so the sum is bit-identical
/// to the scalar loop for every input.
///
/// # Panics
///
/// Panics if `order` references cities outside the matrix.
pub fn tour_length(distances: &DistanceMatrix, order: &[usize]) -> f64 {
    let n = order.len();
    if n < 2 {
        return 0.0;
    }
    let mut sum = path_length(distances, order);
    sum += distances.get(order[n - 1], order[0]);
    sum
}

/// Length of the open path `order` under `distances` (same chunked-gather, sequential-sum
/// scheme as [`tour_length`]).
///
/// # Panics
///
/// Panics if `order` references cities outside the matrix.
pub fn path_length(distances: &DistanceMatrix, order: &[usize]) -> f64 {
    let n = order.len();
    if n < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut gathered = [0.0f64; LANES];
    let edges = n - 1;
    let mut i = 0;
    while i + LANES <= edges {
        for l in 0..LANES {
            gathered[l] = distances.get(order[i + l], order[i + l + 1]);
        }
        for &g in &gathered {
            sum += g;
        }
        i += LANES;
    }
    while i < edges {
        sum += distances.get(order[i], order[i + 1]);
        i += 1;
    }
    sum
}

/// Index of the nearest unvisited city from `row` (first minimum wins; NaN distances are
/// never selected while a non-NaN candidate exists). Returns `None` when every city is
/// visited.
fn nearest_unvisited(row: &[f64], visited: &[bool]) -> Option<usize> {
    let mut best = f64::NAN;
    let mut best_idx = None;
    for (c, (&d, &seen)) in row.iter().zip(visited).enumerate() {
        if seen {
            continue;
        }
        if best_idx.is_none() || d.total_cmp(&best) == std::cmp::Ordering::Less {
            best = d;
            best_idx = Some(c);
        }
    }
    best_idx
}

/// Nearest-neighbour construction starting at `start`.
///
/// # Panics
///
/// Panics if the matrix is empty or `start` is out of range.
pub fn nearest_neighbor_tour(distances: &DistanceMatrix, start: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(distances.n());
    nearest_neighbor_tour_into(distances, start, &mut HeuristicScratch::new(), &mut order);
    order
}

/// Buffer-reusing form of [`nearest_neighbor_tour`]: writes the order into `out`
/// (cleared first).
///
/// # Panics
///
/// Panics if the matrix is empty or `start` is out of range.
pub fn nearest_neighbor_tour_into(
    distances: &DistanceMatrix,
    start: usize,
    scratch: &mut HeuristicScratch,
    out: &mut Vec<usize>,
) {
    let n = distances.n();
    assert!(n > 0 && start < n, "start city must exist");
    scratch.visited.clear();
    scratch.visited.resize(n, false);
    out.clear();
    let mut current = start;
    scratch.visited[current] = true;
    out.push(current);
    for _ in 1..n {
        let next = nearest_unvisited(distances.row(current), &scratch.visited)
            .expect("an unvisited city remains");
        scratch.visited[next] = true;
        out.push(next);
        current = next;
    }
}

/// Greedy-edge construction: repeatedly adds the shortest edge that keeps the partial
/// solution a set of simple paths, then closes the cycle.
///
/// # Panics
///
/// Panics if the matrix is empty.
pub fn greedy_edge_tour(distances: &DistanceMatrix) -> Vec<usize> {
    let mut order = Vec::with_capacity(distances.n());
    greedy_edge_tour_into(distances, &mut HeuristicScratch::new(), &mut order);
    order
}

/// Buffer-reusing form of [`greedy_edge_tour`]: the edge list, union-find and adjacency
/// tables come from `scratch`, and the tour is written into `out` (cleared first).
///
/// # Panics
///
/// Panics if the matrix is empty.
pub fn greedy_edge_tour_into(
    distances: &DistanceMatrix,
    scratch: &mut HeuristicScratch,
    out: &mut Vec<usize>,
) {
    let n = distances.n();
    assert!(n > 0, "instance must have at least one city");
    out.clear();
    if n == 1 {
        out.push(0);
        return;
    }
    let edges = &mut scratch.edges;
    edges.clear();
    edges.extend((0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i as u32, j as u32))));
    // Tie-break equal-length edges by (a, b): identical to a stable sort of the
    // lexicographically generated list, without the merge-sort scratch allocation.
    edges.sort_unstable_by(|&(a, b), &(c, d)| {
        distances
            .get(a as usize, b as usize)
            .total_cmp(&distances.get(c as usize, d as usize))
            .then_with(|| (a, b).cmp(&(c, d)))
    });
    scratch.degree.clear();
    scratch.degree.resize(n, 0);
    scratch.component.clear();
    scratch.component.extend(0..n as u32);
    scratch.adjacency.clear();
    scratch.adjacency.resize(n, [u32::MAX; 2]);
    scratch.adj_len.clear();
    scratch.adj_len.resize(n, 0);
    fn find(component: &mut [u32], x: u32) -> u32 {
        // Iterative find with full path compression.
        let mut root = x;
        while component[root as usize] != root {
            root = component[root as usize];
        }
        let mut walk = x;
        while component[walk as usize] != root {
            let next = component[walk as usize];
            component[walk as usize] = root;
            walk = next;
        }
        root
    }
    let push_edge = |adjacency: &mut [[u32; 2]], adj_len: &mut [u8], a: u32, b: u32| {
        adjacency[a as usize][adj_len[a as usize] as usize] = b;
        adj_len[a as usize] += 1;
    };
    let mut added = 0usize;
    for idx in 0..edges.len() {
        let (a, b) = edges[idx];
        if added == n - 1 {
            break;
        }
        if scratch.degree[a as usize] >= 2 || scratch.degree[b as usize] >= 2 {
            continue;
        }
        let (ra, rb) = (
            find(&mut scratch.component, a),
            find(&mut scratch.component, b),
        );
        if ra == rb {
            continue;
        }
        scratch.component[rb as usize] = ra;
        scratch.degree[a as usize] += 1;
        scratch.degree[b as usize] += 1;
        push_edge(&mut scratch.adjacency, &mut scratch.adj_len, a, b);
        push_edge(&mut scratch.adjacency, &mut scratch.adj_len, b, a);
        added += 1;
    }
    // Close the cycle: connect the two remaining endpoints (degree 1).
    let mut first_endpoint = u32::MAX;
    let mut second_endpoint = u32::MAX;
    let mut endpoint_count = 0usize;
    for c in 0..n {
        if scratch.degree[c] <= 1 {
            endpoint_count += 1;
            if first_endpoint == u32::MAX {
                first_endpoint = c as u32;
            } else if second_endpoint == u32::MAX {
                second_endpoint = c as u32;
            }
        }
    }
    if endpoint_count == 2 {
        push_edge(
            &mut scratch.adjacency,
            &mut scratch.adj_len,
            first_endpoint,
            second_endpoint,
        );
        push_edge(
            &mut scratch.adjacency,
            &mut scratch.adj_len,
            second_endpoint,
            first_endpoint,
        );
    }
    // Walk the cycle.
    let mut prev = u32::MAX;
    let mut current = 0u32;
    for _ in 0..n {
        out.push(current as usize);
        let neighbors = &scratch.adjacency[current as usize];
        let len = scratch.adj_len[current as usize] as usize;
        let next = neighbors[..len]
            .iter()
            .copied()
            .find(|&c| c != prev)
            .unwrap_or_else(|| neighbors[0]);
        prev = current;
        current = next;
    }
}

/// 2-opt local search: repeatedly reverses tour segments while that shortens the tour,
/// up to `max_passes` full passes. Returns the number of improving moves applied.
pub fn two_opt(distances: &DistanceMatrix, order: &mut [usize], max_passes: usize) -> usize {
    let n = order.len();
    if n < 4 {
        return 0;
    }
    let mut improvements = 0usize;
    for _ in 0..max_passes {
        let mut improved = false;
        for i in 0..n - 1 {
            // Reversing order[i+1..=j] never moves order[i], so row a is loop-invariant
            // across the j-scan: the inner loop walks one contiguous row instead of
            // chasing per-row heap pointers. order[i+1] *does* change after a reversal,
            // so b is re-read each iteration, exactly like the original scan.
            let a = order[i];
            let row_a = distances.row(a);
            for j in i + 2..n {
                if i == 0 && j == n - 1 {
                    continue;
                }
                let b = order[i + 1];
                let c = order[j];
                let d = order[(j + 1) % n];
                #[cfg(test)]
                tests::MOVE_EVALS.with(|evals| evals.set(evals.get() + 1));
                let delta = row_a[c] + distances.get(b, d) - row_a[b] - distances.get(c, d);
                if delta < -1e-12 {
                    order[i + 1..=j].reverse();
                    improvements += 1;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    improvements
}

/// Or-opt local search: relocates segments of 1–3 consecutive cities while that shortens
/// the tour, up to `max_passes` passes. Returns the number of improving moves applied.
pub fn or_opt(distances: &DistanceMatrix, order: &mut Vec<usize>, max_passes: usize) -> usize {
    or_opt_with(distances, order, max_passes, &mut HeuristicScratch::new())
}

/// Buffer-reusing form of [`or_opt`]: the segment/trial/candidate relocation buffers come
/// from `scratch`, so steady-state local search allocates nothing. Results are identical
/// to [`or_opt`].
pub fn or_opt_with(
    distances: &DistanceMatrix,
    order: &mut Vec<usize>,
    max_passes: usize,
    scratch: &mut HeuristicScratch,
) -> usize {
    let n = order.len();
    if n < 5 {
        return 0;
    }
    let mut improvements = 0usize;
    for _ in 0..max_passes {
        let mut improved = false;
        for seg_len in 1..=3usize {
            let mut i = 0;
            while i + seg_len < order.len() {
                if relocate_segment(distances, order, i, seg_len, false, scratch).is_some() {
                    improvements += 1;
                    improved = true;
                }
                i += 1;
            }
        }
        if !improved {
            break;
        }
    }
    improvements
}

/// One Or-opt relocation attempt for `order[i..i + seg_len]`; shared by the cyclic and
/// open-path searches (`path_mode` pins the first/last positions). Returns the chosen
/// insertion position when an improving move was applied.
fn relocate_segment(
    distances: &DistanceMatrix,
    order: &mut Vec<usize>,
    i: usize,
    seg_len: usize,
    path_mode: bool,
    scratch: &mut HeuristicScratch,
) -> Option<usize> {
    let length_of = |o: &[usize]| {
        if path_mode {
            path_length(distances, o)
        } else {
            tour_length(distances, o)
        }
    };
    let HeuristicScratch {
        segment,
        trial,
        candidate,
        ..
    } = scratch;
    let before = length_of(order);
    segment.clear();
    segment.extend_from_slice(&order[i..i + seg_len]);
    trial.clear();
    trial.extend(order.iter().copied().filter(|c| !segment.contains(c)));
    let mut best_len = before;
    let mut best_pos = None;
    let (first_pos, last_pos) = if path_mode {
        (1, trial.len().saturating_sub(1))
    } else {
        (0, trial.len())
    };
    for pos in first_pos..=last_pos {
        candidate.clear();
        candidate.extend_from_slice(trial);
        for (offset, &c) in segment.iter().enumerate() {
            candidate.insert(pos + offset, c);
        }
        #[cfg(test)]
        tests::MOVE_EVALS.with(|evals| evals.set(evals.get() + 1));
        let len = length_of(candidate);
        if len < best_len - 1e-12 {
            best_len = len;
            best_pos = Some(pos);
        }
    }
    if let Some(pos) = best_pos {
        for (offset, &c) in segment.iter().enumerate() {
            trial.insert(pos + offset, c);
        }
        order.clear();
        order.extend_from_slice(trial);
    }
    best_pos
}

/// Nearest-neighbour open-path construction from `start`, forced to terminate at `end`.
///
/// # Panics
///
/// Panics if the matrix is empty, either endpoint is out of range, or `start == end` on
/// a multi-city matrix (a Hamiltonian path cannot start and end at the same city).
pub fn nearest_neighbor_path(distances: &DistanceMatrix, start: usize, end: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(distances.n());
    nearest_neighbor_path_into(
        distances,
        start,
        end,
        &mut HeuristicScratch::new(),
        &mut order,
    );
    order
}

/// Buffer-reusing form of [`nearest_neighbor_path`]: writes the order into `out`
/// (cleared first).
///
/// # Panics
///
/// Same panic conditions as [`nearest_neighbor_path`].
pub fn nearest_neighbor_path_into(
    distances: &DistanceMatrix,
    start: usize,
    end: usize,
    scratch: &mut HeuristicScratch,
    out: &mut Vec<usize>,
) {
    let n = distances.n();
    assert!(n > 0 && start < n && end < n, "endpoints must exist");
    assert!(
        n == 1 || start != end,
        "start and end must differ for multi-city paths"
    );
    out.clear();
    if n == 1 {
        out.push(start);
        return;
    }
    scratch.visited.clear();
    scratch.visited.resize(n, false);
    scratch.visited[start] = true;
    scratch.visited[end] = true;
    out.push(start);
    let mut current = start;
    for _ in 0..n.saturating_sub(2) {
        let next = nearest_unvisited(distances.row(current), &scratch.visited)
            .expect("an unvisited interior city remains");
        scratch.visited[next] = true;
        out.push(next);
        current = next;
    }
    out.push(end);
}

/// 2-opt local search on an open path: reverses interior segments while that shortens the
/// path, keeping the first and last cities pinned. Returns the number of improving moves.
pub fn two_opt_path(distances: &DistanceMatrix, order: &mut [usize], max_passes: usize) -> usize {
    let n = order.len();
    if n < 4 {
        return 0;
    }
    let mut improvements = 0usize;
    for _ in 0..max_passes {
        let mut improved = false;
        // Reversing order[i+1..=j] replaces edges (i, i+1) and (j, j+1); both stay inside
        // the path, so the endpoints order[0] and order[n-1] are never moved.
        for i in 0..n - 2 {
            for j in i + 2..n - 1 {
                let a = order[i];
                let b = order[i + 1];
                let c = order[j];
                let d = order[j + 1];
                #[cfg(test)]
                tests::MOVE_EVALS.with(|evals| evals.set(evals.get() + 1));
                let delta = distances.get(a, c) + distances.get(b, d)
                    - distances.get(a, b)
                    - distances.get(c, d);
                if delta < -1e-12 {
                    order[i + 1..=j].reverse();
                    improvements += 1;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    improvements
}

/// Or-opt local search on an open path: relocates interior segments of 1–3 consecutive
/// cities while that shortens the path, keeping the endpoints pinned. Returns the number
/// of improving moves applied.
pub fn or_opt_path(distances: &DistanceMatrix, order: &mut Vec<usize>, max_passes: usize) -> usize {
    or_opt_path_with(distances, order, max_passes, &mut HeuristicScratch::new())
}

/// Buffer-reusing form of [`or_opt_path`]; insertion positions keep the pinned endpoints
/// in place. Results are identical to [`or_opt_path`].
pub fn or_opt_path_with(
    distances: &DistanceMatrix,
    order: &mut Vec<usize>,
    max_passes: usize,
    scratch: &mut HeuristicScratch,
) -> usize {
    let n = order.len();
    if n < 5 {
        return 0;
    }
    let mut improvements = 0usize;
    for _ in 0..max_passes {
        let mut improved = false;
        for seg_len in 1..=3usize {
            let mut i = 1;
            while i + seg_len < order.len() {
                if relocate_segment(distances, order, i, seg_len, true, scratch).is_some() {
                    improvements += 1;
                    improved = true;
                }
                i += 1;
            }
        }
        if !improved {
            break;
        }
    }
    improvements
}

// ---------------------------------------------------------------------------
// Neighbor-pruned local search (opt-in).
// ---------------------------------------------------------------------------

/// Rebuilds `position` so `position[city] = index in order`.
fn index_positions(order: &[usize], position: &mut Vec<u32>, n: usize) {
    position.clear();
    position.resize(n, 0);
    for (idx, &c) in order.iter().enumerate() {
        position[c] = idx as u32;
    }
}

/// Neighbor-pruned 2-opt on a closed tour: only moves whose removed-edge endpoint pairs
/// are k-nearest neighbors are examined, making one pass O(n·k) instead of O(n²). The
/// move *order* differs from the exhaustive scan, so the resulting tour may differ from
/// [`two_opt`]; it is always a valid permutation and never longer than the input.
pub fn two_opt_neighbors(
    distances: &DistanceMatrix,
    order: &mut [usize],
    max_passes: usize,
    lists: &NeighborLists,
    position: &mut Vec<u32>,
) -> usize {
    let n = order.len();
    if n < 4 {
        return 0;
    }
    let mut improvements = 0usize;
    for _ in 0..max_passes {
        let mut improved = false;
        index_positions(order, position, distances.n());
        for i in 0..n - 1 {
            let a = order[i];
            let b = order[i + 1];
            let row_a = distances.row(a);
            let d_ab = row_a[b];
            for &cand in lists.neighbors(a) {
                let c = cand as usize;
                let j = position[c] as usize;
                if j < i + 2 || (i == 0 && j == n - 1) || j >= n {
                    continue;
                }
                // Candidates are sorted ascending: once d(a, c) ≥ d(a, b) no further
                // candidate can pay for the reversal through the a-side edge.
                if row_a[c] >= d_ab {
                    break;
                }
                let d = order[(j + 1) % n];
                #[cfg(test)]
                tests::MOVE_EVALS.with(|evals| evals.set(evals.get() + 1));
                let delta = row_a[c] + distances.get(b, d) - d_ab - distances.get(c, d);
                if delta < -1e-12 {
                    order[i + 1..=j].reverse();
                    for (idx, &city) in order.iter().enumerate().take(j + 1).skip(i + 1) {
                        position[city] = idx as u32;
                    }
                    improvements += 1;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
    improvements
}

/// Neighbor-pruned 2-opt on an open path (endpoints pinned); the path-mode counterpart
/// of [`two_opt_neighbors`].
pub fn two_opt_path_neighbors(
    distances: &DistanceMatrix,
    order: &mut [usize],
    max_passes: usize,
    lists: &NeighborLists,
    position: &mut Vec<u32>,
) -> usize {
    let n = order.len();
    if n < 4 {
        return 0;
    }
    let mut improvements = 0usize;
    for _ in 0..max_passes {
        let mut improved = false;
        index_positions(order, position, distances.n());
        for i in 0..n - 2 {
            let a = order[i];
            let b = order[i + 1];
            let row_a = distances.row(a);
            let d_ab = row_a[b];
            for &cand in lists.neighbors(a) {
                let c = cand as usize;
                let j = position[c] as usize;
                if j < i + 2 || j >= n - 1 {
                    continue;
                }
                if row_a[c] >= d_ab {
                    break;
                }
                let d = order[j + 1];
                #[cfg(test)]
                tests::MOVE_EVALS.with(|evals| evals.set(evals.get() + 1));
                let delta = row_a[c] + distances.get(b, d) - d_ab - distances.get(c, d);
                if delta < -1e-12 {
                    order[i + 1..=j].reverse();
                    for (idx, &city) in order.iter().enumerate().take(j + 1).skip(i + 1) {
                        position[city] = idx as u32;
                    }
                    improvements += 1;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
    improvements
}

/// Neighbor-pruned Or-opt (cyclic or path mode): single-city relocations next to a
/// k-nearest neighbor, evaluated by O(1) edge deltas instead of full-tour recomputation.
fn or_opt_neighbors_impl(
    distances: &DistanceMatrix,
    order: &mut Vec<usize>,
    max_passes: usize,
    lists: &NeighborLists,
    path_mode: bool,
    scratch: &mut HeuristicScratch,
) -> usize {
    let n = order.len();
    if n < 5 {
        return 0;
    }
    let mut improvements = 0usize;
    for _ in 0..max_passes {
        let mut improved = false;
        index_positions(order, &mut scratch.position, distances.n());
        let lo = usize::from(path_mode);
        let hi = if path_mode { n - 1 } else { n };
        for i in lo..hi {
            let s = order[i];
            let prev = order[(i + n - 1) % n];
            let next = order[(i + 1) % n];
            if path_mode && (i == 0 || i == n - 1) {
                continue;
            }
            // Cost of snipping s out of the tour.
            let removal_gain =
                distances.get(prev, s) + distances.get(s, next) - distances.get(prev, next);
            let mut best_delta = -1e-12;
            let mut best_after: Option<usize> = None;
            for &cand in lists.neighbors(s) {
                let u = cand as usize;
                let j = scratch.position[u] as usize;
                // Skip no-op anchors: u is s itself, or s already follows u.
                if j == i || (j + 1) % n == i {
                    continue;
                }
                // Insert s between u and its successor v (v must exist in path mode).
                if path_mode && j >= n - 1 {
                    continue;
                }
                let v = order[(j + 1) % n];
                if v == s {
                    continue;
                }
                #[cfg(test)]
                tests::MOVE_EVALS.with(|evals| evals.set(evals.get() + 1));
                let insertion_cost =
                    distances.get(u, s) + distances.get(s, v) - distances.get(u, v);
                let delta = insertion_cost - removal_gain;
                if delta < best_delta {
                    best_delta = delta;
                    best_after = Some(j);
                }
            }
            if let Some(j) = best_after {
                // Rebuild the order with s moved to sit after position j.
                let u = order[j];
                scratch.trial.clear();
                scratch
                    .trial
                    .extend(order.iter().copied().filter(|&c| c != s));
                let insert_at = scratch
                    .trial
                    .iter()
                    .position(|&c| c == u)
                    .expect("anchor city remains")
                    + 1;
                scratch.trial.insert(insert_at, s);
                order.clear();
                order.extend_from_slice(&scratch.trial);
                index_positions(order, &mut scratch.position, distances.n());
                improvements += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    improvements
}

/// Reference open path between fixed endpoints: nearest-neighbour construction followed
/// by bounded path-preserving 2-opt and Or-opt.
///
/// # Panics
///
/// Panics if the matrix is empty, either endpoint is out of range, or `start == end` on
/// a multi-city matrix (see [`nearest_neighbor_path`]).
pub fn reference_path(distances: &DistanceMatrix, start: usize, end: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(distances.n());
    reference_path_into(
        distances,
        start,
        end,
        &mut HeuristicScratch::new(),
        &mut order,
    );
    order
}

/// Buffer-reusing form of [`reference_path`]: writes the path into `out` (cleared
/// first); once `scratch` and `out` are warm the whole construction + local search runs
/// without heap allocation.
///
/// # Panics
///
/// Same panic conditions as [`reference_path`].
pub fn reference_path_into(
    distances: &DistanceMatrix,
    start: usize,
    end: usize,
    scratch: &mut HeuristicScratch,
    out: &mut Vec<usize>,
) {
    nearest_neighbor_path_into(distances, start, end, scratch, out);
    two_opt_path(distances, out, 8);
    if distances.n() <= 400 {
        or_opt_path_with(distances, out, 2, scratch);
        two_opt_path(distances, out, 4);
    }
}

/// Reference tour used as the optimal-ratio denominator on synthetic instances:
/// nearest-neighbour construction followed by 2-opt (and Or-opt for small instances).
///
/// The local-search effort is bounded so that even the largest benchmark instances finish
/// in reasonable time; for instances above `two_opt_limit` cities only the construction
/// heuristic plus a single bounded 2-opt pass is applied.
pub fn reference_tour(distances: &DistanceMatrix) -> Vec<usize> {
    let mut order = Vec::with_capacity(distances.n());
    reference_tour_into(distances, &mut HeuristicScratch::new(), &mut order);
    order
}

/// Buffer-reusing form of [`reference_tour`]: writes the tour into `out` (cleared
/// first); once `scratch` and `out` are warm the whole construction + local search runs
/// without heap allocation.
pub fn reference_tour_into(
    distances: &DistanceMatrix,
    scratch: &mut HeuristicScratch,
    out: &mut Vec<usize>,
) {
    let n = distances.n();
    nearest_neighbor_tour_into(distances, 0, scratch, out);
    let two_opt_limit = 3_000;
    if n <= two_opt_limit {
        two_opt(distances, out, 8);
        if n <= 400 {
            or_opt_with(distances, out, 2, scratch);
            two_opt(distances, out, 4);
        }
    } else {
        two_opt(distances, out, 1);
    }
}

/// Like [`reference_tour_into`], but with neighbor-pruned local search when
/// `neighbor_limit > 0`: a k-nearest candidate list is built (reusing scratch buffers)
/// and 2-opt/Or-opt only examine neighbor moves, making each pass O(n·k). A limit of 0
/// is exactly [`reference_tour_into`] (exhaustive, bit-identical legacy behaviour).
pub fn reference_tour_into_limited(
    distances: &DistanceMatrix,
    scratch: &mut HeuristicScratch,
    out: &mut Vec<usize>,
    neighbor_limit: usize,
) {
    let n = distances.n();
    if neighbor_limit == 0 || n <= neighbor_limit + 2 {
        reference_tour_into(distances, scratch, out);
        return;
    }
    nearest_neighbor_tour_into(distances, 0, scratch, out);
    let HeuristicScratch {
        neighbors,
        knn_scratch,
        ..
    } = scratch;
    neighbors.rebuild_from_matrix(distances, neighbor_limit, knn_scratch);
    let lists = std::mem::take(&mut scratch.neighbors);
    two_opt_neighbors(distances, out, 8, &lists, &mut scratch.position);
    if n <= 400 {
        or_opt_neighbors_impl(distances, out, 2, &lists, false, scratch);
        two_opt_neighbors(distances, out, 4, &lists, &mut scratch.position);
    }
    scratch.neighbors = lists;
}

/// Like [`two_opt`], but with neighbor-pruned candidate scans when `neighbor_limit > 0`
/// (k-nearest lists are rebuilt from `scratch`, making each pass O(n·k)). A limit of 0
/// is exactly [`two_opt`] with the same `max_passes` (exhaustive legacy behaviour).
pub fn two_opt_limited(
    distances: &DistanceMatrix,
    order: &mut [usize],
    max_passes: usize,
    scratch: &mut HeuristicScratch,
    neighbor_limit: usize,
) -> usize {
    let n = distances.n();
    if neighbor_limit == 0 || n <= neighbor_limit + 2 {
        return two_opt(distances, order, max_passes);
    }
    let HeuristicScratch {
        neighbors,
        knn_scratch,
        ..
    } = scratch;
    neighbors.rebuild_from_matrix(distances, neighbor_limit, knn_scratch);
    let lists = std::mem::take(&mut scratch.neighbors);
    let improvements =
        two_opt_neighbors(distances, order, max_passes, &lists, &mut scratch.position);
    scratch.neighbors = lists;
    improvements
}

/// Like [`reference_path_into`], but with neighbor-pruned local search when
/// `neighbor_limit > 0` (see [`reference_tour_into_limited`]). A limit of 0 is exactly
/// [`reference_path_into`].
///
/// # Panics
///
/// Same panic conditions as [`reference_path`].
pub fn reference_path_into_limited(
    distances: &DistanceMatrix,
    start: usize,
    end: usize,
    scratch: &mut HeuristicScratch,
    out: &mut Vec<usize>,
    neighbor_limit: usize,
) {
    let n = distances.n();
    if neighbor_limit == 0 || n <= neighbor_limit + 2 {
        reference_path_into(distances, start, end, scratch, out);
        return;
    }
    nearest_neighbor_path_into(distances, start, end, scratch, out);
    let HeuristicScratch {
        neighbors,
        knn_scratch,
        ..
    } = scratch;
    neighbors.rebuild_from_matrix(distances, neighbor_limit, knn_scratch);
    let lists = std::mem::take(&mut scratch.neighbors);
    two_opt_path_neighbors(distances, out, 8, &lists, &mut scratch.position);
    if n <= 400 {
        or_opt_neighbors_impl(distances, out, 2, &lists, true, scratch);
        two_opt_path_neighbors(distances, out, 4, &lists, &mut scratch.position);
    }
    scratch.neighbors = lists;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use taxi_tsplib::generator::random_uniform_instance;

    thread_local! {
        /// Local-search move evaluations on this thread (tests run on parallel threads).
        pub(super) static MOVE_EVALS: Cell<u64> = const { Cell::new(0) };
    }

    fn ring(n: usize) -> (DistanceMatrix, f64) {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                (a.cos(), a.sin())
            })
            .collect();
        let d = DistanceMatrix::from_fn(n, |i, j| {
            let (x1, y1) = pts[i];
            let (x2, y2) = pts[j];
            ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
        });
        let opt = (0..n).map(|i| d.get(i, (i + 1) % n)).sum();
        (d, opt)
    }

    fn is_permutation(order: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order.iter().all(|&c| {
                if c < n && !seen[c] {
                    seen[c] = true;
                    true
                } else {
                    false
                }
            })
    }

    #[test]
    fn nearest_neighbor_returns_permutation() {
        let (d, _) = ring(15);
        let t = nearest_neighbor_tour(&d, 3);
        assert!(is_permutation(&t, 15));
        assert_eq!(t[0], 3);
    }

    #[test]
    fn greedy_edge_returns_permutation() {
        let (d, _) = ring(20);
        let t = greedy_edge_tour(&d);
        assert!(is_permutation(&t, 20));
    }

    #[test]
    fn greedy_edge_is_optimal_on_a_ring() {
        let (d, opt) = ring(16);
        let t = greedy_edge_tour(&d);
        assert!((tour_length(&d, &t) - opt).abs() < 1e-9);
    }

    #[test]
    fn two_opt_removes_crossings() {
        let (d, opt) = ring(12);
        // Start from a deliberately scrambled tour.
        let mut order: Vec<usize> = (0..12).map(|i| (i * 5) % 12).collect();
        assert!(is_permutation(&order, 12));
        let before = tour_length(&d, &order);
        let moves = two_opt(&d, &mut order, 50);
        let after = tour_length(&d, &order);
        assert!(moves > 0);
        assert!(after < before);
        assert!(
            (after - opt).abs() / opt < 0.05,
            "2-opt should nearly close a ring"
        );
        assert!(is_permutation(&order, 12));
    }

    #[test]
    fn or_opt_never_worsens_the_tour() {
        let (d, _) = ring(10);
        let mut order: Vec<usize> = (0..10).map(|i| (i * 3) % 10).collect();
        let before = tour_length(&d, &order);
        or_opt(&d, &mut order, 3);
        let after = tour_length(&d, &order);
        assert!(after <= before + 1e-9);
        assert!(is_permutation(&order, 10));
    }

    #[test]
    fn reference_tour_is_close_to_exact_on_small_instances() {
        let (d, opt) = ring(14);
        let reference = reference_tour(&d);
        let len = tour_length(&d, &reference);
        assert!(len <= opt * 1.05);
    }

    #[test]
    fn tour_length_of_trivial_tours_is_zero() {
        let d = DistanceMatrix::zeros(1);
        assert_eq!(tour_length(&d, &[0]), 0.0);
    }

    /// The chunked-gather length kernels must match a naive scalar sum bit-for-bit for
    /// every length, including remainders shorter than the lane width.
    #[test]
    fn chunked_lengths_are_bit_identical_to_scalar_reference() {
        for n in 2..24usize {
            let (d, _) = ring(n);
            let order: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
            if !is_permutation(&order, n) {
                continue;
            }
            let scalar_tour: f64 = (0..n).map(|i| d.get(order[i], order[(i + 1) % n])).sum();
            let scalar_path: f64 = order.windows(2).map(|p| d.get(p[0], p[1])).sum();
            assert_eq!(tour_length(&d, &order), scalar_tour, "tour n={n}");
            assert_eq!(path_length(&d, &order), scalar_path, "path n={n}");
        }
    }

    #[test]
    fn two_opt_leaves_small_tours_untouched() {
        let (d, _) = ring(3);
        let mut order = vec![0, 1, 2];
        assert_eq!(two_opt(&d, &mut order, 10), 0);
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// Cities on a line: the optimal 0→(n-1) path is the sorted sweep of length n-1.
    fn line(n: usize) -> DistanceMatrix {
        DistanceMatrix::from_fn(n, |i, j| (i as f64 - j as f64).abs())
    }

    #[test]
    fn path_variants_pin_endpoints_and_improve() {
        let d = line(9);
        let mut order = nearest_neighbor_path(&d, 0, 8);
        assert_eq!(order[0], 0);
        assert_eq!(*order.last().unwrap(), 8);
        assert!(is_permutation(&order, 9));
        // Scramble the interior, then let the path local search repair it.
        order = vec![0, 5, 2, 7, 1, 6, 3, 4, 8];
        let before = path_length(&d, &order);
        two_opt_path(&d, &mut order, 50);
        or_opt_path(&d, &mut order, 3);
        let after = path_length(&d, &order);
        assert!(after < before);
        assert_eq!(order[0], 0);
        assert_eq!(*order.last().unwrap(), 8);
        assert!(is_permutation(&order, 9));
    }

    #[test]
    fn reference_path_is_optimal_on_a_line() {
        let d = line(10);
        let order = reference_path(&d, 0, 9);
        assert!((path_length(&d, &order) - 9.0).abs() < 1e-9);
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reference_path_handles_interior_endpoints() {
        let d = line(8);
        let order = reference_path(&d, 3, 5);
        assert_eq!(order[0], 3);
        assert_eq!(*order.last().unwrap(), 5);
        assert!(is_permutation(&order, 8));
    }

    #[test]
    #[should_panic(expected = "start and end must differ")]
    fn path_construction_rejects_equal_endpoints_on_multi_city_matrices() {
        let d = line(5);
        nearest_neighbor_path(&d, 2, 2);
    }

    /// The scratch-based variants must be behaviourally transparent: same tours as the
    /// allocating entry points, including on tie-heavy symmetric instances where the
    /// greedy-edge sort order matters.
    #[test]
    fn scratch_variants_match_allocating_entry_points() {
        let mut scratch = HeuristicScratch::new();
        let mut out = Vec::new();
        for n in [6usize, 11, 16] {
            let (d, _) = ring(n);
            greedy_edge_tour_into(&d, &mut scratch, &mut out);
            assert_eq!(out, greedy_edge_tour(&d), "greedy-edge n={n}");
            nearest_neighbor_tour_into(&d, 2 % n, &mut scratch, &mut out);
            assert_eq!(out, nearest_neighbor_tour(&d, 2 % n), "nn n={n}");
            reference_tour_into(&d, &mut scratch, &mut out);
            assert_eq!(out, reference_tour(&d), "reference n={n}");
            reference_path_into(&d, 0, n - 1, &mut scratch, &mut out);
            assert_eq!(out, reference_path(&d, 0, n - 1), "reference path n={n}");
        }
        let d = line(9);
        let mut a = vec![0, 5, 2, 7, 1, 6, 3, 4, 8];
        let mut b = a.clone();
        let moves_a = or_opt_path(&d, &mut a, 3);
        let moves_b = or_opt_path_with(&d, &mut b, 3, &mut scratch);
        assert_eq!(a, b);
        assert_eq!(moves_a, moves_b);
    }

    /// `n` cities drawn uniformly from a 1000 × 1000 square by a 64-bit LCG.
    fn lcg_euclidean(n: usize, seed: u64) -> DistanceMatrix {
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

    /// A neighbor limit of zero must route through the exhaustive legacy search and
    /// produce bit-identical tours; a nonzero limit must still produce valid tours that
    /// 2-opt actually improved, on rings and on uniform Euclidean instances.
    #[test]
    fn limited_reference_tours_are_valid_and_legacy_at_zero() {
        // Pruned 2-opt (16 neighbors) from a nearest-neighbour tour stays a tour and
        // within 20% of the exhaustive 2-opt: 1.183x at 160 cities, 1.178x at 400.
        for n in [160usize, 400] {
            let d = lcg_euclidean(n, 5);
            let seed_order = nearest_neighbor_tour(&d, 0);
            let mut exhaustive = seed_order.clone();
            two_opt(&d, &mut exhaustive, 1_000);
            let mut pruned = seed_order;
            two_opt_limited(&d, &mut pruned, 1_000, &mut HeuristicScratch::new(), 16);
            assert!(is_permutation(&pruned, n), "pruned 2-opt must stay a tour");
            let pruned_len = tour_length(&d, &pruned);
            let exhaustive_len = tour_length(&d, &exhaustive);
            assert!(
                pruned_len <= exhaustive_len * 1.2,
                "pruned 2-opt regressed beyond 20% at n={n}: {pruned_len:.1} vs {exhaustive_len:.1}"
            );
        }
        let mut scratch = HeuristicScratch::new();
        let mut out = Vec::new();
        for n in [10usize, 17, 40] {
            let (d, opt) = ring(n);
            reference_tour_into_limited(&d, &mut scratch, &mut out, 0);
            assert_eq!(out, reference_tour(&d), "limit=0 must be legacy, n={n}");
            for limit in [4usize, 8] {
                reference_tour_into_limited(&d, &mut scratch, &mut out, limit);
                assert!(is_permutation(&out, n), "n={n} limit={limit}");
                let len = tour_length(&d, &out);
                assert!(
                    len <= opt * 1.2 + 1e-9,
                    "pruned search strayed too far on a ring: n={n} limit={limit} {len} vs {opt}"
                );
                reference_path_into_limited(&d, 0, n - 1, &mut scratch, &mut out, limit);
                assert!(is_permutation(&out, n));
                assert_eq!(out[0], 0);
                assert_eq!(*out.last().unwrap(), n - 1);
            }
        }
    }

    /// Pins the neighbor-pruned search's saving as a count, independent of host speed:
    /// nn-2opt's reference tour on three uniform instances (140, 160 and 180 cities,
    /// seeds 7–9) evaluates 688,858 moves exhaustively and 11,040 (1.6%) with 12
    /// neighbors. The bound is 5%.
    #[test]
    fn pruned_search_evaluates_a_fraction_of_the_moves() {
        let matrices: Vec<DistanceMatrix> = (0..3)
            .map(|i| {
                random_uniform_instance("pruned-flat", 140 + 20 * i, 7 + i as u64)
                    .full_distance_matrix()
            })
            .collect();
        let mut scratch = HeuristicScratch::new();
        let mut out = Vec::new();
        let mut evals = |limit: usize| {
            let before = MOVE_EVALS.with(Cell::get);
            for d in &matrices {
                reference_tour_into_limited(d, &mut scratch, &mut out, limit);
                assert!(is_permutation(&out, d.n()), "limit {limit}");
            }
            MOVE_EVALS.with(Cell::get) - before
        };
        let exhaustive = evals(0);
        let pruned = evals(12);
        assert!(
            pruned * 20 <= exhaustive,
            "pruned {pruned} vs exhaustive {exhaustive} move evaluations"
        );
    }

    #[test]
    fn held_karp_into_matches_held_karp() {
        use crate::exact::{held_karp_into, held_karp_path_into, HeldKarpScratch};
        let mut scratch = HeldKarpScratch::new();
        let mut out = Vec::new();
        for n in [5usize, 9, 12] {
            let (d, _) = ring(n);
            let fresh = crate::held_karp(&d).unwrap();
            let length = held_karp_into(&d, &mut scratch, &mut out).unwrap();
            assert_eq!(out, fresh.order);
            assert_eq!(length, fresh.length);
            let fresh = crate::held_karp_path(&d, 1, n - 2).unwrap();
            let length = held_karp_path_into(&d, 1, n - 2, &mut scratch, &mut out).unwrap();
            assert_eq!(out, fresh.order);
            assert_eq!(length, fresh.length);
        }
    }

    #[test]
    fn path_length_matches_manual_sum() {
        let d = line(4);
        assert!((path_length(&d, &[0, 2, 1, 3]) - 5.0).abs() < 1e-12);
        assert_eq!(path_length(&d, &[2]), 0.0);
    }
}
