//! The Ising-macro TSP sub-solver (Section III of the paper).
//!
//! [`MacroTspSolver`] drives a [`taxi_xbar::IsingMacro`] through the annealing procedure
//! of Section III-C6: the write current starts at 420 µA and decreases every iteration;
//! each iteration optimises one visiting order (superpose → distance MAC → stochastic
//! mask → ArgMax → spin-storage update), cycling from the first to the last order; when
//! the current reaches 353 µA the spin storage is read out as the solution.
//!
//! Two solve modes exist:
//!
//! * [`solve_cycle`](MacroTspSolver::solve_cycle) — a closed tour over all cities of the
//!   sub-problem (used for the topmost hierarchy level).
//! * [`solve_path`](MacroTspSolver::solve_path) — an open path whose first and last
//!   cities are fixed (used for every other level, where the hierarchical layer pins the
//!   entry/exit cities of each cluster, Section IV-2).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use taxi_device::{DeviceError, SwitchThreshold};
use taxi_dist::DistanceMatrix;
use taxi_xbar::{IsingMacro, MacroConfig, MacroOpCounts, XbarError};

use crate::{AnnealingSchedule, CurrentSchedule, IsingError};

/// Configuration of the macro-based TSP sub-solver.
///
/// # Example
///
/// ```
/// use taxi_ising::{AnnealingSchedule, CurrentSchedule, MacroSolverConfig};
/// use taxi_xbar::MacroConfig;
///
/// let config = MacroSolverConfig::new(MacroConfig::new(4))
///     .with_schedule(CurrentSchedule::paper());
/// assert_eq!(config.schedule().len(), 1340);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MacroSolverConfig {
    macro_config: MacroConfig,
    schedule: CurrentSchedule,
    elitist: bool,
}

impl MacroSolverConfig {
    /// Creates a solver configuration around a macro configuration, using the default
    /// software schedule and elitist solution tracking.
    pub fn new(macro_config: MacroConfig) -> Self {
        Self {
            macro_config,
            schedule: CurrentSchedule::default(),
            elitist: true,
        }
    }

    /// Overrides the annealing schedule.
    pub fn with_schedule(mut self, schedule: CurrentSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the macro configuration.
    pub fn with_macro_config(mut self, macro_config: MacroConfig) -> Self {
        self.macro_config = macro_config;
        self
    }

    /// Enables or disables elitist tracking.
    ///
    /// When enabled (the default), the solver snapshots the spin storage after every
    /// complete sweep over the visiting orders and returns the best tour encountered;
    /// when disabled it returns exactly the spin storage read out at the end of the
    /// schedule, as the paper's hardware does.
    pub fn with_elitist(mut self, elitist: bool) -> Self {
        self.elitist = elitist;
        self
    }

    /// The macro configuration.
    pub fn macro_config(&self) -> &MacroConfig {
        &self.macro_config
    }

    /// The annealing schedule.
    pub fn schedule(&self) -> CurrentSchedule {
        self.schedule
    }

    /// Whether elitist tracking is enabled.
    pub fn elitist(&self) -> bool {
        self.elitist
    }
}

impl Default for MacroSolverConfig {
    fn default() -> Self {
        Self::new(MacroConfig::default().with_capacity(64))
    }
}

/// Solution of one sub-problem produced by an Ising macro.
#[derive(Debug, Clone, PartialEq)]
pub struct SubTourSolution {
    /// Visiting order: `order[k]` is the sub-problem city index visited k-th.
    pub order: Vec<usize>,
    /// Length of the tour (cyclic) or path (fixed endpoints), in the units of the input
    /// distance matrix.
    pub length: f64,
    /// Number of annealing iterations executed on the macro.
    pub iterations: u64,
    /// Hardware operation counters accumulated by the macro.
    pub op_counts: MacroOpCounts,
}

/// Scalar outcome of a scratch-based solve ([`MacroTspSolver::solve_cycle_with`] /
/// [`MacroTspSolver::solve_path_with`]); the visiting order is written into the caller's
/// buffer instead of being owned by the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubTourStats {
    /// Length of the tour (cyclic) or path (fixed endpoints).
    pub length: f64,
    /// Number of annealing iterations executed on the macro.
    pub iterations: u64,
    /// Hardware operation counters accumulated by the macro.
    pub op_counts: MacroOpCounts,
}

/// Reusable per-worker scratch for the macro TSP solver.
///
/// Holds one warm [`IsingMacro`] per sub-problem size (re-targeted in place through
/// [`IsingMacro::remap`]), the switching threshold of every pulse of the annealing
/// schedule, and the order/visited buffers of the annealing loop. After a
/// warm-up solve per distinct sub-problem size, every subsequent solve through
/// [`MacroTspSolver::solve_cycle_with`] / [`MacroTspSolver::solve_path_with`] performs
/// zero heap allocations. Results are bit-identical to the allocating entry points: a
/// remapped macro is indistinguishable from a freshly built one.
#[derive(Debug, Clone, Default)]
pub struct MacroScratch {
    /// `macros[n]` is the warm macro for `n`-city sub-problems.
    macros: Vec<Option<IsingMacro>>,
    /// Configuration the warm macros and thresholds were built for; a config change
    /// flushes the pool and rebuilds the thresholds.
    config: Option<MacroSolverConfig>,
    /// `thresholds[t]` is the switching threshold of schedule step `t`. A schedule that
    /// leaves the stochastic window ends the table at its first such step, whose error
    /// `pulse_error` holds; a solve returns that error when it reaches the step.
    thresholds: Vec<SwitchThreshold>,
    pulse_error: Option<DeviceError>,
    initial: Vec<usize>,
    best: Vec<usize>,
    visited: Vec<bool>,
}

impl MacroScratch {
    /// Creates an empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of warm macros currently pooled (one per distinct sub-problem size seen).
    pub fn warm_macros(&self) -> usize {
        self.macros.iter().filter(|m| m.is_some()).count()
    }

    /// Ensures the pooled macro for `n` cities is built and programmed for `distances`,
    /// flushing the pool and rebuilding the threshold table first if the solver
    /// configuration changed.
    fn prepare_macro(
        &mut self,
        config: &MacroSolverConfig,
        distances: &DistanceMatrix,
    ) -> Result<(), IsingError> {
        if self.config.as_ref() != Some(config) {
            self.macros.clear();
            self.build_thresholds(config);
            self.config = Some(config.clone());
        }
        let n = distances.n();
        if self.macros.len() <= n {
            self.macros.resize_with(n + 1, || None);
        }
        match &mut self.macros[n] {
            Some(macro_) => macro_.remap(distances)?,
            slot => *slot = Some(IsingMacro::new(distances, config.macro_config().clone())?),
        }
        Ok(())
    }

    /// Derives the threshold of every schedule step from the configured device.
    fn build_thresholds(&mut self, config: &MacroSolverConfig) {
        let params = config.macro_config().device_params();
        let schedule = config.schedule();
        self.thresholds.clear();
        self.pulse_error = None;
        for t in 0..schedule.len() {
            match SwitchThreshold::for_pulse(params, schedule.current_at(t)) {
                Ok(threshold) => self.thresholds.push(threshold),
                Err(err) => {
                    self.pulse_error = Some(err);
                    break;
                }
            }
        }
    }
}

/// TSP sub-solver built on a crossbar Ising macro.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroTspSolver {
    config: MacroSolverConfig,
}

impl MacroTspSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: MacroSolverConfig) -> Self {
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &MacroSolverConfig {
        &self.config
    }

    /// Solves a closed (cyclic) TSP over the sub-problem described by `distances`.
    ///
    /// # Errors
    ///
    /// Returns an error if the distance matrix is malformed or exceeds the macro
    /// capacity.
    pub fn solve_cycle(
        &self,
        distances: &DistanceMatrix,
        seed: u64,
    ) -> Result<SubTourSolution, IsingError> {
        let mut scratch = MacroScratch::new();
        let mut order = Vec::new();
        let stats = self.solve_cycle_with(distances, seed, &mut scratch, &mut order)?;
        Ok(SubTourSolution {
            order,
            length: stats.length,
            iterations: stats.iterations,
            op_counts: stats.op_counts,
        })
    }

    /// Like [`solve_cycle`](Self::solve_cycle), but reuses a caller-provided
    /// [`MacroScratch`] and writes the visiting order into `out` (cleared first). After
    /// one warm-up solve per sub-problem size the solve performs zero heap allocations;
    /// results are identical to [`solve_cycle`](Self::solve_cycle) for the same seed.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve_cycle`](Self::solve_cycle).
    pub fn solve_cycle_with(
        &self,
        distances: &DistanceMatrix,
        seed: u64,
        scratch: &mut MacroScratch,
        out: &mut Vec<usize>,
    ) -> Result<SubTourStats, IsingError> {
        let n = validate_matrix(distances)?;
        out.clear();
        if n <= 3 {
            out.extend(0..n);
            return Ok(SubTourStats {
                length: cycle_length(distances, out),
                iterations: 0,
                op_counts: MacroOpCounts::default(),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        scratch.prepare_macro(&self.config, distances)?;
        let MacroScratch {
            macros,
            thresholds,
            pulse_error,
            initial,
            best,
            visited,
            ..
        } = scratch;
        let macro_ = macros[n].as_mut().expect("macro was just prepared");
        nearest_neighbor_order_into(distances, 0, visited, initial);
        macro_.initialize_order(initial)?;

        best.clear();
        best.extend_from_slice(initial);
        let mut best_length = cycle_length(distances, best);
        for (t, &threshold) in thresholds.iter().enumerate() {
            let order = t % n;
            macro_.optimize_order_at(order, threshold, &[], &mut rng)?;
            if self.config.elitist && (t + 1) % n == 0 {
                let current = elitist_snapshot(macro_);
                let length = cycle_length(distances, current);
                if length < best_length {
                    best_length = length;
                    best.clear();
                    best.extend_from_slice(current);
                }
            }
        }
        if let Some(err) = pulse_error {
            return Err(XbarError::Device(err.clone()).into());
        }
        macro_.read_solution_into(out)?;
        let final_length = cycle_length(distances, out);
        let length = if self.config.elitist && best_length < final_length {
            out.clear();
            out.extend_from_slice(best);
            best_length
        } else {
            final_length
        };
        Ok(SubTourStats {
            length,
            iterations: thresholds.len() as u64,
            op_counts: macro_.op_counts(),
        })
    }

    /// Like [`solve_cycle`](Self::solve_cycle), but additionally records an
    /// [`AnnealingTrace`](crate::AnnealingTrace) with one sample per sweep over the
    /// visiting orders (tour length, write current, stochasticity).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve_cycle`](Self::solve_cycle).
    pub fn solve_cycle_traced(
        &self,
        distances: &DistanceMatrix,
        seed: u64,
    ) -> Result<(SubTourSolution, crate::AnnealingTrace), IsingError> {
        let n = validate_matrix(distances)?;
        let mut trace = crate::AnnealingTrace::new();
        if n <= 3 {
            return Ok((self.solve_cycle(distances, seed)?, trace));
        }
        let curve = self.config.macro_config.device_params().switching_curve;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut macro_ = IsingMacro::new(distances, self.config.macro_config.clone())?;
        let initial = nearest_neighbor_order(distances, 0);
        macro_.initialize_order(&initial)?;
        let schedule = self.config.schedule;
        let total = schedule.len();
        let mut best_order = initial.clone();
        let mut best_length = cycle_length(distances, &best_order);
        trace.record(0, schedule.current_at(0), &curve, best_length);
        for t in 0..total {
            let order = t % n;
            let i_write = schedule.current_at(t);
            macro_.optimize_order(order, i_write, &mut rng)?;
            if (t + 1) % n == 0 {
                let snapshot = macro_.read_solution()?;
                let length = cycle_length(distances, &snapshot);
                trace.record(t, i_write, &curve, length);
                if self.config.elitist && length < best_length {
                    best_length = length;
                    best_order = snapshot;
                }
            }
        }
        let final_order = macro_.read_solution()?;
        let final_length = cycle_length(distances, &final_order);
        let (order, length) = if self.config.elitist && best_length < final_length {
            (best_order, best_length)
        } else {
            (final_order, final_length)
        };
        Ok((
            SubTourSolution {
                order,
                length,
                iterations: total as u64,
                op_counts: macro_.op_counts(),
            },
            trace,
        ))
    }

    /// Solves an open-path TSP whose first city is `start` and last city is `end`
    /// (sub-problem endpoint fixing of Section IV-2).
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is malformed, `start == end` while the sub-problem
    /// has more than one city, or either endpoint is out of range.
    pub fn solve_path(
        &self,
        distances: &DistanceMatrix,
        start: usize,
        end: usize,
        seed: u64,
    ) -> Result<SubTourSolution, IsingError> {
        let mut scratch = MacroScratch::new();
        let mut order = Vec::new();
        let stats = self.solve_path_with(distances, start, end, seed, &mut scratch, &mut order)?;
        Ok(SubTourSolution {
            order,
            length: stats.length,
            iterations: stats.iterations,
            op_counts: stats.op_counts,
        })
    }

    /// Like [`solve_path`](Self::solve_path), but reuses a caller-provided
    /// [`MacroScratch`] and writes the visiting order into `out` (cleared first). After
    /// one warm-up solve per sub-problem size the solve performs zero heap allocations;
    /// results are identical to [`solve_path`](Self::solve_path) for the same seed.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`solve_path`](Self::solve_path).
    pub fn solve_path_with(
        &self,
        distances: &DistanceMatrix,
        start: usize,
        end: usize,
        seed: u64,
        scratch: &mut MacroScratch,
        out: &mut Vec<usize>,
    ) -> Result<SubTourStats, IsingError> {
        let n = validate_matrix(distances)?;
        if start >= n || end >= n {
            return Err(IsingError::InvalidEndpoints {
                reason: format!("endpoints ({start}, {end}) out of range for {n} cities"),
            });
        }
        if n > 1 && start == end {
            return Err(IsingError::InvalidEndpoints {
                reason: "start and end city must differ for sub-problems with more than one city"
                    .to_string(),
            });
        }
        out.clear();
        if n <= 3 {
            out.push(start);
            for c in 0..n {
                if c != start && c != end {
                    out.push(c);
                }
            }
            if n > 1 {
                out.push(end);
            }
            return Ok(SubTourStats {
                length: path_length(distances, out),
                iterations: 0,
                op_counts: MacroOpCounts::default(),
            });
        }

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        scratch.prepare_macro(&self.config, distances)?;
        let MacroScratch {
            macros,
            thresholds,
            pulse_error,
            initial,
            best,
            visited,
            ..
        } = scratch;
        let macro_ = macros[n].as_mut().expect("macro was just prepared");
        nearest_neighbor_path_order_into(distances, start, end, visited, initial);
        macro_.initialize_order(initial)?;

        let frozen = [start, end];
        let interior = n - 2;
        best.clear();
        best.extend_from_slice(initial);
        let mut best_length = path_length(distances, best);
        for (t, &threshold) in thresholds.iter().enumerate() {
            // Cycle over the interior orders 1..n-1; endpoints stay pinned.
            let order = 1 + (t % interior);
            macro_.optimize_order_at(order, threshold, &frozen, &mut rng)?;
            if self.config.elitist && (t + 1) % interior == 0 {
                let current = elitist_snapshot(macro_);
                let length = path_length(distances, current);
                if length < best_length {
                    best_length = length;
                    best.clear();
                    best.extend_from_slice(current);
                }
            }
        }
        if let Some(err) = pulse_error {
            return Err(XbarError::Device(err.clone()).into());
        }
        macro_.read_solution_into(out)?;
        let final_length = path_length(distances, out);
        let length = if self.config.elitist && best_length < final_length {
            out.clear();
            out.extend_from_slice(best);
            best_length
        } else {
            final_length
        };
        debug_assert_eq!(out[0], start, "start endpoint must remain pinned");
        debug_assert_eq!(out[n - 1], end, "end endpoint must remain pinned");
        Ok(SubTourStats {
            length,
            iterations: thresholds.len() as u64,
            op_counts: macro_.op_counts(),
        })
    }
}

impl Default for MacroTspSolver {
    fn default() -> Self {
        Self::new(MacroSolverConfig::default())
    }
}

/// Length of a closed tour under `distances`.
pub fn cycle_length(distances: &DistanceMatrix, order: &[usize]) -> f64 {
    let n = order.len();
    if n < 2 {
        return 0.0;
    }
    (0..n)
        .map(|i| distances.get(order[i], order[(i + 1) % n]))
        .sum()
}

/// Length of an open path under `distances`.
pub fn path_length(distances: &DistanceMatrix, order: &[usize]) -> f64 {
    order
        .windows(2)
        .map(|pair| distances.get(pair[0], pair[1]))
        .sum()
}

/// Nearest-neighbour visiting order starting from `start` (closed-tour initialisation).
pub fn nearest_neighbor_order(distances: &DistanceMatrix, start: usize) -> Vec<usize> {
    let mut visited = Vec::new();
    let mut order = Vec::with_capacity(distances.n());
    nearest_neighbor_order_into(distances, start, &mut visited, &mut order);
    order
}

/// Buffer-reusing form of [`nearest_neighbor_order`]: `visited` and `out` are cleared
/// and refilled, so repeated initialisations allocate nothing once warm.
pub fn nearest_neighbor_order_into(
    distances: &DistanceMatrix,
    start: usize,
    visited: &mut Vec<bool>,
    out: &mut Vec<usize>,
) {
    let n = distances.n();
    visited.clear();
    visited.resize(n, false);
    out.clear();
    let mut current = start;
    visited[current] = true;
    out.push(current);
    for _ in 1..n {
        let row = distances.row(current);
        let next = (0..n)
            .filter(|&c| !visited[c])
            .min_by(|&a, &b| row[a].total_cmp(&row[b]))
            .expect("an unvisited city must remain");
        visited[next] = true;
        out.push(next);
        current = next;
    }
}

/// Nearest-neighbour path order from `start`, forced to terminate at `end`.
pub fn nearest_neighbor_path_order(
    distances: &DistanceMatrix,
    start: usize,
    end: usize,
) -> Vec<usize> {
    let mut visited = Vec::new();
    let mut order = Vec::with_capacity(distances.n());
    nearest_neighbor_path_order_into(distances, start, end, &mut visited, &mut order);
    order
}

/// Buffer-reusing form of [`nearest_neighbor_path_order`].
pub fn nearest_neighbor_path_order_into(
    distances: &DistanceMatrix,
    start: usize,
    end: usize,
    visited: &mut Vec<bool>,
    out: &mut Vec<usize>,
) {
    let n = distances.n();
    visited.clear();
    visited.resize(n, false);
    out.clear();
    visited[start] = true;
    visited[end] = true;
    out.push(start);
    let mut current = start;
    for _ in 0..n.saturating_sub(2) {
        let row = distances.row(current);
        let next = (0..n)
            .filter(|&c| !visited[c])
            .min_by(|&a, &b| row[a].total_cmp(&row[b]))
            .expect("an unvisited interior city must remain");
        visited[next] = true;
        out.push(next);
        current = next;
    }
    if n > 1 {
        out.push(end);
    }
}

/// The visiting order after a sweep, for the elitist comparison: the macro's host-side
/// shadow of the spin storage, which equals a readout of the array but costs no O(n²)
/// scan. The final solution is still read from the array, so corrupt spin storage
/// still surfaces as an error there.
fn elitist_snapshot(macro_: &IsingMacro) -> &[usize] {
    macro_
        .shadow_assignment()
        .expect("an optimisation step leaves the shadow assignment set")
}

fn validate_matrix(distances: &DistanceMatrix) -> Result<usize, IsingError> {
    let n = distances.n();
    if n == 0 {
        return Err(IsingError::InvalidProblem {
            reason: "distance matrix is empty".to_string(),
        });
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on a circle: the optimal cycle visits them in angular order.
    fn circle_distances(n: usize) -> (DistanceMatrix, f64) {
        let points: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let angle = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                (angle.cos(), angle.sin())
            })
            .collect();
        let d = DistanceMatrix::from_fn(n, |i, j| {
            let (x1, y1) = points[i];
            let (x2, y2) = points[j];
            ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
        });
        let optimal = cycle_length(&d, &(0..n).collect::<Vec<_>>());
        (d, optimal)
    }

    fn is_permutation(order: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        if order.len() != n {
            return false;
        }
        for &c in order {
            if c >= n || seen[c] {
                return false;
            }
            seen[c] = true;
        }
        true
    }

    #[test]
    fn solve_cycle_returns_valid_permutation() {
        let (d, _) = circle_distances(10);
        let solver = MacroTspSolver::default();
        let sol = solver.solve_cycle(&d, 1).unwrap();
        assert!(is_permutation(&sol.order, 10));
        assert!(sol.length > 0.0);
        assert_eq!(sol.iterations, CurrentSchedule::software().len() as u64);
    }

    #[test]
    fn solve_cycle_is_near_optimal_on_circle() {
        let (d, optimal) = circle_distances(10);
        let solver = MacroTspSolver::default();
        let sol = solver.solve_cycle(&d, 7).unwrap();
        assert!(
            sol.length <= optimal * 1.25,
            "macro solution {:.3} should be within 25% of optimum {:.3}",
            sol.length,
            optimal
        );
    }

    #[test]
    fn solve_cycle_handles_tiny_instances_without_hardware() {
        let d = DistanceMatrix::from_rows(&[
            vec![0.0, 1.0, 2.0],
            vec![1.0, 0.0, 1.5],
            vec![2.0, 1.5, 0.0],
        ])
        .unwrap();
        let solver = MacroTspSolver::default();
        let sol = solver.solve_cycle(&d, 0).unwrap();
        assert_eq!(sol.order, vec![0, 1, 2]);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn solve_path_pins_endpoints() {
        let (d, _) = circle_distances(9);
        let solver = MacroTspSolver::default();
        let sol = solver.solve_path(&d, 2, 6, 3).unwrap();
        assert!(is_permutation(&sol.order, 9));
        assert_eq!(sol.order[0], 2);
        assert_eq!(*sol.order.last().unwrap(), 6);
    }

    #[test]
    fn solve_path_rejects_bad_endpoints() {
        let (d, _) = circle_distances(6);
        let solver = MacroTspSolver::default();
        assert!(solver.solve_path(&d, 0, 9, 1).is_err());
        assert!(solver.solve_path(&d, 3, 3, 1).is_err());
    }

    #[test]
    fn solve_path_beats_or_matches_naive_order() {
        // Points on a line with the endpoints fixed to the extremes: the optimal path is
        // the sorted sweep, and the solver should get close to it.
        let n = 8;
        let d = DistanceMatrix::from_fn(n, |i, j| (i as f64 - j as f64).abs());
        let solver = MacroTspSolver::default();
        let sol = solver.solve_path(&d, 0, n - 1, 5).unwrap();
        let optimal = (n - 1) as f64;
        assert!(
            sol.length <= optimal * 1.6,
            "path length {} vs optimal {optimal}",
            sol.length
        );
    }

    #[test]
    fn empty_matrices_are_rejected() {
        let solver = MacroTspSolver::default();
        assert!(solver.solve_cycle(&DistanceMatrix::default(), 0).is_err());
    }

    #[test]
    fn nearest_neighbor_order_is_permutation() {
        let (d, _) = circle_distances(12);
        let order = nearest_neighbor_order(&d, 4);
        assert!(is_permutation(&order, 12));
        assert_eq!(order[0], 4);
    }

    #[test]
    fn nearest_neighbor_path_respects_endpoints() {
        let (d, _) = circle_distances(7);
        let order = nearest_neighbor_path_order(&d, 1, 5);
        assert!(is_permutation(&order, 7));
        assert_eq!(order[0], 1);
        assert_eq!(*order.last().unwrap(), 5);
    }

    #[test]
    fn lengths_helpers_match_manual_sums() {
        let d = DistanceMatrix::from_rows(&[
            vec![0.0, 1.0, 4.0],
            vec![1.0, 0.0, 2.0],
            vec![4.0, 2.0, 0.0],
        ])
        .unwrap();
        assert!((cycle_length(&d, &[0, 1, 2]) - 7.0).abs() < 1e-12);
        assert!((path_length(&d, &[0, 1, 2]) - 3.0).abs() < 1e-12);
        assert_eq!(cycle_length(&d, &[0]), 0.0);
    }

    /// Reusing one scratch across many solves must give bit-identical results to fresh
    /// solves: the warm macro pool is behaviourally transparent.
    #[test]
    fn scratch_reuse_matches_fresh_solves() {
        let solver = MacroTspSolver::default();
        let mut scratch = MacroScratch::new();
        let mut out = Vec::new();
        for round in 0..3u64 {
            for n in [5usize, 8, 10] {
                let (d, _) = circle_distances(n);
                let seed = round * 31 + n as u64;
                let fresh = solver.solve_cycle(&d, seed).unwrap();
                let stats = solver
                    .solve_cycle_with(&d, seed, &mut scratch, &mut out)
                    .unwrap();
                assert_eq!(out, fresh.order, "cycle n={n} round={round}");
                assert_eq!(stats.length, fresh.length);
                assert_eq!(stats.op_counts, fresh.op_counts);

                let fresh = solver.solve_path(&d, 0, n - 1, seed).unwrap();
                let stats = solver
                    .solve_path_with(&d, 0, n - 1, seed, &mut scratch, &mut out)
                    .unwrap();
                assert_eq!(out, fresh.order, "path n={n} round={round}");
                assert_eq!(stats.length, fresh.length);
            }
        }
        // One warm macro per distinct size.
        assert_eq!(scratch.warm_macros(), 3);
    }

    /// Changing the solver configuration between solves flushes the warm pool and
    /// rebuilds the threshold table instead of silently reusing macros or thresholds
    /// built for a different precision, schedule or switching curve.
    #[test]
    fn scratch_flushes_on_config_change() {
        use taxi_device::{DeviceParams, SwitchingCurve, WriteCurrent};
        let steeper = DeviceParams {
            switching_curve: SwitchingCurve::new(
                WriteCurrent::from_micro_amps(400.0),
                WriteCurrent::from_micro_amps(4.0),
            ),
            ..DeviceParams::default()
        };
        // Non-elitist, so the returned tour is the final spin storage, which the last
        // masks decide.
        let default = MacroSolverConfig::default().with_elitist(false);
        // Another precision, schedule and switching curve.
        let other = MacroSolverConfig::new(
            MacroConfig::new(2)
                .with_capacity(64)
                .with_device_params(steeper.clone()),
        )
        .with_schedule(CurrentSchedule::fast())
        .with_elitist(false);
        // Only the switching curve differs from the default.
        let curve_only = default
            .clone()
            .with_macro_config(default.macro_config().clone().with_device_params(steeper));
        let d = DistanceMatrix::from_fn(10, |i, j| {
            let point = |k: usize| ((k * 7 % 10) as f64, (k * k % 11) as f64);
            let ((x1, y1), (x2, y2)) = (point(i), point(j));
            (x1 - x2).hypot(y1 - y2)
        });
        // The curve alone changes the tour, so a stale table would show.
        let tour = |config: &MacroSolverConfig| {
            MacroTspSolver::new(config.clone())
                .solve_cycle(&d, 1)
                .unwrap()
                .order
        };
        assert_ne!(tour(&default), tour(&curve_only));
        let mut scratch = MacroScratch::new();
        let mut out = Vec::new();
        for config in [default.clone(), curve_only, other, default] {
            let solver = MacroTspSolver::new(config);
            let fresh = solver.solve_cycle(&d, 1).unwrap();
            let stats = solver
                .solve_cycle_with(&d, 1, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, fresh.order);
            assert_eq!(stats.length, fresh.length);
            assert_eq!(stats.iterations, fresh.iterations);
            assert_eq!(stats.op_counts, fresh.op_counts);
            let fresh = solver.solve_path(&d, 0, 9, 2).unwrap();
            let stats = solver
                .solve_path_with(&d, 0, 9, 2, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, fresh.order);
            assert_eq!(stats.length, fresh.length);
            assert_eq!(stats.op_counts, fresh.op_counts);
            // The threshold table and the per-step current path agree.
            let (traced, _) = solver.solve_cycle_traced(&d, 1).unwrap();
            assert_eq!(traced.order, solver.solve_cycle(&d, 1).unwrap().order);
        }
    }

    /// A schedule that leaves the stochastic window fails with the window error of its
    /// first out-of-window step, on the threshold-table path exactly as on the
    /// per-step current path, and a later in-window config still solves.
    #[test]
    fn out_of_window_schedule_fails_at_its_first_bad_step() {
        use taxi_device::{DeviceParams, WriteCurrent};
        let ua = WriteCurrent::from_micro_amps;
        let params = DeviceParams::default();
        let (d, _) = circle_distances(7);
        let mut scratch = MacroScratch::new();
        let mut out = Vec::new();
        // Starts above the deterministic threshold; ends below the window.
        for (schedule, bad_step) in [
            (CurrentSchedule::new(ua(660.0), ua(600.0), ua(1.0)), 0),
            (CurrentSchedule::new(ua(310.0), ua(290.0), ua(1.0)), 11),
        ] {
            let expected = IsingError::Hardware(XbarError::Device(
                params
                    .require_stochastic(schedule.current_at(bad_step))
                    .unwrap_err(),
            ));
            if bad_step > 0 {
                assert!(params
                    .require_stochastic(schedule.current_at(bad_step - 1))
                    .is_ok());
            }
            let solver = MacroTspSolver::new(MacroSolverConfig::default().with_schedule(schedule));
            let cycle = solver.solve_cycle_with(&d, 3, &mut scratch, &mut out);
            assert_eq!(cycle.unwrap_err(), expected);
            let path = solver.solve_path_with(&d, 0, 6, 3, &mut scratch, &mut out);
            assert_eq!(path.unwrap_err(), expected);
            assert_eq!(solver.solve_cycle_traced(&d, 3).unwrap_err(), expected);
        }
        let solver = MacroTspSolver::default();
        let stats = solver
            .solve_cycle_with(&d, 3, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, solver.solve_cycle(&d, 3).unwrap().order);
        assert_eq!(stats.iterations, CurrentSchedule::software().len() as u64);
    }

    #[test]
    fn paper_schedule_runs_more_iterations_than_fast() {
        let (d, _) = circle_distances(6);
        let fast = MacroTspSolver::default().solve_cycle(&d, 2).unwrap();
        let paper_cfg = MacroSolverConfig::default().with_schedule(CurrentSchedule::paper());
        let slow = MacroTspSolver::new(paper_cfg).solve_cycle(&d, 2).unwrap();
        assert!(slow.iterations > fast.iterations);
        assert_eq!(slow.op_counts.order_steps, slow.iterations);
    }
}
