//! The Ising macro: crossbar array + peripherals operating as an autonomous TSP sub-solver.

use rand::Rng;

use taxi_device::{DeviceParams, SwitchThreshold, WriteCurrent};
use taxi_dist::DistanceMatrix;

use crate::array::NonIdealityConfig;
use crate::{
    ArgMaxCircuit, BitPrecision, CrossbarArray, CurrentComparator, DLatch, QuantizedDistances,
    StochasticMaskCircuit, XbarError,
};

/// Configuration of one Ising macro.
///
/// # Example
///
/// ```
/// use taxi_xbar::MacroConfig;
///
/// let config = MacroConfig::new(4).with_capacity(12).with_ideal_devices();
/// assert_eq!(config.capacity(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MacroConfig {
    precision: BitPrecision,
    capacity: usize,
    device_params: DeviceParams,
    non_ideality: NonIdealityConfig,
    argmax_resolution: f64,
}

impl MacroConfig {
    /// Creates a configuration at the given weight bit precision with the paper's default
    /// capacity (12 cities) and realistic non-idealities.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8`.
    pub fn new(bits: u8) -> Self {
        Self {
            precision: BitPrecision::new(bits).expect("bit precision must be within 1..=8"),
            capacity: 12,
            device_params: DeviceParams::default(),
            non_ideality: NonIdealityConfig::realistic(),
            argmax_resolution: 1e-3,
        }
    }

    /// Sets the maximum sub-problem size this macro accepts.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Uses ideal devices (no wire resistance, no conductance variation, ideal ArgMax).
    pub fn with_ideal_devices(mut self) -> Self {
        self.non_ideality = NonIdealityConfig::ideal();
        self.argmax_resolution = 0.0;
        self
    }

    /// Overrides the device parameters.
    pub fn with_device_params(mut self, params: DeviceParams) -> Self {
        self.device_params = params;
        self
    }

    /// Overrides the non-ideality configuration.
    pub fn with_non_ideality(mut self, non_ideality: NonIdealityConfig) -> Self {
        self.non_ideality = non_ideality;
        self
    }

    /// Overrides the relative ArgMax resolution.
    pub fn with_argmax_resolution(mut self, resolution: f64) -> Self {
        self.argmax_resolution = resolution;
        self
    }

    /// Weight bit precision.
    pub fn precision(&self) -> BitPrecision {
        self.precision
    }

    /// Maximum sub-problem size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Device parameters.
    pub fn device_params(&self) -> &DeviceParams {
        &self.device_params
    }

    /// Non-ideality configuration.
    pub fn non_ideality(&self) -> NonIdealityConfig {
        self.non_ideality
    }
}

impl Default for MacroConfig {
    fn default() -> Self {
        Self::new(4)
    }
}

/// Operation counters accumulated by an Ising macro, consumed by the architecture
/// simulator for latency/energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MacroOpCounts {
    /// Number of superposition phases executed.
    pub superpose_ops: u64,
    /// Number of distance-MAC (optimize) phases executed.
    pub optimize_ops: u64,
    /// Number of spin-storage update phases executed.
    pub update_ops: u64,
    /// Number of full per-order optimisation steps (one step = one superpose + optimize +
    /// update sequence).
    pub order_steps: u64,
}

impl MacroOpCounts {
    /// Total number of complete iterations, where one iteration is a superpose + optimize
    /// + update sequence as characterised in Table I.
    pub fn iterations(&self) -> u64 {
        self.order_steps
    }
}

/// One crossbar-based Ising macro solving a single TSP sub-problem in place.
///
/// The macro owns the crossbar array (weights + spin storage) and all peripheral
/// circuits. The algorithm layer drives it through
/// [`initialize_order`](Self::initialize_order) and [`optimize_order`](Self::optimize_order)
/// and finally reads the solution back with [`read_solution`](Self::read_solution); no
/// intermediate spin state ever leaves the macro, mirroring the paper's in-macro
/// computing claim.
#[derive(Debug, Clone)]
pub struct IsingMacro {
    config: MacroConfig,
    array: CrossbarArray,
    comparator: CurrentComparator,
    latch: DLatch,
    mask_circuit: StochasticMaskCircuit,
    argmax: ArgMaxCircuit,
    counts: MacroOpCounts,
    /// The quantised weights currently programmed, kept for in-place remapping.
    weights: QuantizedDistances,
    /// Host-side shadow of the spin storage: `assignment[order] = city` and its
    /// inverse `order_of[city] = order`. Set by [`initialize_order`](Self::initialize_order),
    /// updated at every swap, and rebuilt from the array only while `shadow_valid` is
    /// false, so a step needs no O(n²) spin-storage scan. Debug builds check it against
    /// the array after every swap.
    assignment: Vec<usize>,
    order_of: Vec<usize>,
    shadow_valid: bool,
    /// Reusable per-step buffers (row currents, latched binary vector input, per-city
    /// MAC currents, gated currents): one optimisation step performs no heap
    /// allocation.
    row_buf: Vec<f64>,
    binary_buf: Vec<bool>,
    city_buf: Vec<f64>,
    gated_buf: Vec<f64>,
}

impl IsingMacro {
    /// Builds a macro for the given sub-problem distance matrix and programs the weights.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::ProblemTooLarge`] if the matrix exceeds the configured
    /// capacity, or [`XbarError::InvalidDistanceMatrix`] if the matrix is malformed.
    pub fn new(distances: &DistanceMatrix, config: MacroConfig) -> Result<Self, XbarError> {
        let n = distances.n();
        if n > config.capacity {
            return Err(XbarError::ProblemTooLarge {
                cities: n,
                capacity: config.capacity,
            });
        }
        let weights = QuantizedDistances::from_distances(distances, config.precision)?;
        let mut array = CrossbarArray::new(
            n,
            config.precision,
            config.device_params.clone(),
            config.non_ideality,
        );
        array.program_weights(&weights)?;
        let comparator = CurrentComparator::for_device(&config.device_params);
        let latch = DLatch::new(n);
        let mask_circuit = StochasticMaskCircuit::new(config.device_params.clone(), n)?;
        let argmax = ArgMaxCircuit::new(config.argmax_resolution);
        Ok(Self {
            config,
            array,
            comparator,
            latch,
            mask_circuit,
            argmax,
            counts: MacroOpCounts::default(),
            weights,
            assignment: Vec::with_capacity(n),
            order_of: vec![0; n],
            shadow_valid: false,
            row_buf: vec![0.0; n],
            binary_buf: vec![false; n],
            city_buf: vec![0.0; n],
            gated_buf: vec![0.0; n],
        })
    }

    /// Re-maps the macro onto a new sub-problem of the **same size** in place:
    /// re-quantises and re-programs the weight partitions and resets the operation
    /// counters, without reallocating the crossbar or any peripheral circuit.
    ///
    /// This is the tile-mapping reuse primitive behind the zero-realloc solve path:
    /// after one construction per sub-problem size, a worker solves every subsequent
    /// sub-problem of that size through `remap` with zero heap allocations. The spin
    /// storage is left untouched — callers re-initialise it through
    /// [`initialize_order`](Self::initialize_order), exactly as for a fresh macro.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidDistanceMatrix`] if `distances` is malformed or its
    /// size differs from the macro's current number of cities.
    pub fn remap(&mut self, distances: &DistanceMatrix) -> Result<(), XbarError> {
        if distances.n() != self.num_cities() {
            return Err(XbarError::InvalidDistanceMatrix {
                reason: format!(
                    "remap requires a {}-city matrix but got {} cities",
                    self.num_cities(),
                    distances.n()
                ),
            });
        }
        self.weights.requantize(distances)?;
        self.array.program_weights(&self.weights)?;
        self.counts = MacroOpCounts::default();
        Ok(())
    }

    /// Number of cities of the sub-problem mapped onto this macro.
    pub fn num_cities(&self) -> usize {
        self.array.num_rows()
    }

    /// The macro configuration.
    pub fn config(&self) -> &MacroConfig {
        &self.config
    }

    /// Read-only access to the underlying crossbar array.
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// Accumulated operation counts.
    pub fn op_counts(&self) -> MacroOpCounts {
        self.counts
    }

    /// Writes an initial visiting order (`assignment[order] = city`) into the spin
    /// storage.
    ///
    /// # Errors
    ///
    /// Returns an error if `assignment` is not a permutation of the macro's cities.
    pub fn initialize_order(&mut self, assignment: &[usize]) -> Result<(), XbarError> {
        self.shadow_valid = false;
        self.array.write_assignment(assignment)?;
        self.assignment.clear();
        self.assignment.extend_from_slice(assignment);
        self.index_shadow();
        Ok(())
    }

    /// Returns the number of cities if `order` is a valid visiting position.
    fn check_order(&self, order: usize) -> Result<usize, XbarError> {
        let n = self.num_cities();
        if order >= n {
            return Err(XbarError::IndexOutOfRange {
                kind: "order",
                index: order,
                len: n,
            });
        }
        Ok(n)
    }

    /// Makes the shadow assignment current, reading the spin storage only when it
    /// is unset.
    fn ensure_shadow(&mut self) -> Result<(), XbarError> {
        if !self.shadow_valid {
            self.array.read_assignment_into(&mut self.assignment)?;
            self.index_shadow();
        }
        Ok(())
    }

    /// Derives the inverse from the shadow assignment and marks the shadow current.
    fn index_shadow(&mut self) {
        for (order, &city) in self.assignment.iter().enumerate() {
            self.order_of[city] = order;
        }
        self.shadow_valid = true;
    }

    /// Whether the shadow assignment equals the spin storage (debug check).
    fn shadow_matches_array(&self) -> bool {
        let n = self.num_cities();
        (0..n).all(|order| {
            let city = self.assignment[order];
            self.order_of[city] == order
                && (0..n).all(|c| self.array.spin(c, order) == Ok(c == city))
        })
    }

    /// Reads the current visiting order (`result[order] = city`) out of the spin storage.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::CorruptSpinStorage`] if the spin storage does not encode a
    /// valid permutation.
    pub fn read_solution(&self) -> Result<Vec<usize>, XbarError> {
        self.array.read_assignment()
    }

    /// Like [`read_solution`](Self::read_solution), but writes into a caller-provided
    /// buffer (cleared and refilled) instead of allocating.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`read_solution`](Self::read_solution).
    pub fn read_solution_into(&self, out: &mut Vec<usize>) -> Result<(), XbarError> {
        self.array.read_assignment_into(out)
    }

    /// The host-side shadow of the spin storage (`result[order] = city`) that steps
    /// read instead of scanning the array; `None` until the first
    /// [`initialize_order`](Self::initialize_order) or step sets it. It always equals
    /// [`read_solution`](Self::read_solution) once set.
    pub fn shadow_assignment(&self) -> Option<&[usize]> {
        self.shadow_valid.then_some(self.assignment.as_slice())
    }

    /// City currently assigned to `order`.
    ///
    /// # Errors
    ///
    /// Returns an error if the spin storage is corrupt or `order` is out of range.
    pub fn city_at_order(&self, order: usize) -> Result<usize, XbarError> {
        self.check_order(order)?;
        Ok(self.read_solution()?[order])
    }

    /// Executes one full optimisation step for visiting position `order` at write current
    /// `i_write`, following Section III-C1–C5:
    ///
    /// 1. **Superpose** the spin-storage columns of the previous and next orders and
    ///    binarise the row currents into the D-latch.
    /// 2. **Optimize**: feed the latched vector back into the weight partitions and read
    ///    the per-city currents scaled by bit significance (Eq. 5).
    /// 3. Gate the currents with the **stochastic mask** generated at `i_write`.
    /// 4. Pick the winning city with the **ArgMax** WTA circuit.
    /// 5. **Update** the spin storage: the winner moves to `order`; to keep the stored
    ///    state a valid permutation, the displaced city takes the winner's former slot
    ///    (a swap).
    ///
    /// Returns the city now assigned to `order`.
    ///
    /// # Errors
    ///
    /// Returns an error if `order` is out of range, the write current is outside the
    /// stochastic window, or the spin storage is corrupt.
    pub fn optimize_order<R: Rng + ?Sized>(
        &mut self,
        order: usize,
        i_write: WriteCurrent,
        rng: &mut R,
    ) -> Result<usize, XbarError> {
        self.optimize_order_constrained(order, i_write, &[], rng)
    }

    /// Like [`optimize_order`](Self::optimize_order), but additionally suppresses
    /// `forbidden_cities` from the candidate set. The hierarchical solver uses this to
    /// keep the fixed first/last cities of a sub-problem (Section IV-2) pinned to their
    /// endpoints while interior orders are optimised.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`optimize_order`](Self::optimize_order). A rejected
    /// write current is reported before the step touches the array, the counters or
    /// the RNG.
    pub fn optimize_order_constrained<R: Rng + ?Sized>(
        &mut self,
        order: usize,
        i_write: WriteCurrent,
        forbidden_cities: &[usize],
        rng: &mut R,
    ) -> Result<usize, XbarError> {
        // Order and spin storage first, so a call with several faults reports the
        // same error as before the current was checked up front.
        self.check_order(order)?;
        self.ensure_shadow()?;
        let threshold = SwitchThreshold::for_pulse(&self.config.device_params, i_write)?;
        self.optimize_order_at(order, threshold, forbidden_cities, rng)
    }

    /// [`optimize_order_constrained`](Self::optimize_order_constrained) for a pulse whose
    /// threshold was derived once, from this macro's device parameters, by
    /// [`SwitchThreshold::for_pulse`]. An annealing schedule derives its thresholds
    /// once and drives every step through here.
    ///
    /// # Errors
    ///
    /// Returns an error if `order` is out of range or the spin storage is corrupt.
    pub fn optimize_order_at<R: Rng + ?Sized>(
        &mut self,
        order: usize,
        threshold: SwitchThreshold,
        forbidden_cities: &[usize],
        rng: &mut R,
    ) -> Result<usize, XbarError> {
        let n = self.check_order(order)?;
        self.ensure_shadow()?;
        let prev_order = (order + n - 1) % n;
        let next_order = (order + 1) % n;

        // Phase 1: superposition of the neighbouring visiting vectors.
        self.array
            .superpose_orders_into(&[prev_order, next_order], &mut self.row_buf)?;
        self.comparator
            .compare_into(&self.row_buf, &mut self.binary_buf);
        self.latch.store(&self.binary_buf);
        self.counts.superpose_ops += 1;

        // Phase 2: distance MAC through the weight partitions.
        self.array
            .weighted_column_currents_into(self.latch.read(), &mut self.city_buf);
        self.counts.optimize_ops += 1;

        // A city cannot be its own neighbour: suppress the cities already occupying the
        // neighbouring orders so the winner is a genuine intermediate stop.
        self.city_buf[self.assignment[prev_order]] = 0.0;
        if next_order != prev_order {
            self.city_buf[self.assignment[next_order]] = 0.0;
        }
        // Suppress explicitly forbidden cities (e.g. fixed sub-problem endpoints).
        for &city in forbidden_cities {
            if city < n {
                self.city_buf[city] = 0.0;
            }
        }

        // Phase 3: stochastic gating.
        self.mask_circuit
            .gate_at(&self.city_buf, threshold, rng, &mut self.gated_buf);

        // Phase 4: winner-take-all. If the mask suppressed every admissible column fall
        // back to the ungated currents (the circuit's NAND fallback already guarantees a
        // non-empty mask, but the neighbour suppression above can still zero everything
        // for tiny sub-problems).
        let winner = match self.argmax.winner(&self.gated_buf, rng) {
            Some(city) => city,
            None => match self.argmax.winner(&self.city_buf, rng) {
                Some(city) => city,
                None => self.assignment[order],
            },
        };

        // Phase 5: spin-storage update with permutation-preserving swap. Each touched
        // column is reset and rewritten (counted as such), but only the two cells per
        // column whose state changes are actually rewritten.
        let incumbent = self.assignment[order];
        if winner != incumbent {
            let winner_old_order = self.order_of[winner];
            self.array.move_spin(order, incumbent, winner)?;
            self.array.move_spin(winner_old_order, winner, incumbent)?;
            self.assignment[order] = winner;
            self.assignment[winner_old_order] = incumbent;
            self.order_of[winner] = order;
            self.order_of[incumbent] = winner_old_order;
            debug_assert!(
                self.shadow_matches_array(),
                "shadow assignment diverged from the spin storage"
            );
        }
        self.counts.update_ops += 1;
        self.counts.order_steps += 1;
        Ok(winner)
    }

    /// Expected fraction of columns passed by the stochastic mask at `i_write`.
    pub fn expected_mask_pass_fraction(&self, i_write: WriteCurrent) -> f64 {
        self.mask_circuit.expected_pass_fraction(i_write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Four cities on a line: 0 -- 1 -- 2 -- 3. Optimal open path visits them in order.
    fn line_distances() -> DistanceMatrix {
        let coords = [0.0f64, 1.0, 2.0, 3.0];
        DistanceMatrix::from_fn(4, |i, j| (coords[i] - coords[j]).abs())
    }

    fn tour_length(distances: &DistanceMatrix, order: &[usize]) -> f64 {
        let n = order.len();
        (0..n)
            .map(|i| distances.get(order[i], order[(i + 1) % n]))
            .sum()
    }

    #[test]
    fn construction_respects_capacity() {
        let d = line_distances();
        let config = MacroConfig::new(4).with_capacity(3);
        assert!(matches!(
            IsingMacro::new(&d, config),
            Err(XbarError::ProblemTooLarge { .. })
        ));
    }

    #[test]
    fn geometry_matches_problem() {
        let d = line_distances();
        let m = IsingMacro::new(&d, MacroConfig::new(3)).unwrap();
        assert_eq!(m.num_cities(), 4);
        assert_eq!(m.array().num_columns(), 4 * 4);
    }

    #[test]
    fn initialize_and_read_round_trip() {
        let d = line_distances();
        let mut m = IsingMacro::new(&d, MacroConfig::new(4)).unwrap();
        m.initialize_order(&[3, 1, 0, 2]).unwrap();
        assert_eq!(m.read_solution().unwrap(), vec![3, 1, 0, 2]);
        assert_eq!(m.city_at_order(1).unwrap(), 1);
    }

    #[test]
    fn optimize_order_keeps_permutation_valid() {
        let d = line_distances();
        let mut m = IsingMacro::new(&d, MacroConfig::new(4)).unwrap();
        m.initialize_order(&[2, 0, 3, 1]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for step in 0..20 {
            let order = step % 4;
            m.optimize_order(order, WriteCurrent::from_micro_amps(400.0), &mut rng)
                .unwrap();
            let solution = m.read_solution().unwrap();
            let mut sorted = solution.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                vec![0, 1, 2, 3],
                "spin storage must stay a permutation"
            );
        }
    }

    /// Six cities on a line: 0 -- 1 -- ... -- 5. The optimal cycle sweeps up and back
    /// (length 10).
    fn long_line_distances() -> DistanceMatrix {
        DistanceMatrix::from_fn(6, |i, j| (i as f64 - j as f64).abs())
    }

    #[test]
    fn annealing_improves_bad_initial_tour() {
        // The anneal is stochastic: a single unlucky RNG stream can end where it
        // started. Requiring an improvement within a handful of seeds keeps the test
        // meaningful without pinning it to one RNG vendor's exact bit stream.
        let d = long_line_distances();
        let bad = vec![0, 3, 1, 4, 2, 5];
        let start_len = tour_length(&d, &bad);
        let mut best_len = f64::INFINITY;
        for seed in 0..5u64 {
            let config = MacroConfig::new(4).with_ideal_devices();
            let mut m = IsingMacro::new(&d, config).unwrap();
            m.initialize_order(&bad).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Sweep all orders several times while reducing the stochasticity.
            for &ua in &[
                420.0, 410.0, 400.0, 390.0, 380.0, 370.0, 360.0, 355.0, 354.0, 353.5,
            ] {
                for order in 0..6 {
                    m.optimize_order(order, WriteCurrent::from_micro_amps(ua), &mut rng)
                        .unwrap();
                }
            }
            let end = m.read_solution().unwrap();
            // Still a valid permutation.
            let mut sorted = end.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
            best_len = best_len.min(tour_length(&d, &end));
            if best_len < start_len {
                break;
            }
        }
        assert!(
            best_len < start_len,
            "annealing must improve the scrambled line tour: {start_len} -> {best_len}"
        );
    }

    #[test]
    fn op_counts_accumulate() {
        let d = line_distances();
        let mut m = IsingMacro::new(&d, MacroConfig::new(4)).unwrap();
        m.initialize_order(&[0, 1, 2, 3]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for order in 0..4 {
            m.optimize_order(order, WriteCurrent::from_micro_amps(420.0), &mut rng)
                .unwrap();
        }
        let counts = m.op_counts();
        assert_eq!(counts.order_steps, 4);
        assert_eq!(counts.superpose_ops, 4);
        assert_eq!(counts.optimize_ops, 4);
        assert_eq!(counts.update_ops, 4);
        assert_eq!(counts.iterations(), 4);
    }

    #[test]
    fn out_of_range_order_is_rejected() {
        let d = line_distances();
        let mut m = IsingMacro::new(&d, MacroConfig::new(4)).unwrap();
        m.initialize_order(&[0, 1, 2, 3]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(m
            .optimize_order(9, WriteCurrent::from_micro_amps(420.0), &mut rng)
            .is_err());
    }

    /// An out-of-window write current is rejected before the step has any effect: the
    /// op counts, the array's read and write counts, the shadow assignment and the RNG
    /// stay as they were, and the error is the device's window error.
    #[test]
    fn rejected_pulse_leaves_the_macro_untouched() {
        use rand::RngCore;
        let d = long_line_distances();
        let params = DeviceParams::default();
        let mut m = IsingMacro::new(&d, MacroConfig::new(4)).unwrap();
        m.initialize_order(&[0, 3, 1, 4, 2, 5]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for order in 0..6 {
            m.optimize_order(order, WriteCurrent::from_micro_amps(410.0), &mut rng)
                .unwrap();
        }
        for ua in [0.0, 299.9, 650.0, 700.0] {
            let i_write = WriteCurrent::from_micro_amps(ua);
            let counts = m.op_counts();
            let (reads, writes) = (m.array().read_ops(), m.array().write_ops());
            let shadow = m.shadow_assignment().unwrap().to_vec();
            let untouched = rng.clone();
            let err = m
                .optimize_order_constrained(2, i_write, &[0], &mut rng)
                .unwrap_err();
            assert_eq!(
                err,
                XbarError::Device(params.require_stochastic(i_write).unwrap_err())
            );
            assert_eq!(m.op_counts(), counts, "{ua} µA");
            assert_eq!(m.array().read_ops(), reads, "{ua} µA");
            assert_eq!(m.array().write_ops(), writes, "{ua} µA");
            assert_eq!(m.shadow_assignment(), Some(shadow.as_slice()), "{ua} µA");
            assert_eq!(m.read_solution().unwrap(), shadow, "{ua} µA");
            assert_eq!(rng.clone().next_u64(), untouched.clone().next_u64());
        }
        // An out-of-range order still takes precedence over a bad current.
        assert!(matches!(
            m.optimize_order(6, WriteCurrent::from_micro_amps(700.0), &mut rng),
            Err(XbarError::IndexOutOfRange { .. })
        ));
    }

    /// A remapped macro must behave bit-identically to a freshly constructed one: the
    /// conductance variation pattern depends only on the geometry, the weights are fully
    /// re-programmed, and the counters restart from zero.
    #[test]
    fn remap_is_equivalent_to_fresh_construction() {
        let d1 = line_distances();
        let d2 = DistanceMatrix::from_fn(4, |i, j| ((i * i) as f64 - (j * j) as f64).abs());
        let config = MacroConfig::new(4);

        let mut fresh = IsingMacro::new(&d2, config.clone()).unwrap();
        let mut reused = IsingMacro::new(&d1, config).unwrap();
        // Drive the reused macro through some work first so its state is dirty.
        reused.initialize_order(&[3, 2, 1, 0]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for order in 0..4 {
            reused
                .optimize_order(order, WriteCurrent::from_micro_amps(400.0), &mut rng)
                .unwrap();
        }
        reused.remap(&d2).unwrap();
        assert_eq!(reused.op_counts(), MacroOpCounts::default());

        fresh.initialize_order(&[0, 1, 2, 3]).unwrap();
        reused.initialize_order(&[0, 1, 2, 3]).unwrap();
        let mut rng_a = ChaCha8Rng::seed_from_u64(42);
        let mut rng_b = ChaCha8Rng::seed_from_u64(42);
        for step in 0..40 {
            let order = step % 4;
            let a = fresh
                .optimize_order(order, WriteCurrent::from_micro_amps(390.0), &mut rng_a)
                .unwrap();
            let b = reused
                .optimize_order(order, WriteCurrent::from_micro_amps(390.0), &mut rng_b)
                .unwrap();
            assert_eq!(a, b, "step {step} diverged after remap");
        }
        assert_eq!(
            fresh.read_solution().unwrap(),
            reused.read_solution().unwrap()
        );
    }

    #[test]
    fn remap_rejects_size_changes() {
        let d = line_distances();
        let mut m = IsingMacro::new(&d, MacroConfig::new(4)).unwrap();
        let small = DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        assert!(matches!(
            m.remap(&small),
            Err(XbarError::InvalidDistanceMatrix { .. })
        ));
    }

    #[test]
    fn read_solution_into_reuses_buffer() {
        let d = line_distances();
        let mut m = IsingMacro::new(&d, MacroConfig::new(4)).unwrap();
        m.initialize_order(&[1, 0, 3, 2]).unwrap();
        let mut out = Vec::new();
        m.read_solution_into(&mut out).unwrap();
        assert_eq!(out, vec![1, 0, 3, 2]);
        m.initialize_order(&[0, 1, 2, 3]).unwrap();
        m.read_solution_into(&mut out).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mask_pass_fraction_matches_device_curve() {
        let d = line_distances();
        let m = IsingMacro::new(&d, MacroConfig::new(4)).unwrap();
        let f = m.expected_mask_pass_fraction(WriteCurrent::from_micro_amps(420.0));
        assert!((f - 0.2).abs() < 0.01);
    }
}
