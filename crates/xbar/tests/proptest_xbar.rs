//! Property-based tests of the crossbar quantisation, spin storage and the Ising
//! macro's optimisation step.

use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use taxi_device::{DeviceParams, WriteCurrent};
use taxi_dist::DistanceMatrix;
use taxi_xbar::array::NonIdealityConfig;
use taxi_xbar::{
    ArgMaxCircuit, BitPrecision, CrossbarArray, CurrentComparator, IsingMacro, MacroConfig,
    MacroOpCounts, QuantizedDistances, StochasticMaskCircuit,
};

fn distance_matrix_strategy(max_n: usize) -> impl Strategy<Value = DistanceMatrix> {
    prop::collection::vec((0.1f64..100.0, 0.1f64..100.0), 4..max_n).prop_map(|points| {
        DistanceMatrix::from_fn(points.len(), |i, j| {
            let (x1, y1) = points[i];
            let (x2, y2) = points[j];
            (x1 - x2).hypot(y1 - y2)
        })
    })
}

fn permutation_strategy(n: usize) -> impl Strategy<Value = Vec<usize>> {
    Just((0..n).collect::<Vec<usize>>()).prop_shuffle()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quantised weights always fit the bit precision and keep a zero diagonal.
    #[test]
    fn weights_respect_precision(matrix in distance_matrix_strategy(12), bits in 1u8..6) {
        let precision = BitPrecision::new(bits).unwrap();
        let q = QuantizedDistances::from_distances(&matrix, precision).unwrap();
        for i in 0..matrix.n() {
            prop_assert_eq!(q.weight(i, i), 0);
            for j in 0..matrix.n() {
                prop_assert!(q.weight(i, j) <= precision.max_level());
            }
        }
    }

    /// The shortest positive edge always receives the maximum representable weight.
    #[test]
    fn shortest_edge_saturates(matrix in distance_matrix_strategy(10)) {
        let q = QuantizedDistances::from_distances(&matrix, BitPrecision::FOUR).unwrap();
        let n = matrix.n();
        let mut best = (0usize, 1usize);
        let mut best_d = f64::INFINITY;
        for i in 0..n {
            for j in 0..n {
                if i != j && matrix.get(i, j) > 0.0 && matrix.get(i, j) < best_d {
                    best_d = matrix.get(i, j);
                    best = (i, j);
                }
            }
        }
        prop_assume!(best_d.is_finite());
        prop_assert_eq!(q.weight(best.0, best.1), BitPrecision::FOUR.max_level());
    }

    /// Writing any permutation into the spin storage and reading it back is lossless,
    /// regardless of non-idealities (they only affect analogue reads, not state).
    #[test]
    fn spin_storage_round_trips(matrix in distance_matrix_strategy(10), seed in 0u64..100) {
        let n = matrix.n();
        let q = QuantizedDistances::from_distances(&matrix, BitPrecision::FOUR).unwrap();
        let mut array = CrossbarArray::new(
            n,
            BitPrecision::FOUR,
            DeviceParams::default(),
            NonIdealityConfig::realistic(),
        );
        array.program_weights(&q).unwrap();
        // Derive a permutation from the seed deterministically.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        array.write_assignment(&perm).unwrap();
        prop_assert_eq!(array.read_assignment().unwrap(), perm);
    }

    /// Column currents are monotone in the number of active rows: activating more rows
    /// can only increase every column current.
    #[test]
    fn currents_are_monotone_in_active_rows(matrix in distance_matrix_strategy(9)) {
        let n = matrix.n();
        let q = QuantizedDistances::from_distances(&matrix, BitPrecision::THREE).unwrap();
        let mut array = CrossbarArray::new(
            n,
            BitPrecision::THREE,
            DeviceParams::default(),
            NonIdealityConfig::ideal(),
        );
        array.program_weights(&q).unwrap();
        let one_row: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let all_rows = vec![true; n];
        let few = array.weighted_column_currents(&one_row);
        let many = array.weighted_column_currents(&all_rows);
        for (a, b) in few.iter().zip(&many) {
            prop_assert!(b + 1e-15 >= *a);
        }
    }

    /// The lane-chunked MAC kernel is bit-identical to a scalar re-derivation from the
    /// per-cell effective conductances, for arbitrary sizes (odd tails included),
    /// precisions and activation patterns.
    #[test]
    fn chunked_mac_is_bit_identical_to_scalar_reference(
        matrix in distance_matrix_strategy(14),
        bits in 1u8..5,
        mask in 0u32..4096,
    ) {
        let n = matrix.n();
        let precision = BitPrecision::new(bits).unwrap();
        let q = QuantizedDistances::from_distances(&matrix, precision).unwrap();
        let mut array = CrossbarArray::new(
            n,
            precision,
            DeviceParams::default(),
            NonIdealityConfig::realistic(),
        );
        array.program_weights(&q).unwrap();
        let row_vector: Vec<bool> = (0..n).map(|i| (mask >> (i % 12)) & 1 == 1).collect();

        let mut chunked = vec![0.0f64; n];
        array.weighted_column_currents_uncached_into(&row_vector, &mut chunked);

        // Scalar reference: per-city accumulation in original row order.
        let geometry = array.geometry();
        let v = array.params().read_voltage;
        let mut reference = vec![0.0f64; n];
        for p in 0..bits {
            let significance = f64::from(1u32 << (bits - 1 - p));
            let start = geometry.weight_partition_start(p);
            for (city, slot) in reference.iter_mut().enumerate() {
                let mut i_col = 0.0;
                for (row, &active) in row_vector.iter().enumerate() {
                    if active {
                        i_col += v * array.effective_conductance(row, start + city);
                    }
                }
                *slot += significance * i_col;
            }
        }
        prop_assert_eq!(chunked, reference);
    }

    /// The lane-chunked superposition kernel is bit-identical to a scalar re-derivation
    /// from the per-cell effective conductances.
    #[test]
    fn chunked_superposition_is_bit_identical_to_scalar_reference(
        matrix in distance_matrix_strategy(14),
        seed in 0u64..100,
        active_orders in 1usize..6,
    ) {
        let n = matrix.n();
        let q = QuantizedDistances::from_distances(&matrix, BitPrecision::FOUR).unwrap();
        let mut array = CrossbarArray::new(
            n,
            BitPrecision::FOUR,
            DeviceParams::default(),
            NonIdealityConfig::realistic(),
        );
        array.program_weights(&q).unwrap();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        array.write_assignment(&perm).unwrap();
        let orders: Vec<usize> = (0..active_orders.min(n)).collect();

        let chunked = array.superpose_orders(&orders).unwrap();

        let geometry = array.geometry();
        let v = array.params().read_voltage;
        let mut reference = vec![0.0f64; n];
        for &order in &orders {
            let col = geometry.spin_storage_start() + order;
            for (row, slot) in reference.iter_mut().enumerate() {
                *slot += v * array.effective_conductance(row, col);
            }
        }
        prop_assert_eq!(chunked, reference);
    }

    /// The memoised MAC entry point returns exactly what the kernel computes, for any
    /// sequence of row vectors (repeats included) across weight reprogramming.
    #[test]
    fn memoised_mac_matches_the_kernel(
        matrix in distance_matrix_strategy(13),
        bits in 1u8..5,
        patterns in prop::collection::vec(0u32..8, 1..24),
    ) {
        let n = matrix.n();
        let precision = BitPrecision::new(bits).unwrap();
        let q = QuantizedDistances::from_distances(&matrix, precision).unwrap();
        let relabelled = relabelled(&matrix);
        let q2 = QuantizedDistances::from_distances(&relabelled, precision).unwrap();
        let mut array = CrossbarArray::new(
            n,
            precision,
            DeviceParams::default(),
            NonIdealityConfig::realistic(),
        );
        array.program_weights(&q).unwrap();
        let (mut memo, mut kernel) = (vec![0.0f64; n], vec![0.0f64; n]);
        for (step, &pattern) in patterns.iter().enumerate() {
            if step == patterns.len() / 2 {
                array.program_weights(&q2).unwrap();
            }
            // Few distinct patterns, so consecutive repeats (memo hits) are common.
            let row_vector: Vec<bool> = (0..n).map(|i| pattern == 0 || (i as u32) % 8 < pattern).collect();
            let reads = array.read_ops();
            array.weighted_column_currents_into(&row_vector, &mut memo);
            prop_assert_eq!(array.read_ops(), reads + 1);
            array.weighted_column_currents_uncached_into(&row_vector, &mut kernel);
            prop_assert_eq!(&memo, &kernel);
        }
    }

    /// Every `optimize_order_constrained` step equals the step it replaced, rebuilt
    /// here from the public kernels: same winner, same spin storage, same RNG draws,
    /// same operation and write counts, same cell conductances. The shadow assignment
    /// equals the spin storage after every step, and a remapped macro picks the same
    /// winners as a freshly built one.
    #[test]
    fn macro_step_matches_the_unoptimised_reference(
        matrix in distance_matrix_strategy(13),
        bits in 1u8..5,
        seed in 0u64..u64::MAX,
        currents in prop::collection::vec(300.0f64..649.9, 1..40),
        forbidden_bits in 0u32..4096,
        ideal in 0u8..2,
    ) {
        let n = matrix.n();
        let ideal = ideal == 1;
        let mut config = MacroConfig::new(bits);
        if ideal {
            config = config.with_ideal_devices();
        }
        let forbidden: Vec<usize> = (0..n).filter(|&c| (forbidden_bits >> c) & 1 == 1).collect();
        let initial: Vec<usize> = (0..n).rev().collect();

        let mut macro_ = IsingMacro::new(&matrix, config.clone()).unwrap();
        let mut reference = ReferenceMacro::new(&matrix, &config, ideal);
        macro_.initialize_order(&initial).unwrap();
        reference.array.write_assignment(&initial).unwrap();
        prop_assert_eq!(macro_.array().write_ops(), reference.array.write_ops());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ref_rng = rng.clone();
        let steps = 3 * n;
        for step in 0..steps {
            let order = step % n;
            let i_write = WriteCurrent::from_micro_amps(currents[step % currents.len()]);
            let writes = macro_.array().write_ops();
            let winner = macro_
                .optimize_order_constrained(order, i_write, &forbidden, &mut rng)
                .unwrap();
            let (expected, swapped) = reference.step(order, i_write, &forbidden, &mut ref_rng);
            prop_assert_eq!(winner, expected, "step {}", step);
            let solution = macro_.read_solution().unwrap();
            prop_assert_eq!(macro_.shadow_assignment(), Some(solution.as_slice()));
            prop_assert_eq!(&solution, &reference.array.read_assignment().unwrap());
            let swap_writes = if swapped { 2 * (n as u64 + 1) } else { 0 };
            prop_assert_eq!(macro_.array().write_ops(), writes + swap_writes);
            prop_assert_eq!(macro_.array().write_ops(), reference.array.write_ops());
            prop_assert_eq!(macro_.array().read_ops(), reference.array.read_ops());
            let k = step as u64 + 1;
            prop_assert_eq!(
                macro_.op_counts(),
                MacroOpCounts { superpose_ops: k, optimize_ops: k, update_ops: k, order_steps: k }
            );
        }
        prop_assert_eq!(rng.clone().next_u64(), ref_rng.clone().next_u64());
        for row in 0..n {
            for col in 0..macro_.array().num_columns() {
                prop_assert_eq!(
                    macro_.array().effective_conductance(row, col).to_bits(),
                    reference.array.effective_conductance(row, col).to_bits()
                );
            }
        }

        // Remap onto a relabelled geometry: the first latch matches the last one the
        // old weights saw, so a stale MAC memo would show here.
        let remapped = relabelled(&matrix);
        macro_.remap(&remapped).unwrap();
        let mut fresh = IsingMacro::new(&remapped, config).unwrap();
        macro_.initialize_order(&initial).unwrap();
        fresh.initialize_order(&initial).unwrap();
        let mut rng_a = ChaCha8Rng::seed_from_u64(seed ^ 1);
        let mut rng_b = rng_a.clone();
        for step in 0..steps {
            let i_write = WriteCurrent::from_micro_amps(currents[step % currents.len()]);
            let a = macro_.optimize_order_constrained(step % n, i_write, &forbidden, &mut rng_a).unwrap();
            let b = fresh.optimize_order_constrained(step % n, i_write, &forbidden, &mut rng_b).unwrap();
            prop_assert_eq!(a, b, "step {} diverged after remap", step);
        }
        prop_assert_eq!(macro_.read_solution().unwrap(), fresh.read_solution().unwrap());
        prop_assert_eq!(macro_.op_counts(), fresh.op_counts());
    }

    /// Permutations survive the permutation strategy itself (sanity of the helper).
    #[test]
    fn permutation_strategy_is_valid(perm in permutation_strategy(8)) {
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }
}

/// The same geometry with every city index shifted by one: a valid distance matrix
/// whose quantised weights differ from the original's.
fn relabelled(matrix: &DistanceMatrix) -> DistanceMatrix {
    let n = matrix.n();
    DistanceMatrix::from_fn(n, |i, j| matrix.get((i + 1) % n, (j + 1) % n))
}

/// The optimisation step as it was before the shadow assignment and the MAC memo:
/// read the assignment back from the spin storage, run the MAC kernel, search the
/// winner's old order, then reset and rewrite both touched columns.
struct ReferenceMacro {
    array: CrossbarArray,
    comparator: CurrentComparator,
    mask: StochasticMaskCircuit,
    argmax: ArgMaxCircuit,
}

impl ReferenceMacro {
    fn new(matrix: &DistanceMatrix, config: &MacroConfig, ideal: bool) -> Self {
        let n = matrix.n();
        let params = config.device_params().clone();
        let q = QuantizedDistances::from_distances(matrix, config.precision()).unwrap();
        let mut array =
            CrossbarArray::new(n, config.precision(), params.clone(), config.non_ideality());
        array.program_weights(&q).unwrap();
        Self {
            array,
            comparator: CurrentComparator::for_device(&params),
            mask: StochasticMaskCircuit::new(params, n).unwrap(),
            argmax: ArgMaxCircuit::new(if ideal { 0.0 } else { 1e-3 }),
        }
    }

    /// Returns the winner and whether the step swapped two cities.
    fn step(
        &mut self,
        order: usize,
        i_write: WriteCurrent,
        forbidden: &[usize],
        rng: &mut ChaCha8Rng,
    ) -> (usize, bool) {
        let n = self.array.num_rows();
        let assignment = self.array.read_assignment().unwrap();
        let (prev, next) = ((order + n - 1) % n, (order + 1) % n);
        let rows = self.array.superpose_orders(&[prev, next]).unwrap();
        let latched = self.comparator.compare(&rows);
        let mut city = vec![0.0; n];
        self.array
            .weighted_column_currents_uncached_into(&latched, &mut city);
        city[assignment[prev]] = 0.0;
        city[assignment[next]] = 0.0;
        for &c in forbidden {
            city[c] = 0.0;
        }
        let gated = self.mask.gate(&city, i_write, rng).unwrap();
        let winner = self
            .argmax
            .winner(&gated, rng)
            .or_else(|| self.argmax.winner(&city, rng))
            .unwrap_or(assignment[order]);
        let incumbent = assignment[order];
        if winner == incumbent {
            return (winner, false);
        }
        let old = assignment.iter().position(|&c| c == winner).unwrap();
        self.array.reset_order_column(order).unwrap();
        self.array.write_spin(winner, order, true).unwrap();
        self.array.reset_order_column(old).unwrap();
        self.array.write_spin(incumbent, old, true).unwrap();
        (winner, true)
    }
}
