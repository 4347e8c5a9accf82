//! The SOT-MRAM crossbar array with bit-sliced weight partitions and spin storage.

use taxi_device::{DeviceParams, MagState};
use taxi_dist::LANES;

use crate::{BitPrecision, QuantizedDistances, XbarError};

/// Geometry of an Ising-macro crossbar.
///
/// For a sub-problem of `N` cities at bit precision `B` the array is `N` rows by
/// `N · (B + 1)` columns: `B` weight partitions of `N` columns each followed by the
/// spin-storage partition whose columns are visiting orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayGeometry {
    /// Number of rows (= number of cities of the sub-problem).
    pub rows: usize,
    /// Weight bit precision.
    pub precision: BitPrecision,
}

impl ArrayGeometry {
    /// Creates a geometry for `rows` cities at the given precision.
    pub fn new(rows: usize, precision: BitPrecision) -> Self {
        Self { rows, precision }
    }

    /// Total number of columns (`rows · (B + 1)`).
    pub fn columns(&self) -> usize {
        self.rows * self.precision.partitions()
    }

    /// Total number of SOT-MRAM cells.
    pub fn cells(&self) -> usize {
        self.rows * self.columns()
    }

    /// Index of the first column of weight partition `p` (0 = most significant bit).
    pub fn weight_partition_start(&self, p: u8) -> usize {
        usize::from(p) * self.rows
    }

    /// Index of the first column of the spin-storage partition.
    pub fn spin_storage_start(&self) -> usize {
        usize::from(self.precision.bits()) * self.rows
    }
}

impl std::fmt::Display for ArrayGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} × {}", self.rows, self.columns())
    }
}

/// Non-ideality configuration for analog reads.
///
/// Wire resistance adds a series term that grows with the cell's Manhattan distance from
/// the drivers (bottom-left corner), attenuating the effective conductance. Storing the
/// most significant bit closest to the left end (as the paper does) therefore minimises
/// the error on the most significant partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonIdealityConfig {
    /// Series wire resistance per crossed cell, in ohms. Zero disables the effect.
    pub wire_resistance_per_cell_ohms: f64,
    /// Relative Gaussian conductance variation (sigma / mean). Zero disables the effect.
    pub conductance_variation: f64,
}

impl NonIdealityConfig {
    /// Ideal array: no wire resistance, no device variation.
    pub fn ideal() -> Self {
        Self {
            wire_resistance_per_cell_ohms: 0.0,
            conductance_variation: 0.0,
        }
    }

    /// Realistic defaults used in the paper reproduction (≈ 1 Ω of wire per cell, 2 %
    /// conductance variation).
    pub fn realistic() -> Self {
        Self {
            wire_resistance_per_cell_ohms: 1.0,
            conductance_variation: 0.02,
        }
    }
}

impl Default for NonIdealityConfig {
    fn default() -> Self {
        Self::realistic()
    }
}

/// Slot of `state` in a cell's `[g_P, g_AP]` conductance pair.
#[inline]
fn state_slot(state: MagState) -> usize {
    match state {
        MagState::Parallel => 0,
        MagState::AntiParallel => 1,
    }
}

/// Effective conductance of cell `idx` at (`row`, `col`) in `state`: the state's
/// device conductance times the cell's fixed variation factor, in series with the
/// wire resistance up to the cell.
fn cell_conductance(
    params: &DeviceParams,
    non_ideality: &NonIdealityConfig,
    idx: usize,
    row: usize,
    col: usize,
    state: MagState,
) -> f64 {
    // Deterministic pseudo-random variation pattern derived from the cell index; this
    // keeps the array reproducible without threading an RNG through construction.
    let variation = if non_ideality.conductance_variation == 0.0 {
        1.0
    } else {
        // Simple hash → uniform in [-1, 1] → scaled.
        let h = (idx as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + (2.0 * u - 1.0) * non_ideality.conductance_variation
    };
    let base = match state {
        MagState::Parallel => params.g_parallel(),
        MagState::AntiParallel => params.g_antiparallel(),
    } * variation;
    let r_wire = non_ideality.wire_resistance_per_cell_ohms * ((row + col) as f64 + 1.0);
    if r_wire <= 0.0 {
        base
    } else {
        1.0 / (1.0 / base + r_wire)
    }
}

/// An `N × N·(B+1)` crossbar of 3T-1M SOT-MRAM cells.
///
/// The array exposes exactly the analogue operations the Ising macro needs:
///
/// * [`program_weights`](Self::program_weights) — deterministic writes of the bit-sliced
///   distance weights into the first `B` partitions,
/// * spin-storage reads/writes ([`spin`](Self::spin), [`write_spin`](Self::write_spin),
///   [`reset_order_column`](Self::reset_order_column)),
/// * [`superpose_orders`](Self::superpose_orders) — activate two spin-storage columns and
///   read the per-row current (the superposed visiting vector), and
/// * [`weighted_column_currents`](Self::weighted_column_currents) — apply a binary row
///   vector and read per-city currents through the weight partitions, already scaled by
///   bit significance (the current-mirror bank model).
///
/// # Example
///
/// ```
/// use taxi_xbar::{BitPrecision, CrossbarArray, QuantizedDistances};
/// use taxi_xbar::array::NonIdealityConfig;
/// use taxi_device::DeviceParams;
/// use taxi_dist::DistanceMatrix;
///
/// let d = DistanceMatrix::from_rows(&[
///     vec![0.0, 1.0, 5.0],
///     vec![1.0, 0.0, 2.0],
///     vec![5.0, 2.0, 0.0],
/// ])
/// .expect("square matrix");
/// let q = QuantizedDistances::from_distances(&d, BitPrecision::FOUR)?;
/// let mut array = CrossbarArray::new(3, BitPrecision::FOUR, DeviceParams::default(),
///                                    NonIdealityConfig::ideal());
/// array.program_weights(&q)?;
/// // City 1 is much closer to city 0 than city 2 is, so with row 0 active the current
/// // through city 1's columns dominates.
/// let currents = array.weighted_column_currents(&[true, false, false]);
/// assert!(currents[1] > currents[2]);
/// # Ok::<(), taxi_xbar::XbarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    geometry: ArrayGeometry,
    params: DeviceParams,
    /// Row-major cell states, `rows × columns`.
    cells: Vec<MagState>,
    /// Per-cell effective conductance of each state, `[g_P, g_AP]` (state + fixed
    /// device-to-device variation + wire resistance), evaluated once in `new`. A cell
    /// has only two states, so a write looks its value up here instead of evaluating
    /// the formula's divisions again.
    g_table: Vec<[f64; 2]>,
    /// Cached effective conductance per cell: `g_table[cell][state]`.
    ///
    /// The read kernels are the anneal loop's hot path; the conductance is fixed by the
    /// cell state, so it only needs a refresh at the mutation points (`new`,
    /// `program_weights`, `write_spin`, `reset_order_column`, `move_spin`) instead of a
    /// lookup per MAC term. Values are identical to computing on the fly.
    g_eff: Vec<f64>,
    /// Reusable per-city scratch for assignment validation (no per-write allocation).
    seen_buf: Vec<bool>,
    /// The last row vector [`weighted_column_currents_into`](Self::weighted_column_currents_into)
    /// evaluated and the per-city currents it produced. The MAC reads only the weight
    /// partitions, which change only in [`program_weights`](Self::program_weights), so a
    /// repeated row vector reproduces these currents exactly. `mac_memo_valid` is
    /// cleared whenever the weights are (re)programmed.
    mac_key: Vec<bool>,
    mac_memo: Vec<f64>,
    mac_memo_valid: bool,
    write_ops: u64,
    read_ops: u64,
}

impl CrossbarArray {
    /// Creates an array with every cell in the high-resistance (logic 0) state.
    pub fn new(
        rows: usize,
        precision: BitPrecision,
        params: DeviceParams,
        non_ideality: NonIdealityConfig,
    ) -> Self {
        let geometry = ArrayGeometry::new(rows, precision);
        let n_cells = geometry.cells();
        let columns = geometry.columns();
        let g_table: Vec<[f64; 2]> = (0..n_cells)
            .map(|i| {
                let (row, col) = (i / columns, i % columns);
                [MagState::Parallel, MagState::AntiParallel]
                    .map(|state| cell_conductance(&params, &non_ideality, i, row, col, state))
            })
            .collect();
        Self {
            geometry,
            params,
            cells: vec![MagState::AntiParallel; n_cells],
            g_eff: g_table
                .iter()
                .map(|pair| pair[state_slot(MagState::AntiParallel)])
                .collect(),
            g_table,
            seen_buf: vec![false; rows],
            mac_key: vec![false; rows],
            mac_memo: vec![0.0; rows],
            mac_memo_valid: false,
            write_ops: 0,
            read_ops: 0,
        }
    }

    /// The array geometry.
    pub fn geometry(&self) -> ArrayGeometry {
        self.geometry
    }

    /// Number of rows (cities).
    pub fn num_rows(&self) -> usize {
        self.geometry.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.geometry.columns()
    }

    /// Device parameters shared by every cell.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Total deterministic write operations issued so far.
    pub fn write_ops(&self) -> u64 {
        self.write_ops
    }

    /// Total analog read (MAC) operations issued so far.
    pub fn read_ops(&self) -> u64 {
        self.read_ops
    }

    fn cell_index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.geometry.rows && col < self.geometry.columns());
        row * self.geometry.columns() + col
    }

    /// Effective conductance of the cell at (`row`, `col`) including non-idealities.
    pub fn effective_conductance(&self, row: usize, col: usize) -> f64 {
        self.g_eff[self.cell_index(row, col)]
    }

    /// Refreshes the cached effective conductance of one cell from its state; must be
    /// called whenever the cell's state changes.
    #[inline]
    fn refresh_conductance(&mut self, row: usize, col: usize) {
        let idx = self.cell_index(row, col);
        self.g_eff[idx] = self.g_table[idx][state_slot(self.cells[idx])];
    }

    /// Programs the bit-sliced distance weights into the first `B` partitions.
    ///
    /// Partition 0 stores the most significant bit (closest to the drivers, minimising
    /// wire-resistance error on the most significant contribution, as in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidDistanceMatrix`] if the quantised matrix size or
    /// precision does not match the array geometry.
    pub fn program_weights(&mut self, weights: &QuantizedDistances) -> Result<(), XbarError> {
        if weights.num_cities() != self.geometry.rows {
            return Err(XbarError::InvalidDistanceMatrix {
                reason: format!(
                    "weight matrix is for {} cities but the array has {} rows",
                    weights.num_cities(),
                    self.geometry.rows
                ),
            });
        }
        if weights.precision() != self.geometry.precision {
            return Err(XbarError::InvalidDistanceMatrix {
                reason: format!(
                    "weight precision {} does not match array precision {}",
                    weights.precision(),
                    self.geometry.precision
                ),
            });
        }
        self.mac_memo_valid = false;
        let n = self.geometry.rows;
        let bits = self.geometry.precision.bits();
        for row in 0..n {
            for city in 0..n {
                for p in 0..bits {
                    // Partition p stores bit (bits - 1 - p): MSB in partition 0.
                    let bit = bits - 1 - p;
                    let col = self.geometry.weight_partition_start(p) + city;
                    let state = MagState::from_bit(weights.weight_bit(row, city, bit));
                    let idx = self.cell_index(row, col);
                    self.cells[idx] = state;
                    self.refresh_conductance(row, col);
                    self.write_ops += 1;
                }
            }
        }
        Ok(())
    }

    /// Reads the spin-storage bit for (`city`, `order`).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::IndexOutOfRange`] if either index is out of range.
    pub fn spin(&self, city: usize, order: usize) -> Result<bool, XbarError> {
        self.check_city(city)?;
        self.check_order(order)?;
        let col = self.geometry.spin_storage_start() + order;
        Ok(self.cells[self.cell_index(city, col)] == MagState::Parallel)
    }

    /// Deterministically writes the spin-storage bit for (`city`, `order`).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::IndexOutOfRange`] if either index is out of range.
    pub fn write_spin(&mut self, city: usize, order: usize, value: bool) -> Result<(), XbarError> {
        self.check_city(city)?;
        self.check_order(order)?;
        let col = self.geometry.spin_storage_start() + order;
        let idx = self.cell_index(city, col);
        self.cells[idx] = MagState::from_bit(value);
        self.refresh_conductance(city, col);
        self.write_ops += 1;
        Ok(())
    }

    /// Resets every cell of the spin-storage column for `order` to the high-resistance
    /// state (the pre-update reset described in Section III-C5).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::IndexOutOfRange`] if `order` is out of range.
    pub fn reset_order_column(&mut self, order: usize) -> Result<(), XbarError> {
        self.check_order(order)?;
        let col = self.geometry.spin_storage_start() + order;
        for city in 0..self.geometry.rows {
            let idx = self.cell_index(city, col);
            self.cells[idx] = MagState::AntiParallel;
            self.refresh_conductance(city, col);
            self.write_ops += 1;
        }
        Ok(())
    }

    /// Moves the selected city of the spin-storage column for `order` from `from_city`
    /// to `to_city`: the result and the write count of
    /// [`reset_order_column`](Self::reset_order_column) followed by
    /// [`write_spin`](Self::write_spin)`(to_city, order, true)` on a column whose only
    /// selected cell is `from_city`, but only the two cells whose state changes are
    /// rewritten.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::IndexOutOfRange`] if any index is out of range.
    pub(crate) fn move_spin(
        &mut self,
        order: usize,
        from_city: usize,
        to_city: usize,
    ) -> Result<(), XbarError> {
        self.check_order(order)?;
        self.check_city(from_city)?;
        self.check_city(to_city)?;
        let col = self.geometry.spin_storage_start() + order;
        debug_assert!(
            (0..self.geometry.rows).all(|city| {
                (self.cells[self.cell_index(city, col)] == MagState::Parallel)
                    == (city == from_city)
            }),
            "order {order} must hold exactly city {from_city}"
        );
        let from = self.cell_index(from_city, col);
        self.cells[from] = MagState::AntiParallel;
        self.refresh_conductance(from_city, col);
        let to = self.cell_index(to_city, col);
        self.cells[to] = MagState::Parallel;
        self.refresh_conductance(to_city, col);
        self.write_ops += self.geometry.rows as u64 + 1;
        Ok(())
    }

    /// Activates the spin-storage columns of `orders` and returns the per-row read
    /// current: the analogue superposition of the visiting vectors at those orders
    /// (Section III-C1).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::IndexOutOfRange`] if any order is out of range.
    pub fn superpose_orders(&mut self, orders: &[usize]) -> Result<Vec<f64>, XbarError> {
        let mut currents = vec![0.0f64; self.geometry.rows];
        self.superpose_orders_into(orders, &mut currents)?;
        Ok(currents)
    }

    /// Like [`superpose_orders`](Self::superpose_orders), but writes the per-row currents
    /// into a caller-provided slice (one entry per row) instead of allocating.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::IndexOutOfRange`] if any order is out of range.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the number of rows.
    pub fn superpose_orders_into(
        &mut self,
        orders: &[usize],
        out: &mut [f64],
    ) -> Result<(), XbarError> {
        assert_eq!(
            out.len(),
            self.geometry.rows,
            "output length must equal the number of rows"
        );
        for &o in orders {
            self.check_order(o)?;
        }
        self.read_ops += 1;
        let v = self.params.read_voltage;
        let n = self.geometry.rows;
        let columns = self.geometry.columns();
        out.fill(0.0);
        // Rows are chunked [`LANES`] wide (independent outputs gathered into an array
        // temporary the autovectorizer can lower to SIMD); each out[row] still receives
        // exactly one add per order, in order order, so results are bit-identical to the
        // scalar loop.
        for &order in orders {
            let col = self.geometry.spin_storage_start() + order;
            let mut row = 0;
            while row + LANES <= n {
                let mut gathered = [0.0f64; LANES];
                for l in 0..LANES {
                    gathered[l] = self.g_eff[(row + l) * columns + col];
                }
                for (l, &g) in gathered.iter().enumerate() {
                    out[row + l] += v * g;
                }
                row += LANES;
            }
            while row < n {
                out[row] += v * self.g_eff[row * columns + col];
                row += 1;
            }
        }
        Ok(())
    }

    /// Applies the binary `row_vector` to the rows and returns the per-city current
    /// through the weight partitions, with each partition scaled by its bit significance
    /// (`2^b`, the current-mirror bank of Fig. 4b).
    ///
    /// The returned vector has one entry per city; larger current means a shorter
    /// combined distance to the active rows (Eq. 5).
    ///
    /// # Panics
    ///
    /// Panics if `row_vector.len()` differs from the number of rows.
    pub fn weighted_column_currents(&mut self, row_vector: &[bool]) -> Vec<f64> {
        let mut per_city = vec![0.0f64; self.geometry.rows];
        self.weighted_column_currents_into(row_vector, &mut per_city);
        per_city
    }

    /// Like [`weighted_column_currents`](Self::weighted_column_currents), but writes the
    /// per-city currents into a caller-provided slice (one entry per city) instead of
    /// allocating.
    ///
    /// When `row_vector` equals the previous call's and the weights have not been
    /// reprogrammed since, the stored currents of that call are copied instead of
    /// recomputed; they are bit-identical to what
    /// [`weighted_column_currents_uncached_into`](Self::weighted_column_currents_uncached_into)
    /// would return. Every call counts as one read operation either way.
    ///
    /// # Panics
    ///
    /// Panics if `row_vector.len()` or `out.len()` differs from the number of rows.
    pub fn weighted_column_currents_into(&mut self, row_vector: &[bool], out: &mut [f64]) {
        if self.mac_memo_valid && self.mac_key == row_vector {
            out.copy_from_slice(&self.mac_memo);
            self.read_ops += 1;
            return;
        }
        self.weighted_column_currents_uncached_into(row_vector, out);
        self.mac_key.copy_from_slice(row_vector);
        self.mac_memo.copy_from_slice(out);
        self.mac_memo_valid = true;
    }

    /// The MAC kernel itself: always evaluates the weight partitions for `row_vector`,
    /// bypassing (and leaving untouched) the memo of
    /// [`weighted_column_currents_into`](Self::weighted_column_currents_into).
    ///
    /// # Panics
    ///
    /// Panics if `row_vector.len()` or `out.len()` differs from the number of rows.
    pub fn weighted_column_currents_uncached_into(&mut self, row_vector: &[bool], out: &mut [f64]) {
        assert_eq!(
            row_vector.len(),
            self.geometry.rows,
            "row vector length must equal the number of rows"
        );
        assert_eq!(
            out.len(),
            self.geometry.rows,
            "output length must equal the number of cities"
        );
        self.read_ops += 1;
        let v = self.params.read_voltage;
        let bits = self.geometry.precision.bits();
        let n = self.geometry.rows;
        let columns = self.geometry.columns();
        out.fill(0.0);
        // Cities (columns within a partition) are chunked [`LANES`] wide: each lane's
        // accumulator sums its active rows in exactly the original row order, so per-city
        // currents are bit-identical to the scalar scan while four adjacent columns are
        // processed from one contiguous row slice.
        for p in 0..bits {
            let significance = f64::from(1u32 << (bits - 1 - p));
            let start = self.geometry.weight_partition_start(p);
            let mut city = 0;
            while city + LANES <= n {
                let mut acc = [0.0f64; LANES];
                for (row, &active) in row_vector.iter().enumerate() {
                    if active {
                        let base = row * columns + start + city;
                        for l in 0..LANES {
                            acc[l] += v * self.g_eff[base + l];
                        }
                    }
                }
                for (l, &i_col) in acc.iter().enumerate() {
                    out[city + l] += significance * i_col;
                }
                city += LANES;
            }
            while city < n {
                let col = start + city;
                let mut i_col = 0.0;
                for (row, &active) in row_vector.iter().enumerate() {
                    if active {
                        i_col += v * self.g_eff[row * columns + col];
                    }
                }
                out[city] += significance * i_col;
                city += 1;
            }
        }
    }

    /// Returns the full spin-storage contents as an `orders → city` assignment.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::CorruptSpinStorage`] if any order column does not contain
    /// exactly one low-resistance cell.
    pub fn read_assignment(&self) -> Result<Vec<usize>, XbarError> {
        let mut assignment = Vec::with_capacity(self.geometry.rows);
        self.read_assignment_into(&mut assignment)?;
        Ok(assignment)
    }

    /// Like [`read_assignment`](Self::read_assignment), but writes into a caller-provided
    /// buffer (cleared and refilled) instead of allocating.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`read_assignment`](Self::read_assignment).
    pub fn read_assignment_into(&self, assignment: &mut Vec<usize>) -> Result<(), XbarError> {
        let n = self.geometry.rows;
        assignment.clear();
        for order in 0..n {
            let col = self.geometry.spin_storage_start() + order;
            let mut chosen = None;
            for city in 0..n {
                if self.cells[self.cell_index(city, col)] == MagState::Parallel {
                    if chosen.is_some() {
                        return Err(XbarError::CorruptSpinStorage {
                            reason: format!("order {order} has more than one city selected"),
                        });
                    }
                    chosen = Some(city);
                }
            }
            match chosen {
                Some(city) => assignment.push(city),
                None => {
                    return Err(XbarError::CorruptSpinStorage {
                        reason: format!("order {order} has no city selected"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Writes a full `orders → city` assignment into the spin storage.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::CorruptSpinStorage`] if `assignment` is not a permutation of
    /// `0..rows`, or [`XbarError::IndexOutOfRange`] if it has the wrong length.
    pub fn write_assignment(&mut self, assignment: &[usize]) -> Result<(), XbarError> {
        let n = self.geometry.rows;
        if assignment.len() != n {
            return Err(XbarError::IndexOutOfRange {
                kind: "order",
                index: assignment.len(),
                len: n,
            });
        }
        self.seen_buf.fill(false);
        for &city in assignment {
            if city >= n {
                return Err(XbarError::IndexOutOfRange {
                    kind: "city",
                    index: city,
                    len: n,
                });
            }
            if self.seen_buf[city] {
                return Err(XbarError::CorruptSpinStorage {
                    reason: format!("city {city} assigned to more than one order"),
                });
            }
            self.seen_buf[city] = true;
        }
        for (order, &city) in assignment.iter().enumerate() {
            self.reset_order_column(order)?;
            self.write_spin(city, order, true)?;
        }
        Ok(())
    }

    fn check_city(&self, city: usize) -> Result<(), XbarError> {
        if city < self.geometry.rows {
            Ok(())
        } else {
            Err(XbarError::IndexOutOfRange {
                kind: "city",
                index: city,
                len: self.geometry.rows,
            })
        }
    }

    fn check_order(&self, order: usize) -> Result<(), XbarError> {
        if order < self.geometry.rows {
            Ok(())
        } else {
            Err(XbarError::IndexOutOfRange {
                kind: "order",
                index: order,
                len: self.geometry.rows,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distances() -> taxi_dist::DistanceMatrix {
        taxi_dist::DistanceMatrix::from_rows(&[
            vec![0.0, 1.0, 5.0, 9.0],
            vec![1.0, 0.0, 2.0, 7.0],
            vec![5.0, 2.0, 0.0, 1.5],
            vec![9.0, 7.0, 1.5, 0.0],
        ])
        .unwrap()
    }

    fn ideal_array() -> CrossbarArray {
        let q = QuantizedDistances::from_distances(&distances(), BitPrecision::FOUR).unwrap();
        let mut a = CrossbarArray::new(
            4,
            BitPrecision::FOUR,
            DeviceParams::default(),
            NonIdealityConfig::ideal(),
        );
        a.program_weights(&q).unwrap();
        a
    }

    #[test]
    fn geometry_matches_paper_formula() {
        // Table I: a 12-city problem needs 12 × 36/48/60 arrays for 2/3/4-bit precision.
        for (bits, cols) in [(2u8, 36usize), (3, 48), (4, 60)] {
            let g = ArrayGeometry::new(12, BitPrecision::new(bits).unwrap());
            assert_eq!(g.columns(), cols);
            assert_eq!(g.cells(), 12 * cols);
        }
    }

    #[test]
    fn program_weights_rejects_mismatched_sizes() {
        let q = QuantizedDistances::from_distances(&distances(), BitPrecision::FOUR).unwrap();
        let mut a = CrossbarArray::new(
            5,
            BitPrecision::FOUR,
            DeviceParams::default(),
            NonIdealityConfig::ideal(),
        );
        assert!(a.program_weights(&q).is_err());
    }

    #[test]
    fn program_weights_rejects_mismatched_precision() {
        let q = QuantizedDistances::from_distances(&distances(), BitPrecision::TWO).unwrap();
        let mut a = CrossbarArray::new(
            4,
            BitPrecision::FOUR,
            DeviceParams::default(),
            NonIdealityConfig::ideal(),
        );
        assert!(a.program_weights(&q).is_err());
    }

    #[test]
    fn closer_city_draws_more_current() {
        let mut a = ideal_array();
        // Activate only row 0: city 1 (d=1) should beat city 2 (d=5) and city 3 (d=9).
        let currents = a.weighted_column_currents(&[true, false, false, false]);
        assert!(currents[1] > currents[2]);
        assert!(currents[2] > currents[3]);
    }

    #[test]
    fn superposition_reflects_spin_storage() {
        let mut a = ideal_array();
        a.write_assignment(&[0, 1, 2, 3]).unwrap();
        let currents = a.superpose_orders(&[0, 2]).unwrap();
        // Cities 0 and 2 are selected at orders 0 and 2; their rows carry high current.
        assert!(currents[0] > currents[1]);
        assert!(currents[2] > currents[3]);
    }

    #[test]
    fn assignment_round_trips() {
        let mut a = ideal_array();
        let perm = vec![2, 0, 3, 1];
        a.write_assignment(&perm).unwrap();
        assert_eq!(a.read_assignment().unwrap(), perm);
    }

    #[test]
    fn write_assignment_rejects_duplicates() {
        let mut a = ideal_array();
        assert!(matches!(
            a.write_assignment(&[0, 0, 1, 2]),
            Err(XbarError::CorruptSpinStorage { .. })
        ));
    }

    #[test]
    fn read_assignment_detects_missing_selection() {
        let a = ideal_array();
        // Fresh spin storage is all zeros → every order column is empty.
        assert!(matches!(
            a.read_assignment(),
            Err(XbarError::CorruptSpinStorage { .. })
        ));
    }

    #[test]
    fn reset_order_column_clears_spins() {
        let mut a = ideal_array();
        a.write_assignment(&[0, 1, 2, 3]).unwrap();
        a.reset_order_column(1).unwrap();
        for city in 0..4 {
            assert!(!a.spin(city, 1).unwrap());
        }
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let mut a = ideal_array();
        assert!(a.spin(7, 0).is_err());
        assert!(a.spin(0, 7).is_err());
        assert!(a.write_spin(0, 9, true).is_err());
        assert!(a.reset_order_column(9).is_err());
        assert!(a.superpose_orders(&[9]).is_err());
    }

    #[test]
    fn wire_resistance_attenuates_far_cells() {
        let q = QuantizedDistances::from_distances(&distances(), BitPrecision::FOUR).unwrap();
        let mut ideal = CrossbarArray::new(
            4,
            BitPrecision::FOUR,
            DeviceParams::default(),
            NonIdealityConfig::ideal(),
        );
        ideal.program_weights(&q).unwrap();
        let mut lossy = CrossbarArray::new(
            4,
            BitPrecision::FOUR,
            DeviceParams::default(),
            NonIdealityConfig {
                wire_resistance_per_cell_ohms: 50.0,
                conductance_variation: 0.0,
            },
        );
        lossy.program_weights(&q).unwrap();
        let i_ideal = ideal.weighted_column_currents(&[true, true, true, true]);
        let i_lossy = lossy.weighted_column_currents(&[true, true, true, true]);
        for (a, b) in i_ideal.iter().zip(&i_lossy) {
            assert!(b < a, "wire resistance must reduce every column current");
        }
    }

    #[test]
    fn non_ideal_array_preserves_ranking_for_moderate_wire_resistance() {
        let q = QuantizedDistances::from_distances(&distances(), BitPrecision::FOUR).unwrap();
        let mut a = CrossbarArray::new(
            4,
            BitPrecision::FOUR,
            DeviceParams::default(),
            NonIdealityConfig::realistic(),
        );
        a.program_weights(&q).unwrap();
        let currents = a.weighted_column_currents(&[true, false, false, false]);
        assert!(currents[1] > currents[3]);
    }

    #[test]
    fn operation_counters_increase() {
        let mut a = ideal_array();
        let writes_before = a.write_ops();
        a.write_assignment(&[0, 1, 2, 3]).unwrap();
        assert!(a.write_ops() > writes_before);
        let reads_before = a.read_ops();
        let _ = a.weighted_column_currents(&[true, false, false, false]);
        assert_eq!(a.read_ops(), reads_before + 1);
    }

    /// Every cached conductance must equal [`cell_conductance`] evaluated fresh for the
    /// cell's current state, bit for bit.
    fn assert_conductances_fresh(a: &CrossbarArray, non_ideality: &NonIdealityConfig) {
        let columns = a.num_columns();
        for row in 0..a.num_rows() {
            for col in 0..columns {
                let idx = row * columns + col;
                let fresh = cell_conductance(&a.params, non_ideality, idx, row, col, a.cells[idx]);
                assert_eq!(
                    a.effective_conductance(row, col).to_bits(),
                    fresh.to_bits(),
                    "cell ({row}, {col}) in state {:?}",
                    a.cells[idx]
                );
            }
        }
    }

    proptest::proptest! {
        /// After random weight programming, spin writes, column resets and swaps, the
        /// two-state table lookups reproduce the conductance formula exactly, with
        /// ideal, realistic and exaggerated non-idealities.
        #[test]
        fn conductance_table_matches_the_formula_after_writes(
            rows in 1usize..=9,
            bits in 1u8..=4,
            seed in 0..=u64::MAX,
            n_ops in 0usize..=64,
        ) {
            use rand::{Rng, SeedableRng};
            use rand::seq::SliceRandom;
            let precision = BitPrecision::new(bits).unwrap();
            let configs = [
                NonIdealityConfig::ideal(),
                NonIdealityConfig::realistic(),
                NonIdealityConfig {
                    wire_resistance_per_cell_ohms: 50.0,
                    conductance_variation: 0.3,
                },
            ];
            for non_ideality in configs {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let mut a = CrossbarArray::new(rows, precision, DeviceParams::default(), non_ideality);
                assert_conductances_fresh(&a, &non_ideality);
                let coords: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..100.0)).collect();
                let d = taxi_dist::DistanceMatrix::from_fn(rows, |i, j| (coords[i] - coords[j]).abs());
                a.program_weights(&QuantizedDistances::from_distances(&d, precision).unwrap())
                    .unwrap();
                // `perm` mirrors the spin storage while it holds a permutation.
                let mut perm: Option<Vec<usize>> = None;
                for _ in 0..n_ops {
                    match rng.gen_range(0..3) {
                        0 => {
                            let (city, order) = (rng.gen_range(0..rows), rng.gen_range(0..rows));
                            a.write_spin(city, order, rng.gen_bool(0.5)).unwrap();
                            perm = None;
                        }
                        1 => {
                            a.reset_order_column(rng.gen_range(0..rows)).unwrap();
                            perm = None;
                        }
                        _ => {
                            let p = perm.get_or_insert_with(|| {
                                let mut p: Vec<usize> = (0..rows).collect();
                                p.shuffle(&mut rng);
                                a.write_assignment(&p).unwrap();
                                p
                            });
                            let (x, y) = (rng.gen_range(0..rows), rng.gen_range(0..rows));
                            if x != y {
                                a.move_spin(x, p[x], p[y]).unwrap();
                                a.move_spin(y, p[y], p[x]).unwrap();
                                p.swap(x, y);
                            }
                        }
                    }
                }
                if let Some(p) = &perm {
                    proptest::prop_assert_eq!(&a.read_assignment().unwrap(), p);
                }
                assert_conductances_fresh(&a, &non_ideality);
            }
        }
    }
}
