//! Peripheral circuits of the Ising macro (Fig. 4 insets a–d of the paper).

use rand::Rng;

use taxi_device::{DeviceParams, StochasticVectorGenerator, SwitchThreshold, WriteCurrent};

use crate::XbarError;

/// High-speed current comparator (Träff-style) translating analogue row currents into a
/// binary vector.
///
/// Currents above the threshold read as 1. The threshold is normally placed halfway
/// between the current of an unselected (high-resistance) cell and a selected
/// (low-resistance) cell.
///
/// # Example
///
/// ```
/// use taxi_xbar::CurrentComparator;
///
/// let comparator = CurrentComparator::new(1.0e-5);
/// assert_eq!(comparator.compare(&[2.0e-5, 0.5e-5]), vec![true, false]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentComparator {
    threshold_amps: f64,
}

impl CurrentComparator {
    /// Creates a comparator with an absolute current threshold in amperes.
    pub fn new(threshold_amps: f64) -> Self {
        Self { threshold_amps }
    }

    /// Builds a comparator whose threshold sits halfway between the single-cell read
    /// currents of the two device states at the given read voltage.
    pub fn for_device(params: &DeviceParams) -> Self {
        let i_low = params.read_voltage * params.g_antiparallel();
        let i_high = params.read_voltage * params.g_parallel();
        Self {
            threshold_amps: 0.5 * (i_low + i_high),
        }
    }

    /// The comparator threshold in amperes.
    pub fn threshold(&self) -> f64 {
        self.threshold_amps
    }

    /// Compares each current against the threshold.
    pub fn compare(&self, currents: &[f64]) -> Vec<bool> {
        let mut out = vec![false; currents.len()];
        self.compare_into(currents, &mut out);
        out
    }

    /// Like [`compare`](Self::compare), but writes into a caller-provided slice.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from `currents.len()`.
    pub fn compare_into(&self, currents: &[f64], out: &mut [bool]) {
        assert_eq!(currents.len(), out.len(), "comparator width mismatch");
        for (o, &i) in out.iter_mut().zip(currents) {
            *o = i > self.threshold_amps;
        }
    }
}

/// D-latch bank storing the binarised superposition vector between the superpose and
/// optimize phases.
///
/// # Example
///
/// ```
/// use taxi_xbar::DLatch;
///
/// let mut latch = DLatch::new(4);
/// latch.store(&[true, false, true, false]);
/// assert_eq!(latch.read(), &[true, false, true, false]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DLatch {
    bits: Vec<bool>,
}

impl DLatch {
    /// Creates a latch bank of `width` bits, all cleared.
    pub fn new(width: usize) -> Self {
        Self {
            bits: vec![false; width],
        }
    }

    /// Latch width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Stores a new value.
    ///
    /// # Panics
    ///
    /// Panics if `value.len()` differs from the latch width.
    pub fn store(&mut self, value: &[bool]) {
        assert_eq!(value.len(), self.bits.len(), "latch width mismatch");
        self.bits.copy_from_slice(value);
    }

    /// Reads the latched value.
    pub fn read(&self) -> &[bool] {
        &self.bits
    }

    /// Clears the latch to all zeros.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|b| *b = false);
    }
}

/// The current-mirror bank scaling each weight partition by its bit significance
/// (×2^(b−1) in the paper's notation).
///
/// The crossbar model in this crate already folds the scaling into
/// [`CrossbarArray::weighted_column_currents`](crate::CrossbarArray::weighted_column_currents);
/// this type exists so that circuit-level latency/energy accounting and explicit
/// partition-by-partition experiments can reason about the mirrors directly.
///
/// # Example
///
/// ```
/// use taxi_xbar::CurrentMirrorBank;
///
/// let bank = CurrentMirrorBank::new(3);
/// // LSB partition (bit 0) is scaled ×1, MSB partition ×4.
/// assert_eq!(bank.gain_for_bit(0), 1.0);
/// assert_eq!(bank.gain_for_bit(2), 4.0);
/// let combined = bank.combine(&[1.0e-6, 2.0e-6, 3.0e-6]); // per-bit currents, LSB first
/// assert!((combined - (1.0e-6 + 4.0e-6 + 12.0e-6)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurrentMirrorBank {
    bits: u8,
}

impl CurrentMirrorBank {
    /// Creates a mirror bank for `bits` weight partitions.
    pub fn new(bits: u8) -> Self {
        Self { bits }
    }

    /// Gain applied to the partition storing bit `bit` (0 = LSB).
    pub fn gain_for_bit(&self, bit: u8) -> f64 {
        f64::from(1u32 << bit)
    }

    /// Combines per-bit partition currents (LSB first) into the final column current.
    ///
    /// # Panics
    ///
    /// Panics if `per_bit_currents.len()` differs from the configured number of bits.
    pub fn combine(&self, per_bit_currents: &[f64]) -> f64 {
        assert_eq!(
            per_bit_currents.len(),
            usize::from(self.bits),
            "per-bit current vector length must equal the bit precision"
        );
        per_bit_currents
            .iter()
            .enumerate()
            .map(|(b, &i)| self.gain_for_bit(b as u8) * i)
            .sum()
    }
}

/// The SOT-MRAM stochastic mask circuit (Fig. 4c).
///
/// Per iteration a stochastic binary vector is generated by pulsing one SOT device per
/// column in the stochastic regime; only columns whose device switched pass their current
/// to the ArgMax stage. If no device switched the NAND fallback passes every column.
///
/// # Example
///
/// ```
/// use taxi_xbar::StochasticMaskCircuit;
/// use taxi_device::{DeviceParams, WriteCurrent};
/// use rand::SeedableRng;
///
/// let mut circuit = StochasticMaskCircuit::new(DeviceParams::default(), 8)?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let currents = vec![1.0; 8];
/// let gated = circuit.gate(&currents, WriteCurrent::from_micro_amps(420.0), &mut rng)?;
/// assert_eq!(gated.len(), 8);
/// # Ok::<(), taxi_xbar::XbarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StochasticMaskCircuit {
    generator: StochasticVectorGenerator,
    /// Reusable mask buffer for [`gate_into`](Self::gate_into).
    mask_buf: Vec<bool>,
}

impl StochasticMaskCircuit {
    /// Creates a mask circuit with one SOT-MRAM unit per column.
    ///
    /// # Errors
    ///
    /// Returns an error if `width` is zero or the device parameters are invalid.
    pub fn new(params: DeviceParams, width: usize) -> Result<Self, XbarError> {
        Ok(Self {
            generator: StochasticVectorGenerator::new(params, width)?,
            mask_buf: Vec::with_capacity(width),
        })
    }

    /// Mask width (number of columns).
    pub fn width(&self) -> usize {
        self.generator.width()
    }

    /// Generates a fresh stochastic mask at `i_write` and gates `currents` with it:
    /// columns whose mask bit is 0 are suppressed to zero current.
    ///
    /// # Errors
    ///
    /// Returns an error if `i_write` lies outside the stochastic window.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` differs from the circuit width.
    pub fn gate<R: Rng + ?Sized>(
        &mut self,
        currents: &[f64],
        i_write: WriteCurrent,
        rng: &mut R,
    ) -> Result<Vec<f64>, XbarError> {
        let mut out = vec![0.0; currents.len()];
        self.gate_into(currents, i_write, rng, &mut out)?;
        Ok(out)
    }

    /// Like [`gate`](Self::gate), but writes the gated currents into a caller-provided
    /// slice; the stochastic mask itself is generated into an internal reusable buffer,
    /// so steady-state gating performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`gate`](Self::gate).
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` or `out.len()` differs from the circuit width.
    pub fn gate_into<R: Rng + ?Sized>(
        &mut self,
        currents: &[f64],
        i_write: WriteCurrent,
        rng: &mut R,
        out: &mut [f64],
    ) -> Result<(), XbarError> {
        let threshold = SwitchThreshold::for_pulse(self.generator.params(), i_write)?;
        self.gate_at(currents, threshold, rng, out);
        Ok(())
    }

    /// [`gate_into`](Self::gate_into) for a pulse whose threshold was derived once, from
    /// this circuit's device parameters, by [`SwitchThreshold::for_pulse`].
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` or `out.len()` differs from the circuit width.
    pub fn gate_at<R: Rng + ?Sized>(
        &mut self,
        currents: &[f64],
        threshold: SwitchThreshold,
        rng: &mut R,
        out: &mut [f64],
    ) {
        assert_eq!(
            currents.len(),
            self.generator.width(),
            "current vector length must equal the mask width"
        );
        assert_eq!(
            out.len(),
            self.generator.width(),
            "output length must equal the mask width"
        );
        self.generator
            .generate_at(threshold, rng, &mut self.mask_buf);
        for ((o, &i), &allow) in out.iter_mut().zip(currents).zip(&self.mask_buf) {
            *o = if allow { i } else { 0.0 };
        }
    }

    /// Expected fraction of columns allowed to pass at the given write current.
    pub fn expected_pass_fraction(&self, i_write: WriteCurrent) -> f64 {
        self.generator.expected_ones(i_write) / self.generator.width() as f64
    }

    /// Number of mask-generation pulses issued so far.
    pub fn pulses_issued(&self) -> u64 {
        self.generator.pulses_issued()
    }
}

/// Winner-take-all ArgMax circuit (Lazzaro WTA with cascode and feedback enhancements).
///
/// Picks the index of the largest input current. A finite `resolution` models the circuit
/// limitation that inputs closer together than `resolution × winner` are indistinguishable;
/// ties within the resolution band are broken pseudo-randomly, as a real WTA's outcome
/// would be decided by noise and mismatch.
///
/// # Example
///
/// ```
/// use taxi_xbar::ArgMaxCircuit;
/// use rand::SeedableRng;
///
/// let argmax = ArgMaxCircuit::new(1e-3);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// assert_eq!(argmax.winner(&[0.1, 0.9, 0.3], &mut rng), Some(1));
/// assert_eq!(argmax.winner(&[], &mut rng), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArgMaxCircuit {
    /// Relative resolution of the winner-take-all stage.
    resolution: f64,
}

impl ArgMaxCircuit {
    /// Creates an ArgMax circuit with the given relative resolution (e.g. `1e-3` means
    /// currents within 0.1 % of the winner are indistinguishable).
    pub fn new(resolution: f64) -> Self {
        Self {
            resolution: resolution.max(0.0),
        }
    }

    /// An idealised circuit with infinite resolution (first maximal index wins).
    pub fn ideal() -> Self {
        Self { resolution: 0.0 }
    }

    /// The relative resolution.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Returns the index of the winning (largest-current) input, or `None` for an empty
    /// input or when every current is zero or negative.
    pub fn winner<R: Rng + ?Sized>(&self, currents: &[f64], rng: &mut R) -> Option<usize> {
        let (best_idx, best) = currents
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        if *best <= 0.0 {
            return None;
        }
        if self.resolution == 0.0 {
            return Some(best_idx);
        }
        // Count-then-select keeps the near-tie break allocation-free: the k-th contender
        // is found by a second pass instead of materialising a contender list.
        let band = *best * (1.0 - self.resolution);
        let contenders = currents.iter().filter(|&&i| i >= band).count();
        if contenders <= 1 {
            Some(best_idx)
        } else {
            let pick = rng.gen_range(0..contenders);
            currents
                .iter()
                .enumerate()
                .filter(|(_, &i)| i >= band)
                .nth(pick)
                .map(|(idx, _)| idx)
        }
    }

    /// Produces the one-hot output vector of the WTA stage.
    pub fn one_hot<R: Rng + ?Sized>(&self, currents: &[f64], rng: &mut R) -> Vec<bool> {
        let mut out = vec![false; currents.len()];
        if let Some(idx) = self.winner(currents, rng) {
            out[idx] = true;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn comparator_thresholds_currents() {
        let c = CurrentComparator::new(5.0);
        assert_eq!(c.compare(&[1.0, 5.0, 9.0]), vec![false, false, true]);
    }

    #[test]
    fn comparator_for_device_separates_states() {
        let params = DeviceParams::default();
        let c = CurrentComparator::for_device(&params);
        let i_selected = params.read_voltage * params.g_parallel();
        let i_unselected = params.read_voltage * params.g_antiparallel();
        assert_eq!(c.compare(&[i_selected, i_unselected]), vec![true, false]);
    }

    #[test]
    fn latch_round_trips_and_clears() {
        let mut latch = DLatch::new(3);
        latch.store(&[true, true, false]);
        assert_eq!(latch.read(), &[true, true, false]);
        latch.clear();
        assert_eq!(latch.read(), &[false, false, false]);
    }

    #[test]
    #[should_panic(expected = "latch width mismatch")]
    fn latch_rejects_wrong_width() {
        DLatch::new(2).store(&[true]);
    }

    #[test]
    fn mirror_bank_scales_by_significance() {
        let bank = CurrentMirrorBank::new(4);
        assert_eq!(bank.gain_for_bit(3), 8.0);
        let combined = bank.combine(&[1.0, 1.0, 1.0, 1.0]);
        assert!((combined - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mask_circuit_gates_columns() {
        let mut circuit = StochasticMaskCircuit::new(DeviceParams::default(), 16).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let currents = vec![1.0; 16];
        let gated = circuit
            .gate(&currents, WriteCurrent::from_micro_amps(420.0), &mut rng)
            .unwrap();
        // Some but not necessarily all columns pass; gated values are 0 or the original.
        assert!(gated.iter().all(|&g| g == 0.0 || g == 1.0));
        assert!(gated.contains(&1.0));
    }

    #[test]
    fn mask_pass_fraction_tracks_current() {
        let circuit = StochasticMaskCircuit::new(DeviceParams::default(), 12).unwrap();
        let high = circuit.expected_pass_fraction(WriteCurrent::from_micro_amps(420.0));
        let low = circuit.expected_pass_fraction(WriteCurrent::from_micro_amps(353.0));
        assert!(high > low);
        assert!((high - 0.20).abs() < 0.01);
    }

    #[test]
    fn argmax_picks_largest() {
        let argmax = ArgMaxCircuit::ideal();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(argmax.winner(&[0.2, 0.7, 0.3], &mut rng), Some(1));
    }

    #[test]
    fn argmax_rejects_empty_and_zero_inputs() {
        let argmax = ArgMaxCircuit::ideal();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(argmax.winner(&[], &mut rng), None);
        assert_eq!(argmax.winner(&[0.0, 0.0], &mut rng), None);
    }

    #[test]
    fn argmax_one_hot_has_single_winner() {
        let argmax = ArgMaxCircuit::new(1e-3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let one_hot = argmax.one_hot(&[0.1, 0.5, 0.2, 0.5001], &mut rng);
        assert_eq!(one_hot.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn argmax_finite_resolution_varies_among_near_ties() {
        let argmax = ArgMaxCircuit::new(0.05);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let currents = vec![1.0, 0.999, 0.1];
        let mut winners = std::collections::HashSet::new();
        for _ in 0..200 {
            winners.insert(argmax.winner(&currents, &mut rng).unwrap());
        }
        assert!(winners.contains(&0));
        assert!(winners.contains(&1));
        assert!(!winners.contains(&2));
    }
}
