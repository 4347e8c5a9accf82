//! SOT-MRAM based stochastic bit and vector sources.
//!
//! The stochastic-mask circuit of the paper (Fig. 4c) consists of `N` identical units,
//! each containing one SOT-MRAM device driven in the stochastic regime. Per iteration the
//! devices are pulsed; the units whose device switched let the column current pass. The
//! expected number of ones in the mask is therefore `N · P_sw(I_write)` and is swept down
//! during annealing by reducing the write current.

use rand::Rng;

use crate::sot_mram::SwitchThreshold;
use crate::{DeviceError, DeviceParams, MagState, SotMram, WriteCurrent};

/// A single stochastic bit source backed by one SOT-MRAM device.
///
/// # Example
///
/// ```
/// use taxi_device::{DeviceParams, StochasticBitSource, WriteCurrent};
/// use rand::SeedableRng;
///
/// let mut source = StochasticBitSource::new(DeviceParams::default());
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let bit = source.sample(WriteCurrent::from_micro_amps(420.0), &mut rng)?;
/// assert!(bit == true || bit == false);
/// # Ok::<(), taxi_device::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StochasticBitSource {
    device: SotMram,
    samples_drawn: u64,
}

impl StochasticBitSource {
    /// Creates a bit source with the given device parameters.
    pub fn new(params: DeviceParams) -> Self {
        Self {
            device: SotMram::new(params),
            samples_drawn: 0,
        }
    }

    /// Draws one stochastic bit: the device is reset to the anti-parallel state and
    /// pulsed at `current`; the bit is 1 exactly when the device switched.
    ///
    /// # Errors
    ///
    /// Returns an error if `current` lies outside the stochastic window.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        current: WriteCurrent,
        rng: &mut R,
    ) -> Result<bool, DeviceError> {
        let threshold = SwitchThreshold::for_pulse(self.device.params(), current)?;
        self.device.write_deterministic(MagState::AntiParallel);
        let switched = self.device.flip_with_threshold(threshold, rng);
        self.samples_drawn += 1;
        Ok(switched)
    }

    /// Number of bits drawn so far.
    pub fn samples_drawn(&self) -> u64 {
        self.samples_drawn
    }

    /// The underlying device (for inspecting resistance/energy figures).
    pub fn device(&self) -> &SotMram {
        &self.device
    }
}

/// Generates the length-`N` stochastic binary mask used by the Ising macro.
///
/// One SOT-MRAM unit exists per column of the sub-problem (Section III-B/III-C3 of the
/// paper). Every pulse resets each unit to the anti-parallel state and then pulses it
/// stochastically, so a unit's whole state follows from the outcome of its last pulse
/// (switched = parallel) and the pulse count (two writes per pulse). The generator
/// therefore keeps one outcome per unit rather than a device per unit. It also tracks
/// aggregate energy and latency so the architecture simulator can account for the
/// mask-generation cost.
///
/// # Example
///
/// ```
/// use taxi_device::{DeviceParams, StochasticVectorGenerator, WriteCurrent};
/// use rand::SeedableRng;
///
/// let mut gen = StochasticVectorGenerator::new(DeviceParams::default(), 12)?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
/// let mask = gen.generate(WriteCurrent::from_micro_amps(420.0), &mut rng)?;
/// assert_eq!(mask.len(), 12);
/// # Ok::<(), taxi_device::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StochasticVectorGenerator {
    params: DeviceParams,
    /// Whether each unit switched on the last pulse, before the all-zero fallback; all
    /// `false` before the first pulse. Its length is the mask width.
    switched: Vec<bool>,
    pulses_issued: u64,
}

impl StochasticVectorGenerator {
    /// Creates a generator with `width` independent SOT-MRAM units.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::EmptyVector`] if `width` is zero, or a parameter-validation
    /// error if `params` is inconsistent.
    pub fn new(params: DeviceParams, width: usize) -> Result<Self, DeviceError> {
        if width == 0 {
            return Err(DeviceError::EmptyVector);
        }
        params.validate()?;
        Ok(Self {
            params,
            switched: vec![false; width],
            pulses_issued: 0,
        })
    }

    /// Number of units (mask width).
    pub fn width(&self) -> usize {
        self.switched.len()
    }

    /// The device parameters every unit shares.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Generates one stochastic binary mask at the given write current.
    ///
    /// Mirrors the circuit behaviour described in the paper: if **no** unit switched
    /// (`S = ∅`), the NAND gate opens every unit, so the all-zero mask is replaced by the
    /// all-ones mask (all columns allowed to pass).
    ///
    /// # Errors
    ///
    /// Returns an error if `current` lies outside the stochastic window.
    pub fn generate<R: Rng + ?Sized>(
        &mut self,
        current: WriteCurrent,
        rng: &mut R,
    ) -> Result<Vec<bool>, DeviceError> {
        let mut mask = Vec::with_capacity(self.width());
        self.generate_into(current, rng, &mut mask)?;
        Ok(mask)
    }

    /// Like [`generate`](Self::generate), but writes the mask into a caller-provided
    /// buffer (cleared and refilled), so steady-state mask generation performs no heap
    /// allocation once the buffer is warm.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`generate`](Self::generate).
    pub fn generate_into<R: Rng + ?Sized>(
        &mut self,
        current: WriteCurrent,
        rng: &mut R,
        mask: &mut Vec<bool>,
    ) -> Result<(), DeviceError> {
        let threshold = SwitchThreshold::for_pulse(&self.params, current)?;
        self.generate_at(threshold, rng, mask);
        Ok(())
    }

    /// [`generate_into`](Self::generate_into) for a pulse whose threshold was derived
    /// once, from this generator's device parameters, by
    /// [`SwitchThreshold::for_pulse`]. Each unit draws one bit, in unit order, exactly
    /// as a per-unit [`StochasticBitSource::sample`] loop would.
    pub fn generate_at<R: Rng + ?Sized>(
        &mut self,
        threshold: SwitchThreshold,
        rng: &mut R,
        mask: &mut Vec<bool>,
    ) {
        let mut any = false;
        for unit in &mut self.switched {
            *unit = threshold.draw(rng);
            any |= *unit;
        }
        self.pulses_issued += 1;
        mask.clear();
        if any {
            mask.extend_from_slice(&self.switched);
        } else {
            mask.resize(self.switched.len(), true);
        }
    }

    /// Expected number of ones in a mask generated at `current` (before the empty-set
    /// fallback is applied).
    pub fn expected_ones(&self, current: WriteCurrent) -> f64 {
        self.width() as f64 * self.params.switching_probability(current)
    }

    /// Total number of mask-generation pulses issued so far.
    pub fn pulses_issued(&self) -> u64 {
        self.pulses_issued
    }

    /// Energy of generating one mask (all units pulsed once), in joules.
    pub fn energy_per_mask(&self) -> f64 {
        self.width() as f64 * self.params.write_energy_joules
    }

    /// Latency of generating one mask, in seconds (units are pulsed in parallel).
    pub fn latency_per_mask(&self) -> f64 {
        self.params.write_pulse_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zero_width_is_rejected() {
        assert!(matches!(
            StochasticVectorGenerator::new(DeviceParams::default(), 0),
            Err(DeviceError::EmptyVector)
        ));
    }

    #[test]
    fn mask_has_requested_width() {
        let mut gen = StochasticVectorGenerator::new(DeviceParams::default(), 12).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mask = gen
            .generate(WriteCurrent::from_micro_amps(420.0), &mut rng)
            .unwrap();
        assert_eq!(mask.len(), 12);
    }

    #[test]
    fn empty_mask_falls_back_to_all_ones() {
        // At the very bottom of the stochastic window the switching probability is tiny,
        // so most draws produce the empty set; the circuit must then pass every column.
        let mut gen = StochasticVectorGenerator::new(DeviceParams::default(), 4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut saw_all_ones = false;
        for _ in 0..50 {
            let mask = gen
                .generate(WriteCurrent::from_micro_amps(305.0), &mut rng)
                .unwrap();
            assert!(mask.iter().any(|&b| b), "mask must never be all zeros");
            if mask.iter().all(|&b| b) {
                saw_all_ones = true;
            }
        }
        assert!(saw_all_ones);
    }

    #[test]
    fn mean_ones_tracks_switching_probability() {
        let params = DeviceParams::default();
        let width = 64;
        let mut gen = StochasticVectorGenerator::new(params.clone(), width).unwrap();
        let current = WriteCurrent::from_micro_amps(450.0);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let trials = 2_000;
        let mut total_ones = 0usize;
        for _ in 0..trials {
            total_ones += gen
                .generate(current, &mut rng)
                .unwrap()
                .iter()
                .filter(|&&b| b)
                .count();
        }
        let observed = total_ones as f64 / trials as f64;
        let expected = gen.expected_ones(current);
        assert!(
            (observed - expected).abs() / expected < 0.05,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn expected_ones_decreases_with_current() {
        let gen = StochasticVectorGenerator::new(DeviceParams::default(), 12).unwrap();
        let high = gen.expected_ones(WriteCurrent::from_micro_amps(420.0));
        let low = gen.expected_ones(WriteCurrent::from_micro_amps(353.0));
        assert!(high > low);
    }

    #[test]
    fn bookkeeping_counts_pulses_and_energy() {
        let mut gen = StochasticVectorGenerator::new(DeviceParams::default(), 8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..3 {
            gen.generate(WriteCurrent::from_micro_amps(400.0), &mut rng)
                .unwrap();
        }
        assert_eq!(gen.pulses_issued(), 3);
        assert!(gen.energy_per_mask() > 0.0);
        assert!(gen.latency_per_mask() > 0.0);
    }

    /// The unit-free `generate_into` against the circuit it models: one
    /// `StochasticBitSource::sample` per unit, then the NAND all-zero fallback.
    #[test]
    fn per_pulse_generation_matches_per_unit_sampling() {
        use rand::RngCore;
        const PULSES: usize = 598;
        let params = DeviceParams::default();
        for width in [1usize, 4, 12, 17] {
            let mut gen = StochasticVectorGenerator::new(params.clone(), width).unwrap();
            let mut reference: Vec<StochasticBitSource> = (0..width)
                .map(|_| StochasticBitSource::new(params.clone()))
                .collect();
            let mut rng = ChaCha8Rng::seed_from_u64(width as u64 * 31 + 7);
            let mut ref_rng = rng.clone();
            let mut mask = Vec::new();
            let mut fallbacks = 0;
            // 305 µA sits near the bottom of the window, where the fallback fires. The
            // last pulse is at 420 µA (p = 0.2), so the final unit states differ.
            for (pulse, ua) in [305.0, 353.0, 380.0, 420.0, 500.0, 649.0]
                .iter()
                .cycle()
                .take(PULSES)
                .enumerate()
            {
                let current = WriteCurrent::from_micro_amps(*ua);
                gen.generate_into(current, &mut rng, &mut mask).unwrap();
                let mut expected: Vec<bool> = reference
                    .iter_mut()
                    .map(|unit| unit.sample(current, &mut ref_rng).unwrap())
                    .collect();
                if expected.iter().all(|&b| !b) {
                    expected.iter_mut().for_each(|b| *b = true);
                    fallbacks += 1;
                }
                assert_eq!(mask, expected, "width {width}, pulse {pulse}");
                assert_eq!(gen.pulses_issued(), pulse as u64 + 1);
            }
            assert!(fallbacks > 0, "the all-zero fallback must be exercised");
            // A unit's state is its last pre-fallback outcome, and each pulse is a
            // reset write plus a stochastic write.
            for (&switched, expected) in gen.switched.iter().zip(&reference) {
                assert_eq!(gen.pulses_issued(), expected.samples_drawn());
                assert_eq!(MagState::from_bit(switched), expected.device().state());
                assert_eq!(2 * gen.pulses_issued(), expected.device().write_count());
                assert_eq!(expected.device().write_count(), 2 * PULSES as u64);
            }
            assert_eq!(rng.next_u64(), ref_rng.next_u64(), "same draws consumed");
        }
    }

    #[test]
    fn out_of_window_pulse_fails_before_any_draw() {
        use rand::RngCore;
        let params = DeviceParams::default();
        let mut gen = StochasticVectorGenerator::new(params.clone(), 8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut mask = Vec::new();
        for ua in [0.0, 299.9, 650.0, 700.0] {
            let current = WriteCurrent::from_micro_amps(ua);
            let untouched = rng.clone();
            let err = gen.generate_into(current, &mut rng, &mut mask).unwrap_err();
            assert_eq!(err, params.require_stochastic(current).unwrap_err());
            assert!(matches!(
                err,
                DeviceError::CurrentOutsideStochasticWindow { .. }
            ));
            assert_eq!(rng.clone().next_u64(), untouched.clone().next_u64());
            assert_eq!(gen.pulses_issued(), 0);
            assert!(gen.switched.iter().all(|&switched| !switched));
        }
    }

    #[test]
    fn bit_source_counts_samples() {
        let mut src = StochasticBitSource::new(DeviceParams::default());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..10 {
            src.sample(WriteCurrent::from_micro_amps(500.0), &mut rng)
                .unwrap();
        }
        assert_eq!(src.samples_drawn(), 10);
    }
}
