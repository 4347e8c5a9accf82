//! Single SOT-MRAM device model.

use rand::Rng;

use crate::{DeviceError, DeviceParams, WriteCurrent};

/// Magnetisation state of the free layer relative to the pinned layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MagState {
    /// Parallel alignment: low resistance (`R_P`), read as logic 1 in the spin storage.
    Parallel,
    /// Anti-parallel alignment: high resistance (`R_AP`), read as logic 0.
    #[default]
    AntiParallel,
}

impl MagState {
    /// Returns the opposite state.
    pub fn flipped(self) -> Self {
        match self {
            MagState::Parallel => MagState::AntiParallel,
            MagState::AntiParallel => MagState::Parallel,
        }
    }

    /// Interprets the state as a binary spin value (`Parallel` → 1, `AntiParallel` → 0),
    /// matching the spin-storage encoding of the paper.
    pub fn as_bit(self) -> u8 {
        match self {
            MagState::Parallel => 1,
            MagState::AntiParallel => 0,
        }
    }

    /// Builds a state from a binary spin value.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            MagState::Parallel
        } else {
            MagState::AntiParallel
        }
    }
}

/// A switching probability as an integer threshold on a 53-bit draw: the one place a
/// stochastic pulse decides whether a device switched.
///
/// `gen_bool(p)` switches when `u · 2⁻⁵³ < p` for the draw `u = next_u64() >> 11`.
/// Scaling by 2⁵³ is exact, and `u` is an integer, so that holds exactly when
/// `u < ⌈p · 2⁵³⌉`. The threshold is computed once per pulse and every decision is an
/// integer compare, with the same outcome and the same RNG words as `gen_bool(p)`.
///
/// A threshold depends only on the device parameters and the write current, so an
/// annealing schedule's thresholds can be derived once and reused by every solve.
///
/// # Example
///
/// ```
/// use taxi_device::{DeviceParams, SwitchThreshold, WriteCurrent};
///
/// let params = DeviceParams::default();
/// let pulse = SwitchThreshold::for_pulse(&params, WriteCurrent::from_micro_amps(420.0))?;
/// assert!(SwitchThreshold::for_pulse(&params, WriteCurrent::from_micro_amps(700.0)).is_err());
/// # let _ = pulse;
/// # Ok::<(), taxi_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchThreshold(u64);

impl SwitchThreshold {
    /// The threshold of a stochastic pulse at `current`: one window check, one sigmoid
    /// evaluation and one rounding.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CurrentOutsideStochasticWindow`] if `current` lies outside
    /// the stochastic window of `params`.
    pub fn for_pulse(params: &DeviceParams, current: WriteCurrent) -> Result<Self, DeviceError> {
        params.require_stochastic(current)?;
        Ok(Self::new(params.switching_probability(current)))
    }

    /// The threshold for probability `p`, clamped to `[0, 1]` as `gen_bool` clamps it.
    /// A NaN `p` never switches, as `u · 2⁻⁵³ < NaN` never holds.
    pub(crate) fn new(p: f64) -> Self {
        // The float-to-int cast saturates and maps NaN to 0.
        Self((p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64)
    }

    /// Draws one Bernoulli bit: one `next_u64`, exactly as `gen_bool` draws.
    #[inline]
    pub(crate) fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        (rng.next_u64() >> 11) < self.0
    }
}

/// A single 3T-1M SOT-MRAM cell's magnetic tunnel junction.
///
/// The cell tracks its magnetisation state and exposes deterministic writes (used for the
/// distance-matrix and spin-storage partitions), stochastic writes (used by the
/// stochastic-mask circuit), and resistance/conductance reads.
///
/// # Example
///
/// ```
/// use taxi_device::{DeviceParams, MagState, SotMram};
///
/// let mut cell = SotMram::new(DeviceParams::default());
/// cell.write_deterministic(MagState::Parallel);
/// assert!(cell.conductance() > 1.0 / 6_000.0); // low-resistance state
/// cell.write_deterministic(MagState::AntiParallel);
/// assert!(cell.resistance() > 10_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SotMram {
    params: DeviceParams,
    state: MagState,
    write_count: u64,
}

impl SotMram {
    /// Creates a device in the anti-parallel (high-resistance / logic 0) state.
    pub fn new(params: DeviceParams) -> Self {
        Self {
            params,
            state: MagState::AntiParallel,
            write_count: 0,
        }
    }

    /// Creates a device in a specific initial state.
    pub fn with_state(params: DeviceParams, state: MagState) -> Self {
        Self {
            params,
            state,
            write_count: 0,
        }
    }

    /// The device parameters.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Current magnetisation state.
    pub fn state(&self) -> MagState {
        self.state
    }

    /// Number of write operations performed on this device (wear proxy).
    pub fn write_count(&self) -> u64 {
        self.write_count
    }

    /// Resistance in the current state, in ohms.
    pub fn resistance(&self) -> f64 {
        match self.state {
            MagState::Parallel => self.params.r_parallel_ohms,
            MagState::AntiParallel => self.params.r_antiparallel_ohms,
        }
    }

    /// Conductance in the current state, in siemens.
    pub fn conductance(&self) -> f64 {
        1.0 / self.resistance()
    }

    /// Deterministic write: forces the device into `target` (models a write pulse above
    /// the deterministic threshold, > 650 µA in the paper).
    pub fn write_deterministic(&mut self, target: MagState) {
        self.state = target;
        self.write_count += 1;
    }

    /// Attempts a deterministic write with an explicit current, validating the regime.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CurrentBelowDeterministicThreshold`] if `current` is below
    /// the deterministic switching threshold.
    pub fn write_with_current(
        &mut self,
        target: MagState,
        current: WriteCurrent,
    ) -> Result<(), DeviceError> {
        if current < self.params.deterministic_threshold {
            return Err(DeviceError::CurrentBelowDeterministicThreshold {
                current,
                threshold: self.params.deterministic_threshold,
            });
        }
        self.write_deterministic(target);
        Ok(())
    }

    /// Stochastic write pulse in the stochastic regime: the device flips with probability
    /// `P_sw(current)`. Returns whether the device switched.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CurrentOutsideStochasticWindow`] if the current lies outside
    /// the stochastic operating window.
    pub fn try_stochastic_flip<R: Rng + ?Sized>(
        &mut self,
        current: WriteCurrent,
        rng: &mut R,
    ) -> Result<bool, DeviceError> {
        let threshold = SwitchThreshold::for_pulse(&self.params, current)?;
        Ok(self.flip_with_threshold(threshold, rng))
    }

    /// One stochastic write pulse at a threshold from [`SwitchThreshold::for_pulse`]:
    /// draws one Bernoulli bit, counts the write and flips the state when the bit is
    /// set.
    #[inline]
    pub(crate) fn flip_with_threshold<R: Rng + ?Sized>(
        &mut self,
        threshold: SwitchThreshold,
        rng: &mut R,
    ) -> bool {
        self.write_count += 1;
        let switched = threshold.draw(rng);
        if switched {
            self.state = self.state.flipped();
        }
        switched
    }

    /// Energy dissipated by a single write pulse, in joules.
    pub fn write_energy(&self) -> f64 {
        self.params.write_energy_joules
    }

    /// Latency of a single write pulse, in seconds.
    pub fn write_latency(&self) -> f64 {
        self.params.write_pulse_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn starts_in_high_resistance_state() {
        let cell = SotMram::new(DeviceParams::default());
        assert_eq!(cell.state(), MagState::AntiParallel);
        assert!(cell.resistance() > 10_000.0);
    }

    #[test]
    fn deterministic_write_sets_state() {
        let mut cell = SotMram::new(DeviceParams::default());
        cell.write_deterministic(MagState::Parallel);
        assert_eq!(cell.state(), MagState::Parallel);
        assert_eq!(cell.write_count(), 1);
    }

    #[test]
    fn write_with_low_current_is_rejected() {
        let mut cell = SotMram::new(DeviceParams::default());
        let err = cell
            .write_with_current(MagState::Parallel, WriteCurrent::from_micro_amps(400.0))
            .unwrap_err();
        assert!(matches!(
            err,
            DeviceError::CurrentBelowDeterministicThreshold { .. }
        ));
        assert_eq!(cell.state(), MagState::AntiParallel);
    }

    #[test]
    fn write_with_sufficient_current_succeeds() {
        let mut cell = SotMram::new(DeviceParams::default());
        cell.write_with_current(MagState::Parallel, WriteCurrent::from_micro_amps(700.0))
            .expect("write in deterministic regime");
        assert_eq!(cell.state(), MagState::Parallel);
    }

    #[test]
    fn stochastic_flip_outside_window_is_rejected() {
        let mut cell = SotMram::new(DeviceParams::default());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let err = cell
            .try_stochastic_flip(WriteCurrent::from_micro_amps(700.0), &mut rng)
            .unwrap_err();
        assert!(matches!(
            err,
            DeviceError::CurrentOutsideStochasticWindow { .. }
        ));
    }

    #[test]
    fn stochastic_flip_rate_tracks_probability() {
        let params = DeviceParams::default();
        let current = WriteCurrent::from_micro_amps(420.0);
        let expected = params.switching_probability(current);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let trials = 20_000;
        let mut flips = 0u32;
        for _ in 0..trials {
            let mut cell = SotMram::new(params.clone());
            if cell.try_stochastic_flip(current, &mut rng).unwrap() {
                flips += 1;
            }
        }
        let observed = f64::from(flips) / f64::from(trials);
        assert!(
            (observed - expected).abs() < 0.01,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn bit_round_trip() {
        assert_eq!(MagState::from_bit(true).as_bit(), 1);
        assert_eq!(MagState::from_bit(false).as_bit(), 0);
        assert_eq!(MagState::Parallel.flipped(), MagState::AntiParallel);
    }

    /// Returns one fixed word.
    struct Fixed(u64);
    impl rand::RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Probabilities where an off-by-one in the threshold would show: 0, 1, exact
    /// multiples of 2⁻⁵³ and their neighbouring doubles, and values outside `[0, 1]`.
    fn edge_probabilities(k: u64) -> Vec<f64> {
        let grid = k as f64 / (1u64 << 53) as f64;
        let mut ps = vec![0.0, 1.0, -0.0, -1e-300, 1.5, f64::NAN, f64::INFINITY, grid];
        for p in [0.0, 1.0, grid] {
            let bits = p.to_bits();
            ps.push(f64::from_bits(bits + 1));
            if bits > 0 {
                ps.push(f64::from_bits(bits - 1));
            }
        }
        ps
    }

    proptest::proptest! {
        /// The integer threshold decides exactly as `gen_bool(p)` does, for any word,
        /// including words whose 53-bit draw sits right at the threshold.
        #[test]
        fn threshold_decision_equals_gen_bool(
            p in 0.0f64..=1.0,
            k in 0u64..=(1u64 << 53),
            word in 0..=u64::MAX,
        ) {
            let mut ps = edge_probabilities(k);
            ps.push(p);
            for p in ps {
                let t = SwitchThreshold::new(p);
                let mut words = vec![word];
                for draw in [t.0.saturating_sub(1), t.0, t.0 + 1, k] {
                    if draw < 1u64 << 53 {
                        words.push((draw << 11) | (word & 0x7ff));
                    }
                }
                for w in words {
                    proptest::prop_assert_eq!(
                        t.draw(&mut Fixed(w)),
                        Fixed(w).gen_bool(p),
                        "p = {:e}, word = {:#x}", p, w
                    );
                }
            }
        }
    }

    #[test]
    fn conductance_matches_state() {
        let params = DeviceParams::default();
        let mut cell = SotMram::new(params.clone());
        assert!((cell.conductance() - params.g_antiparallel()).abs() < 1e-15);
        cell.write_deterministic(MagState::Parallel);
        assert!((cell.conductance() - params.g_parallel()).abs() < 1e-15);
    }
}
