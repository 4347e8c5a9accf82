//! SOT-MRAM device substrate for the TAXI reproduction.
//!
//! This crate provides behavioural models of the Spin-Orbit-Torque MRAM devices that the
//! paper uses in two roles:
//!
//! 1. **Deterministic memory cells** inside the crossbar array, storing the bit-sliced
//!    distance matrix `W_D` and the spin-storage partition. These are operated above the
//!    deterministic write threshold (> 650 µA in the paper) and read as one of two
//!    resistance states (`R_P` parallel, `R_AP` anti-parallel).
//! 2. **Stochastic bit sources** for the annealing mask. Driven in the stochastic regime
//!    (300 µA – 650 µA), the switching probability follows the sigmoidal `P_sw(I_write)`
//!    characteristic of the device (Fig. 4c of the paper), anchored at
//!    1 % @ 353 µA and 20 % @ 420 µA.
//!
//! The crate deliberately models device *behaviour*, not micromagnetics: everything the
//! higher layers (crossbar, Ising macro, architecture simulator) need is the resistance in
//! each state, the switching probability as a function of write current, and energy/latency
//! per operation.
//!
//! # Example
//!
//! ```
//! use taxi_device::{DeviceParams, SotMram, WriteCurrent, MagState};
//! use rand::SeedableRng;
//!
//! let params = DeviceParams::default();
//! let mut device = SotMram::new(params);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//!
//! // In the stochastic regime the device flips with probability P_sw(I).
//! let i = WriteCurrent::from_micro_amps(420.0);
//! let p = device.params().switching_probability(i);
//! assert!(p > 0.15 && p < 0.25);
//!
//! // In the deterministic regime a write always succeeds.
//! device.write_deterministic(MagState::Parallel);
//! assert_eq!(device.state(), MagState::Parallel);
//! # let _ = device.try_stochastic_flip(i, &mut rng);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod current;
pub mod error;
pub mod params;
pub mod rng;
pub mod rng_comparison;
pub mod sot_mram;
pub mod switching;

pub use current::WriteCurrent;
pub use error::DeviceError;
pub use params::DeviceParams;
pub use rng::{StochasticBitSource, StochasticVectorGenerator};
pub use rng_comparison::{RngProfile, RngTechnology};
pub use sot_mram::{MagState, SotMram, SwitchThreshold};
pub use switching::SwitchingCurve;
