//! Output checks: every tour is a permutation of its instance whose recomputed
//! length equals the reported one, and repeated or served solves match a
//! reference solve bit for bit.

use taxi::TaxiSolution;
use taxi_tsplib::{Tour, TspInstance};

/// Checks that `tour` visits every city of `instance` exactly once and that its
/// length, recomputed from the coordinates, equals `reported` bit for bit.
pub fn tour(what: &str, instance: &TspInstance, tour: &Tour, reported: f64) -> Result<(), String> {
    let n = instance.dimension();
    let order = tour.order();
    if order.len() != n {
        return Err(format!(
            "{what}: tour has {} cities, instance {n}",
            order.len()
        ));
    }
    let mut seen = vec![false; n];
    for &city in order {
        if city >= n || std::mem::replace(&mut seen[city], true) {
            return Err(format!("{what}: tour is not a permutation (city {city})"));
        }
    }
    let recomputed: f64 = (0..n)
        .map(|i| {
            instance
                .distance(order[i], order[(i + 1) % n])
                .expect("indices were checked above")
        })
        .sum();
    if recomputed.to_bits() != reported.to_bits() {
        return Err(format!(
            "{what}: reported length {reported} but the tour measures {recomputed}"
        ));
    }
    Ok(())
}

/// Checks that two solutions of one instance have the same tour and the same
/// length, bit for bit.
pub fn identical(what: &str, got: &TaxiSolution, want: &TaxiSolution) -> Result<(), String> {
    if got.tour.order() != want.tour.order() || got.length.to_bits() != want.length.to_bits() {
        return Err(format!(
            "{what}: length {} differs from the reference solve's {}",
            got.length, want.length
        ));
    }
    Ok(())
}

/// The modelled chip latency of a solve: Ising + transfer + mapping seconds, the
/// Account stage's `modeled_seconds`. Host-measured clustering and fixing times
/// are left out, so the value is exact at a fixed seed.
pub fn chip_seconds(solution: &TaxiSolution) -> f64 {
    solution.latency.ising_seconds
        + solution.latency.transfer_seconds
        + solution.latency.mapping_seconds
}
