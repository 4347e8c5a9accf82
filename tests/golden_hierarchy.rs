//! Golden-hierarchy bit-identity regression.
//!
//! `tests/fixtures/golden_hierarchy.txt` holds an FNV-1a digest of every level of
//! [`Hierarchy::build`] under the default solver configuration, captured from the
//! linear-scan NN-chain Ward clustering. Each line is
//! `instance|level|clusters|digest`, where the digest covers the level's flat
//! membership, its per-cluster offsets and the bits of its centroids. Any change to
//! the clustering that moves one member or one centroid bit fails this test.
//!
//! The grid instance has more than 20,000 cities, so level 0 runs the chunked
//! (median-split) path; the clustered instance runs the exact path on every level, and
//! the exact lattice makes most merges hinge on the tie rule.
//!
//! Regenerate the fixture (only for a deliberate, reviewed change of the clustering):
//!
//! ```text
//! cargo test --release --test golden_hierarchy -- --ignored
//! ```

use taxi::TaxiConfig;
use taxi_cluster::{Hierarchy, Point};
use taxi_tsplib::generator::{clustered_instance, grid_drilling_instance};
use taxi_tsplib::{EdgeWeightKind, TspInstance};

const FIXTURE: &str = "tests/fixtures/golden_hierarchy.txt";

/// The exact instances the fixture was captured on.
fn golden_instances() -> Vec<TspInstance> {
    vec![
        grid_drilling_instance("golden-grid", 20_736, 3),
        clustered_instance("golden-clustered", 3_000, 24, 7),
        lattice_instance("golden-lattice", 64),
    ]
}

/// An exact `side × side` integer lattice: every early Ward delta ties, so the
/// smaller-index tie rule decides most merges.
fn lattice_instance(name: &str, side: usize) -> TspInstance {
    let coords = (0..side * side)
        .map(|i| ((i % side) as f64, (i / side) as f64))
        .collect();
    TspInstance::from_coordinates(name, coords, EdgeWeightKind::Euclidean)
        .expect("lattice coordinates are valid")
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One fixture line per hierarchy level of every golden instance.
fn digest_lines() -> Vec<String> {
    let config = TaxiConfig::new()
        .hierarchy_config()
        .expect("the default configuration is valid");
    let mut lines = Vec::new();
    for instance in golden_instances() {
        let cities: Vec<Point> = instance
            .coordinates()
            .expect("generated instances have coordinates")
            .iter()
            .map(|&(x, y)| Point::new(x, y))
            .collect();
        let hierarchy = Hierarchy::build(&cities, &config).expect("hierarchy builds");
        for (li, level) in hierarchy.levels().enumerate() {
            let mut hash = Fnv1a::new();
            let mut offset = 0u32;
            for cluster in level.clusters() {
                for &m in cluster.members() {
                    hash.write(&m.to_le_bytes());
                }
                offset += cluster.len() as u32;
                hash.write(&offset.to_le_bytes());
                hash.write(&cluster.centroid().x.to_bits().to_le_bytes());
                hash.write(&cluster.centroid().y.to_bits().to_le_bytes());
            }
            lines.push(format!(
                "{}|{li}|{}|{:016x}",
                instance.name(),
                level.len(),
                hash.0
            ));
        }
    }
    lines
}

#[test]
fn default_hierarchies_match_the_golden_digests() {
    let fixture = include_str!("fixtures/golden_hierarchy.txt");
    let expected: Vec<&str> = fixture.lines().filter(|l| !l.trim().is_empty()).collect();
    let actual = digest_lines();
    assert!(!expected.is_empty(), "empty fixture {FIXTURE}");
    assert_eq!(actual, expected, "hierarchy digests moved ({FIXTURE})");
}

#[test]
#[ignore = "rewrites the fixture; run only for a deliberate change of the clustering"]
fn regenerate_golden_hierarchy_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let mut text = digest_lines().join("\n");
    text.push('\n');
    std::fs::write(&path, text).expect("fixture is writable");
}
