//! Hierarchical clustering substrate for the TAXI reproduction (Section IV of the paper).
//!
//! TAXI decomposes a large TSP bottom-up: cities are grouped into clusters no larger than
//! the maximum sub-problem size an Ising macro can solve; the cluster centroids form the
//! next level and are clustered again, until the topmost level itself fits in one macro.
//! The paper uses **agglomerative clustering with Ward linkage** (rather than the k-means
//! of earlier works) for robustness to outliers and non-spherical clusters.
//!
//! This crate provides:
//!
//! * [`Point`] — 2-D city coordinates,
//! * [`agglomerative`] — Ward-linkage agglomerative clustering via the nearest-neighbour
//!   chain algorithm (O(n) memory; each nearest neighbour found through a uniform grid
//!   over the live centroids, bit-identical to a linear scan), with a divisive
//!   pre-partition for very large levels so that the 85 900-city instance remains
//!   tractable,
//! * [`kmeans`] — Lloyd's algorithm, used by the HVC-style baseline and for the
//!   clustering ablation,
//! * [`hierarchy`] — bottom-up hierarchy construction with a hard maximum cluster size,
//! * [`fixing`] — inter-cluster endpoint fixing: for neighbouring clusters in the
//!   visiting order, the closest city pair pins the exit city of one cluster and the
//!   entry city of the next (Section IV-2).
//!
//! # Example
//!
//! ```
//! use taxi_cluster::{Hierarchy, HierarchyConfig, Point};
//!
//! let cities: Vec<Point> = (0..100)
//!     .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
//!     .collect();
//! let hierarchy = Hierarchy::build(&cities, &HierarchyConfig::new(12)?)?;
//! assert!(hierarchy.num_levels() >= 1);
//! for level in hierarchy.levels() {
//!     for cluster in level.clusters() {
//!         assert!(cluster.members().len() <= 12);
//!     }
//! }
//! # Ok::<(), taxi_cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agglomerative;
pub mod error;
pub mod fixing;
pub mod hierarchy;
pub mod kmeans;
pub mod point;
pub mod stats;

pub use agglomerative::{agglomerative_clusters, AgglomerativeConfig};
pub use error::ClusterError;
pub use fixing::{EndpointFixer, FixedEndpoints, MemberLists};
pub use hierarchy::{ClusterView, Hierarchy, HierarchyConfig, LevelView};
pub use kmeans::{kmeans_clusters, KMeansConfig};
pub use point::Point;
pub use stats::ClusteringStats;
