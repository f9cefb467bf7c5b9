//! # csb-engine
//!
//! A miniature map-reduce dataflow engine plus a simulated-cluster cost
//! model — the stand-in for the paper's Apache Spark / GraphX substrate.
//!
//! Two cooperating layers:
//!
//! * **Real execution** — [`Pdd`] ("partitioned distributed dataset", the
//!   RDD analogue) runs `flat_map` / `flat_map_indexed` /
//!   `sample_with_replacement` / `union` / `distinct` over real partitions
//!   on the rayon pool. The distributed generator implementations in
//!   `csb-core` run on this layer, so their output is *actual data*,
//!   verifiable against the in-process reference implementations.
//! * **Simulated platform** — [`cluster::ClusterConfig`] describes a cluster
//!   (the Shadow II preset matches the paper's testbed: nodes x 20 cores x
//!   512 GB, 54 Gb/s interconnect) and [`sim::SimCluster`] converts operator
//!   record counts into simulated wall-clock time and per-node memory via the
//!   calibrated [`costmodel::CostModel`]. This is what regenerates the
//!   paper's cluster-scale figures (8-12) on a laptop: the *shapes* (core
//!   saturation, linear scaling in edges, shuffle-bound speedup loss) come
//!   from the model's structure, with constants documented in `costmodel`.

pub mod cluster;
pub mod costmodel;
pub mod dataset;
pub mod metrics;
pub mod retry;
pub mod sim;

pub use cluster::ClusterConfig;
pub use costmodel::CostModel;
pub use dataset::Pdd;
pub use metrics::JobMetrics;
pub use retry::{FaultConfig, RetryPolicy, TaskPolicy};
pub use sim::{SimCluster, SimReport};
