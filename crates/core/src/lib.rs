//! # csb-core
//!
//! The paper's contribution: two property-graph synthetic data generators
//! for benchmarking next-generation intrusion detection systems.
//!
//! * [`pgpba`] — **Property-Graph Parallel Barabási-Albert** (paper Fig. 2):
//!   grows a seed graph by two-stage preferential attachment over the edge
//!   list (sample an edge uniformly, then one of its endpoints), attaching
//!   new vertices with in/out edge counts drawn from the seed's degree
//!   distributions, then samples NetFlow attributes for every edge.
//! * [`pgsk`] — **Property-Graph Stochastic Kronecker** (paper Fig. 3):
//!   deduplicates the seed multigraph, fits a 2x2 stochastic Kronecker
//!   initiator with [`kronecker::kronfit`], expands by recursive-descent
//!   edge placement, re-inflates multi-edges from the seed out-degree
//!   distribution, and samples attributes.
//!
//! Both generators are fronted by [`GenJob`], a single builder covering the
//! in-memory, timed, distributed, sink-streaming, and checkpointed-store
//! execution paths (the in-memory free functions [`pgpba()`] and [`pgsk()`]
//! stay public; sink and store output go through the builder only).
//! Checkpointed store runs survive crashes: killed mid-write, they resume
//! from the last durable barrier to a byte-identical file.
//!
//! Supporting modules: [`seed`] (the Fig. 1 preliminary pipeline: PCAP ->
//! NetFlow -> property-graph -> analysis), [`analysis`] (degree and
//! conditional attribute distributions, `p(a | IN_BYTES)`), [`veracity`]
//! (the Section V-A scores plus the Veracity 2.0 multi-metric suite behind
//! [`VeracityJob`]), and [`distributed`] (map-reduce
//! implementations on `csb-engine` mirroring the paper's Spark/GraphX code
//! path, plus simulated-cluster performance estimation).

pub mod analysis;
pub mod campaign_job;
pub mod config;
pub mod diagnostics;
pub mod distributed;
pub mod job;
pub mod kronecker;
pub mod pgpba;
pub mod pgsk;
pub mod seed;
pub mod stream;
pub mod topo;
pub mod veracity;

pub use analysis::{PropertyModel, SeedAnalysis};
pub use campaign_job::{CampaignJob, CampaignOutcome};
pub use config::{PgpbaConfig, PgskConfig};
pub use diagnostics::PhaseTimings;
pub use distributed::DistConfig;
pub use job::{GenConfig, GenJob, GenRun};
pub use pgpba::pgpba;
pub use pgsk::pgsk;
pub use seed::{seed_from_packets, seed_from_trace, SeedBundle};
pub use stream::attach_properties_to_sink;
pub use veracity::{DynEdgeScan, Metric, MetricScore, VeracityJob, VeracityReport};
