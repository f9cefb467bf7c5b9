//! # csb
//!
//! Facade crate for the Cyber-Security Benchmark (CSB) data-generation suite:
//! a Rust reproduction of *"A Comparison of Graph-Based Synthetic Data
//! Generators for Benchmarking Next-Generation Intrusion Detection Systems"*
//! (IEEE CLUSTER 2017).
//!
//! Re-exports the workspace crates under stable names:
//!
//! * [`stats`] — distributions, sampling, veracity metrics.
//! * [`net`] — packets, PCAP, NetFlow, traffic simulation, attacks.
//! * [`graph`] — the directed property multigraph and analytics kernels.
//! * [`engine`] — the mini map-reduce engine and simulated cluster.
//! * [`gen`] — the PGPBA and PGSK generators (the paper's contribution).
//! * [`ids`] — the NetFlow anomaly-detection approach of paper Section IV.
//! * [`models`] — baseline random-graph models (ER, WS, BA, CL, SBM, R-MAT,
//!   BTER) for comparison.
//! * [`workloads`] — the benchmark's query workloads (node / edge / path /
//!   sub-graph).
//! * [`store`] — the chunked columnar binary store for graphs and flows,
//!   with streaming sinks.
//! * [`obs`] — zero-dependency spans, metrics, and trace/metrics exporters.

pub use csb_core as gen;
pub use csb_engine as engine;
pub use csb_graph as graph;
pub use csb_ids as ids;
pub use csb_models as models;
pub use csb_net as net;
pub use csb_obs as obs;
pub use csb_stats as stats;
pub use csb_store as store;
pub use csb_workloads as workloads;
