//! The preliminary pipeline of paper Fig. 1: PCAP source data -> NetFlow
//! (flow assembly) -> property-graph -> structural & attribute analysis.

use crate::analysis::SeedAnalysis;
use csb_graph::{graph_from_flows, NetflowGraph};
use csb_net::assembler::FlowAssembler;
use csb_net::packet::Packet;
use csb_net::trace::Trace;
use csb_store::CsbError;

/// The seed: the property-graph built from the source trace plus its
/// analysis, ready to be handed to PGPBA/PGSK.
#[derive(Debug, Clone)]
pub struct SeedBundle {
    /// The seed property-graph.
    pub graph: NetflowGraph,
    /// Its structural and attribute distributions.
    pub analysis: SeedAnalysis,
}

impl SeedBundle {
    /// Analyzes `graph` into a seed. A graph without edges has no degree or
    /// attribute distributions to draw from and is refused: seed graphs
    /// arrive from files and wire requests.
    pub fn from_graph(graph: NetflowGraph) -> Result<SeedBundle, CsbError> {
        if graph.edge_count() == 0 {
            return Err(CsbError::Config(format!(
                "seed graph has no edges ({} vertices): nothing to grow from",
                graph.vertex_count()
            )));
        }
        let analysis = SeedAnalysis::of(&graph);
        Ok(SeedBundle { graph, analysis })
    }

    /// Seed edge count (the paper reports its seed as 1,940,814 edges).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Runs the full preliminary pipeline on raw packets.
///
/// # Panics
/// Panics if the packets yield no flows (empty seed).
pub fn seed_from_packets(packets: &[Packet]) -> SeedBundle {
    let flows = FlowAssembler::assemble(packets);
    assert!(!flows.is_empty(), "seed trace produced no flows");
    SeedBundle::from_graph(graph_from_flows(&flows)).expect("every flow is an edge")
}

/// Convenience wrapper over a [`Trace`].
pub fn seed_from_trace(trace: &Trace) -> SeedBundle {
    seed_from_packets(&trace.packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};

    fn sim_trace() -> Trace {
        TrafficSim::new(TrafficSimConfig {
            duration_secs: 20.0,
            sessions_per_sec: 30.0,
            seed: 11,
            ..TrafficSimConfig::default()
        })
        .generate()
    }

    #[test]
    fn pipeline_builds_nonempty_seed() {
        let seed = seed_from_trace(&sim_trace());
        assert!(seed.graph.vertex_count() > 10);
        assert!(seed.edge_count() > 100);
        // Degree distributions exist and are heavy-ish tailed: max out-degree
        // well above the mean.
        let max = seed.analysis.out_degree.max() as f64;
        let mean = seed.analysis.out_degree.mean();
        assert!(max > mean * 3.0, "max {max} vs mean {mean}");
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = seed_from_trace(&sim_trace());
        let b = seed_from_trace(&sim_trace());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
    }

    #[test]
    fn pcap_round_trip_preserves_seed() {
        // Fig. 1 starts from *PCAP data*: write the trace to the on-disk
        // format, read it back, and check the seed is identical.
        let trace = sim_trace();
        let mut bytes = Vec::new();
        csb_net::pcap::write_pcap(&mut bytes, &trace.packets).expect("write");
        let packets = csb_net::pcap::read_pcap(&bytes[..]).expect("read");
        let direct = seed_from_trace(&trace);
        let via_pcap = seed_from_packets(&packets);
        assert_eq!(direct.graph.edge_count(), via_pcap.graph.edge_count());
        assert_eq!(direct.graph.vertex_count(), via_pcap.graph.vertex_count());
    }

    #[test]
    fn edgeless_graph_is_a_config_error() {
        let mut g = NetflowGraph::new();
        g.add_vertex(0x0A00_0001);
        let err = SeedBundle::from_graph(g).expect_err("no edges");
        assert!(matches!(&err, CsbError::Config(m) if m.contains("no edges")), "got {err}");
    }

    #[test]
    #[should_panic(expected = "no flows")]
    fn empty_trace_rejected() {
        let _ = seed_from_packets(&[]);
    }
}
