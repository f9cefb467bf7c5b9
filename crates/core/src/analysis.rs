//! Seed analysis (paper Fig. 1, last step): the structural and attribute
//! distributions that drive generation.
//!
//! Structure: the in- and out-degree empirical distributions. Attributes:
//! following the paper, the unconditional distribution `p(IN_BYTES)` is
//! computed first and every other NetFlow attribute `a` is modeled as
//! `p(a | IN_BYTES)`, so that generated attributes are mutually consistent
//! (a 60-byte flow gets DNS-like ports and one packet, not a gigabyte
//! duration).

use csb_graph::{EdgeProperties, NetflowGraph};
use csb_net::flow::{Protocol, TcpConnState};
use csb_stats::{ConditionalDistribution, EmpiricalDistribution};
use rand::Rng;

/// The attribute model: `p(IN_BYTES)` plus `p(a | IN_BYTES)` for the other
/// eight NetFlow attributes.
///
/// The fields are private because `in_bytes_bucket` is derived from the
/// others at construction and must not go stale.
#[derive(Debug, Clone)]
pub struct PropertyModel {
    /// Unconditional `p(IN_BYTES)`.
    in_bytes: EmpiricalDistribution,
    /// The conditioning bucket of `in_bytes.support()[i]`, so [`Self::sample`]
    /// buckets once per support value at construction instead of eight times
    /// per edge (a `u64` has at most 64 buckets).
    in_bytes_bucket: Vec<u8>,
    /// `p(PROTOCOL | IN_BYTES)` over IANA protocol numbers.
    protocol: ConditionalDistribution,
    /// `p(SRC_PORT | IN_BYTES)`.
    src_port: ConditionalDistribution,
    /// `p(DEST_PORT | IN_BYTES)`.
    dst_port: ConditionalDistribution,
    /// `p(DURATION | IN_BYTES)` (milliseconds).
    duration_ms: ConditionalDistribution,
    /// `p(OUT_BYTES | IN_BYTES)`.
    out_bytes: ConditionalDistribution,
    /// `p(OUT_PKTS | IN_BYTES)`.
    out_pkts: ConditionalDistribution,
    /// `p(IN_PKTS | IN_BYTES)`.
    in_pkts: ConditionalDistribution,
    /// `p(STATE | IN_BYTES)` over [`TcpConnState`] codes.
    state: ConditionalDistribution,
}

impl PropertyModel {
    /// Extracts the model from a seed graph's edges.
    ///
    /// # Panics
    /// Panics if the graph has no edges.
    pub fn from_graph(g: &NetflowGraph) -> Self {
        assert!(g.edge_count() > 0, "property model needs at least one edge");
        let props = g.edge_data();
        let in_bytes = EmpiricalDistribution::from_samples(props.iter().map(|p| p.in_bytes));
        // The conditionals' own bucket function, so build and lookup cannot
        // disagree.
        let in_bytes_bucket = in_bytes
            .support()
            .iter()
            .map(|&v| ConditionalDistribution::bucket_of(v) as u8)
            .collect();
        let pairs = |f: &dyn Fn(&EdgeProperties) -> u64| {
            props.iter().map(|p| (p.in_bytes, f(p))).collect::<Vec<_>>()
        };
        PropertyModel {
            in_bytes,
            in_bytes_bucket,
            protocol: ConditionalDistribution::from_pairs(pairs(&|p| p.protocol.number() as u64)),
            src_port: ConditionalDistribution::from_pairs(pairs(&|p| p.src_port as u64)),
            dst_port: ConditionalDistribution::from_pairs(pairs(&|p| p.dst_port as u64)),
            duration_ms: ConditionalDistribution::from_pairs(pairs(&|p| p.duration_ms)),
            out_bytes: ConditionalDistribution::from_pairs(pairs(&|p| p.out_bytes)),
            out_pkts: ConditionalDistribution::from_pairs(pairs(&|p| p.out_pkts)),
            in_pkts: ConditionalDistribution::from_pairs(pairs(&|p| p.in_pkts)),
            state: ConditionalDistribution::from_pairs(pairs(&|p| p.state.code())),
        }
    }

    /// Unconditional `p(IN_BYTES)`.
    pub fn in_bytes(&self) -> &EmpiricalDistribution {
        &self.in_bytes
    }

    /// Samples one edge's attributes *independently* from the marginals —
    /// the strawman the conditional design replaces. Kept for the
    /// `ablation_conditional_props` harness: independent sampling destroys
    /// cross-attribute correlations (e.g. a 60-byte flow can receive a
    /// 10^6-packet count).
    pub fn sample_independent<R: Rng + ?Sized>(&self, rng: &mut R) -> EdgeProperties {
        let protocol = Protocol::from_number(self.protocol.marginal().sample(rng) as u8)
            .unwrap_or(Protocol::Tcp);
        let state =
            TcpConnState::from_code(self.state.marginal().sample(rng)).unwrap_or(TcpConnState::Oth);
        EdgeProperties {
            protocol,
            src_port: self.src_port.marginal().sample(rng) as u16,
            dst_port: self.dst_port.marginal().sample(rng) as u16,
            duration_ms: self.duration_ms.marginal().sample(rng),
            out_bytes: self.out_bytes.marginal().sample(rng),
            in_bytes: self.in_bytes.sample(rng),
            out_pkts: self.out_pkts.marginal().sample(rng),
            in_pkts: self.in_pkts.marginal().sample(rng),
            state,
        }
    }

    /// Samples one edge's attributes: `IN_BYTES` first, the rest conditioned
    /// on it (paper Fig. 1 commentary / Fig. 2 lines 15-20).
    ///
    /// The draw order is the byte contract of every generated graph:
    /// `IN_BYTES`, then `PROTOCOL`, `STATE`, `SRC_PORT`, `DST_PORT`,
    /// `DURATION`, `OUT_BYTES`, `OUT_PKTS`, `IN_PKTS`, each one alias draw
    /// (an index, then a coin) — eighteen draws an edge. Every support value
    /// of `IN_BYTES` came from a seed edge that populated its bucket in all
    /// eight conditionals, so no draw here falls back to a marginal.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> EdgeProperties {
        let i = self.in_bytes.sample_index(rng);
        let in_bytes = self.in_bytes.support()[i];
        let bucket = self.in_bytes_bucket[i] as usize;
        let protocol = Protocol::from_number(self.protocol.sample_in_bucket(bucket, rng) as u8)
            .unwrap_or(Protocol::Tcp);
        let state = TcpConnState::from_code(self.state.sample_in_bucket(bucket, rng))
            .unwrap_or(TcpConnState::Oth);
        EdgeProperties {
            protocol,
            src_port: self.src_port.sample_in_bucket(bucket, rng) as u16,
            dst_port: self.dst_port.sample_in_bucket(bucket, rng) as u16,
            duration_ms: self.duration_ms.sample_in_bucket(bucket, rng),
            out_bytes: self.out_bytes.sample_in_bucket(bucket, rng),
            in_bytes,
            out_pkts: self.out_pkts.sample_in_bucket(bucket, rng),
            in_pkts: self.in_pkts.sample_in_bucket(bucket, rng),
            state,
        }
    }
}

/// Everything the generators need to know about the seed.
#[derive(Debug, Clone)]
pub struct SeedAnalysis {
    /// Empirical in-degree distribution of the seed's vertices.
    pub in_degree: EmpiricalDistribution,
    /// Empirical out-degree distribution.
    pub out_degree: EmpiricalDistribution,
    /// The attribute model.
    pub properties: PropertyModel,
}

impl SeedAnalysis {
    /// Analyzes a seed graph.
    ///
    /// # Panics
    /// Panics if the graph has no vertices or no edges.
    pub fn of(g: &NetflowGraph) -> Self {
        assert!(g.vertex_count() > 0, "seed graph has no vertices");
        let dd = csb_graph::algo::degree_distribution(g);
        SeedAnalysis {
            in_degree: dd.in_degree,
            out_degree: dd.out_degree,
            properties: PropertyModel::from_graph(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csb_graph::graph_from_flows;
    use csb_net::flow::FlowRecord;
    use csb_stats::rng::rng_for;

    fn flow(src: u32, dst: u32, in_bytes: u64, dur: u64, proto: Protocol) -> FlowRecord {
        FlowRecord {
            src_ip: src,
            dst_ip: dst,
            protocol: proto,
            src_port: 40000,
            dst_port: if proto == Protocol::Udp { 53 } else { 80 },
            duration_ms: dur,
            out_bytes: in_bytes / 10 + 1,
            in_bytes,
            out_pkts: 2,
            in_pkts: in_bytes / 1400 + 1,
            state: if proto == Protocol::Udp { TcpConnState::Oth } else { TcpConnState::Sf },
            syn_count: 1,
            ack_count: 2,
            first_ts_micros: 0,
        }
    }

    fn seed_graph() -> NetflowGraph {
        // Two regimes: small UDP flows (~100 B, short) and big TCP flows
        // (~1 MB, long).
        let mut flows = Vec::new();
        for i in 0..50u32 {
            flows.push(flow(1, 2 + i % 5, 100 + (i % 7) as u64, 10, Protocol::Udp));
            flows.push(flow(2 + i % 5, 1, 1_000_000 + (i % 3) as u64, 5_000, Protocol::Tcp));
        }
        graph_from_flows(&flows)
    }

    #[test]
    fn conditional_sampling_is_consistent() {
        let g = seed_graph();
        let model = PropertyModel::from_graph(&g);
        let mut rng = rng_for(1, 0);
        for _ in 0..500 {
            let p = model.sample(&mut rng);
            if p.in_bytes < 1000 {
                // Small flows must look like the UDP regime.
                assert_eq!(p.protocol, Protocol::Udp, "small flow got {:?}", p.protocol);
                assert_eq!(p.duration_ms, 10);
                assert_eq!(p.dst_port, 53);
                assert_eq!(p.state, TcpConnState::Oth);
            } else {
                assert_eq!(p.protocol, Protocol::Tcp, "large flow got {:?}", p.protocol);
                assert_eq!(p.duration_ms, 5_000);
                assert_eq!(p.dst_port, 80);
                assert_eq!(p.state, TcpConnState::Sf);
            }
        }
    }

    /// A seed whose `IN_BYTES` populate five buckets, with several outcomes
    /// of every attribute inside each, so every draw decides something.
    fn varied_seed_graph() -> NetflowGraph {
        let mut flows = Vec::new();
        for i in 0..400u32 {
            let in_bytes = [40, 100, 1_500, 70_000, 1_000_000][i as usize % 5] + (i % 11) as u64;
            let proto = if i % 3 == 0 { Protocol::Udp } else { Protocol::Tcp };
            let mut f = flow(1 + i % 9, 20 + i % 13, in_bytes, (i % 17) as u64 * 10, proto);
            f.src_port = 40_000 + (i % 23) as u16;
            f.out_pkts = 1 + (i % 5) as u64;
            flows.push(f);
        }
        graph_from_flows(&flows)
    }

    /// `sample` as the paper states it and as it was first written: draw
    /// `IN_BYTES` by value, then condition each attribute on that value.
    fn sample_by_value<R: Rng + ?Sized>(m: &PropertyModel, rng: &mut R) -> EdgeProperties {
        let in_bytes = m.in_bytes.sample(rng);
        let protocol = Protocol::from_number(m.protocol.sample_given(in_bytes, rng) as u8)
            .unwrap_or(Protocol::Tcp);
        let state = TcpConnState::from_code(m.state.sample_given(in_bytes, rng))
            .unwrap_or(TcpConnState::Oth);
        let src_port = m.src_port.sample_given(in_bytes, rng) as u16;
        let dst_port = m.dst_port.sample_given(in_bytes, rng) as u16;
        let duration_ms = m.duration_ms.sample_given(in_bytes, rng);
        let out_bytes = m.out_bytes.sample_given(in_bytes, rng);
        let out_pkts = m.out_pkts.sample_given(in_bytes, rng);
        let in_pkts = m.in_pkts.sample_given(in_bytes, rng);
        EdgeProperties {
            protocol,
            src_port,
            dst_port,
            duration_ms,
            out_bytes,
            in_bytes,
            out_pkts,
            in_pkts,
            state,
        }
    }

    /// Pins the draw order, which is the byte contract of every generated
    /// graph: a reordered or added draw diverges within a few edges.
    #[test]
    fn sample_draws_what_conditioning_on_the_value_draws() {
        let model = PropertyModel::from_graph(&varied_seed_graph());
        assert!(model.protocol.populated_buckets() >= 3);
        let mut a = rng_for(3, 0);
        let mut b = rng_for(3, 0);
        for edge in 0..10_000 {
            assert_eq!(model.sample(&mut a), sample_by_value(&model, &mut b), "edge {edge}");
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "the two consumed different numbers of draws");
    }

    #[test]
    fn stored_buckets_are_the_conditionals_buckets() {
        let model = PropertyModel::from_graph(&varied_seed_graph());
        assert_eq!(model.in_bytes_bucket.len(), model.in_bytes.support_len());
        for (&value, &bucket) in model.in_bytes.support().iter().zip(&model.in_bytes_bucket) {
            assert_eq!(bucket as usize, ConditionalDistribution::bucket_of(value), "{value}");
        }
    }

    #[test]
    fn in_bytes_marginal_matches_seed_mix() {
        let g = seed_graph();
        let model = PropertyModel::from_graph(&g);
        let mut rng = rng_for(2, 0);
        let small = (0..10_000).filter(|_| model.in_bytes.sample(&mut rng) < 1000).count() as f64
            / 10_000.0;
        assert!((small - 0.5).abs() < 0.03, "small-flow fraction {small}");
    }

    #[test]
    fn seed_analysis_exposes_degrees() {
        let g = seed_graph();
        let a = SeedAnalysis::of(&g);
        // Vertex 1 originates 50 UDP flows; others originate 10 each.
        assert_eq!(a.out_degree.max(), 50);
        assert!(a.in_degree.mean() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn empty_graph_rejected() {
        let g = NetflowGraph::new();
        let _ = PropertyModel::from_graph(&g);
    }
}
