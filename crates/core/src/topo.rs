//! Raw topology representation shared by the generators.
//!
//! Both generators first build *structure* (vertices + directed multi-edges)
//! and only then attach NetFlow attributes (paper Fig. 2 lines 15-20, Fig. 3
//! lines 13-18). [`Topology`] is that intermediate: flat `src`/`dst` arrays,
//! cheap to grow, sample from, and parallelize over.

use crate::analysis::PropertyModel;
use csb_graph::graph::VertexId;
use csb_graph::{EdgeProperties, NetflowGraph};
use csb_stats::rng::rng_for;
use rayon::prelude::*;

/// A bare directed multigraph under construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    /// Number of vertices (ids are `0..num_vertices`).
    pub num_vertices: u32,
    /// Edge sources, parallel to `dst`.
    pub src: Vec<u32>,
    /// Edge targets.
    pub dst: Vec<u32>,
}

impl Topology {
    /// Extracts the topology of an existing property-graph.
    pub fn of_graph(g: &NetflowGraph) -> Self {
        Topology {
            num_vertices: g.vertex_count() as u32,
            src: g.edge_sources().iter().map(|v| v.0).collect(),
            dst: g.edge_targets().iter().map(|v| v.0).collect(),
        }
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.src.len()
    }

    /// Appends one edge.
    ///
    /// # Panics
    /// Panics (debug) if an endpoint is out of range.
    pub fn push_edge(&mut self, src: u32, dst: u32) {
        debug_assert!(src < self.num_vertices && dst < self.num_vertices);
        self.src.push(src);
        self.dst.push(dst);
    }
}

/// Synthetic vertex addresses: seed vertices keep their IPs; vertices created
/// by the generators get addresses in a reserved synthetic block so they are
/// recognizable in exports.
pub const SYNTHETIC_IP_BASE: u32 = 0xE000_0000;

/// Splits preallocated `src`/`dst` columns into disjoint per-plan windows:
/// window `i` starts at the exclusive prefix sum of `counts[..i]` and spans
/// `counts[i]` slots in both columns. The windows borrow disjoint regions,
/// so callers can fill them with `into_par_iter` — this is the write side of
/// the count → prefix-sum → parallel-write scheme both generators use.
///
/// # Panics
/// Panics (debug) if `counts` does not sum to the column length.
pub(crate) fn edge_windows<'a>(
    counts: &[usize],
    mut src: &'a mut [u32],
    mut dst: &'a mut [u32],
) -> Vec<(&'a mut [u32], &'a mut [u32])> {
    debug_assert_eq!(counts.iter().sum::<usize>(), src.len(), "counts must cover the columns");
    debug_assert_eq!(src.len(), dst.len());
    let mut windows = Vec::with_capacity(counts.len());
    for &c in counts {
        let (s, rest_s) = src.split_at_mut(c);
        let (d, rest_d) = dst.split_at_mut(c);
        src = rest_s;
        dst = rest_d;
        windows.push((s, d));
    }
    windows
}

/// Number of edges per deterministic RNG stream of the attach phase.
pub(crate) const ATTACH_CHUNK: usize = 8192;

/// Vertex addresses of an attached graph: `seed_vertex_ips` for the first
/// vertices (the ones inherited from the seed), synthetic addresses for the
/// rest. Surplus seed IPs (callers passing more addresses than
/// `topo.num_vertices`, e.g. a compacted Kronecker topology smaller than its
/// seed) are ignored.
pub(crate) fn vertex_ips(topo: &Topology, seed_vertex_ips: &[u32]) -> Vec<u32> {
    let n = topo.num_vertices as usize;
    let seed_n = seed_vertex_ips.len().min(n);
    let mut ips = seed_vertex_ips[..seed_n].to_vec();
    ips.extend((0..(n - seed_n) as u32).map(|i| SYNTHETIC_IP_BASE + i));
    ips
}

/// The attach phase's one implementation: the attributes of one
/// [`ATTACH_CHUNK`] of edges, sampled on that chunk's own RNG stream. The
/// stream layout, and so the output, is independent of how many threads run
/// chunks and in what order; [`attach_properties`] and
/// `stream::attach_properties_to_sink` only differ in where the chunks go.
pub(crate) struct AttachKernel<'a> {
    model: &'a PropertyModel,
    seed: u64,
    /// Rayon pool threads do not inherit the caller's recorder scope, so it
    /// is captured here and re-installed per chunk — a scoped job's chunk
    /// spans land on its own recorder, not the global one.
    recorder: csb_obs::Recorder,
}

impl<'a> AttachKernel<'a> {
    pub(crate) fn new(model: &'a PropertyModel, seed: u64) -> Self {
        AttachKernel { model, seed, recorder: csb_obs::recorder::current() }
    }

    /// Samples chunk `chunk_idx` into `out`, the chunk's own slots of the
    /// caller's column or window ([`ATTACH_CHUNK`] of them; the last chunk
    /// may be short), under its own span, on whichever thread calls, so the
    /// trace shows the fan-out per worker.
    pub(crate) fn sample_into(&self, chunk_idx: usize, out: &mut [EdgeProperties]) {
        debug_assert!(out.len() <= ATTACH_CHUNK, "chunk {chunk_idx} handed {} slots", out.len());
        let _scope = self.recorder.install();
        let _chunk = csb_obs::span_cat("attach.chunk", "gen");
        let mut rng = rng_for(self.seed, 0x9_0000_0000 + chunk_idx as u64);
        for slot in out {
            *slot = self.model.sample(&mut rng);
        }
    }
}

/// Materializes a [`NetflowGraph`] from a topology by sampling every edge's
/// attributes from the seed's [`PropertyModel`] — the `O(|E| x |properties|)`
/// final phase both generators share.
///
/// `seed_vertex_ips` supplies addresses for the first vertices (see
/// [`vertex_ips`]). The property column is allocated once and the
/// [`AttachKernel`] fills it in place over the pool, a chunk a task; the one
/// serial placeholder fill is the price of doing that without `unsafe`. The
/// graph is assembled with the bulk [`NetflowGraph::from_parts`] constructor —
/// no per-edge `add_edge` calls, no index vector.
pub fn attach_properties(
    topo: &Topology,
    model: &PropertyModel,
    seed_vertex_ips: &[u32],
    seed: u64,
) -> NetflowGraph {
    let _attach = csb_obs::span_cat("attach", "gen");
    let kernel = AttachKernel::new(model, seed);
    let mut props = vec![EdgeProperties::placeholder(); topo.edge_count()];
    props.par_chunks_mut(ATTACH_CHUNK).enumerate().for_each(|(c, out)| kernel.sample_into(c, out));
    let src: Vec<VertexId> = topo.src.par_iter().map(|&s| VertexId(s)).collect();
    let dst: Vec<VertexId> = topo.dst.par_iter().map(|&d| VertexId(d)).collect();
    csb_obs::counter_add("attach.edges", topo.edge_count() as u64);
    NetflowGraph::from_parts(vertex_ips(topo, seed_vertex_ips), src, dst, props)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::PropertyModel;
    use csb_graph::graph_from_flows;
    use csb_net::flow::{FlowRecord, Protocol, TcpConnState};

    fn tiny_model() -> PropertyModel {
        let f = FlowRecord {
            src_ip: 1,
            dst_ip: 2,
            protocol: Protocol::Tcp,
            src_port: 1000,
            dst_port: 80,
            duration_ms: 3,
            out_bytes: 10,
            in_bytes: 20,
            out_pkts: 1,
            in_pkts: 1,
            state: TcpConnState::Sf,
            syn_count: 1,
            ack_count: 1,
            first_ts_micros: 0,
        };
        PropertyModel::from_graph(&graph_from_flows(&[f]))
    }

    #[test]
    fn of_graph_round_trips() {
        let f = |src, dst| FlowRecord {
            src_ip: src,
            dst_ip: dst,
            protocol: Protocol::Udp,
            src_port: 1,
            dst_port: 2,
            duration_ms: 0,
            out_bytes: 0,
            in_bytes: 0,
            out_pkts: 1,
            in_pkts: 0,
            state: TcpConnState::Oth,
            syn_count: 0,
            ack_count: 0,
            first_ts_micros: 0,
        };
        let g = graph_from_flows(&[f(1, 2), f(2, 3), f(1, 3)]);
        let t = Topology::of_graph(&g);
        assert_eq!(t.num_vertices, 3);
        assert_eq!(t.edge_count(), 3);
    }

    #[test]
    fn attach_properties_fills_every_edge() {
        let mut t = Topology { num_vertices: 4, src: vec![], dst: vec![] };
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            t.push_edge(s, d);
        }
        let g = attach_properties(&t, &tiny_model(), &[100, 200], 7);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 5);
        // Seed vertices keep their IPs; the rest are synthetic.
        assert_eq!(*g.vertex(VertexId(0)), 100);
        assert_eq!(*g.vertex(VertexId(1)), 200);
        assert_eq!(*g.vertex(VertexId(2)), SYNTHETIC_IP_BASE);
        assert_eq!(*g.vertex(VertexId(3)), SYNTHETIC_IP_BASE + 1);
        // The degenerate model makes every edge identical.
        for (_, _, _, p) in g.edges() {
            assert_eq!(p.dst_port, 80);
            assert_eq!(p.in_bytes, 20);
        }
    }

    #[test]
    fn surplus_seed_ips_are_ignored() {
        // Regression: a compacted topology can have fewer vertices than the
        // caller has seed IPs (e.g. distributed PGSK); the surplus must be
        // dropped instead of wrapping the synthetic-address offset around.
        let mut t = Topology { num_vertices: 2, src: vec![], dst: vec![] };
        t.push_edge(0, 1);
        let g = attach_properties(&t, &tiny_model(), &[10, 20, 30, 40, 50], 7);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(*g.vertex(VertexId(0)), 10);
        assert_eq!(*g.vertex(VertexId(1)), 20);
    }

    #[test]
    fn edge_windows_partition_the_columns() {
        let counts = [2usize, 0, 3, 1];
        let mut src = [0u32; 6];
        let mut dst = [0u32; 6];
        let windows = edge_windows(&counts, &mut src, &mut dst);
        assert_eq!(windows.len(), 4);
        for (i, (ws, wd)) in windows.into_iter().enumerate() {
            assert_eq!(ws.len(), counts[i]);
            assert_eq!(wd.len(), counts[i]);
            ws.fill(i as u32);
            wd.fill(10 + i as u32);
        }
        assert_eq!(src, [0, 0, 2, 2, 2, 3]);
        assert_eq!(dst, [10, 10, 12, 12, 12, 13]);
    }

    #[test]
    fn pool_fill_equals_a_serial_loop_over_chunks() {
        use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
        let sim = TrafficSimConfig {
            duration_secs: 5.0,
            sessions_per_sec: 10.0,
            seed: 11,
            ..Default::default()
        };
        let seed = crate::seed::seed_from_trace(&TrafficSim::new(sim).generate());
        let model = &seed.analysis.properties;
        for edges in [0, 1, ATTACH_CHUNK - 1, ATTACH_CHUNK + 1, 3 * ATTACH_CHUNK + 5] {
            let topo = Topology {
                num_vertices: 16,
                src: (0..edges as u32).map(|i| i % 16).collect(),
                dst: (0..edges as u32).map(|i| (i * 7 + 1) % 16).collect(),
            };
            let mut want = Vec::with_capacity(edges);
            for chunk in 0..edges.div_ceil(ATTACH_CHUNK) {
                let mut rng = rng_for(5, 0x9_0000_0000 + chunk as u64);
                let len = ATTACH_CHUNK.min(edges - chunk * ATTACH_CHUNK);
                want.extend((0..len).map(|_| model.sample(&mut rng)));
            }
            for width in [1, 2, 4] {
                let pool =
                    rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool");
                let got = pool.install(|| attach_properties(&topo, model, &[], 5));
                assert_eq!(got.edge_data(), want, "{edges} edges at width {width}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut t = Topology { num_vertices: 2, src: vec![], dst: vec![] };
        for _ in 0..100 {
            t.push_edge(0, 1);
        }
        let m = tiny_model();
        let a = attach_properties(&t, &m, &[], 3);
        let b = attach_properties(&t, &m, &[], 3);
        for (ea, eb) in a.edges().zip(b.edges()) {
            assert_eq!(ea.3, eb.3);
        }
    }
}
