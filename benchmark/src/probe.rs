//! Timing a call into a layer from outside: a bench-side span around the
//! call (recorded only in the traced pass) and its wall time.

use csb_graph::NetflowGraph;
use std::time::Instant;

/// Runs `f` inside the span `name` (category `bench`) and returns its result
/// with the seconds it took.
pub fn call<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = csb_obs::span_cat(name, "bench");
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of every column of a graph: vertex addresses, endpoints, and the
/// nine edge attributes, in stream order.
pub fn graph_hash(g: &NetflowGraph) -> u64 {
    let mut h = Fnv::new();
    h.word(g.vertex_count() as u64);
    h.word(g.edge_count() as u64);
    for &ip in g.vertex_data() {
        h.word(u64::from(ip));
    }
    for (s, d) in g.edge_sources().iter().zip(g.edge_targets()) {
        h.word(u64::from(s.0) << 32 | u64::from(d.0));
    }
    for p in g.edge_data() {
        h.word(
            u64::from(p.protocol.number()) << 40
                | u64::from(p.src_port) << 24
                | u64::from(p.dst_port) << 8
                | p.state.code(),
        );
        h.word(p.duration_ms);
        h.word(p.out_bytes);
        h.word(p.in_bytes);
        h.word(p.out_pkts);
        h.word(p.in_pkts);
    }
    h.finish()
}

/// `VmHWM` of this process in MB (0 where procfs is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csb_graph::{EdgeProperties, VertexId};

    fn tiny(dst_port: u16) -> NetflowGraph {
        let mut g = NetflowGraph::new();
        let a = g.add_vertex(1);
        let b = g.add_vertex(2);
        g.add_edge(a, b, EdgeProperties { dst_port, ..EdgeProperties::placeholder() });
        g.add_edge(VertexId(1), VertexId(0), EdgeProperties::placeholder());
        g
    }

    #[test]
    fn graph_hash_sees_every_column() {
        assert_eq!(graph_hash(&tiny(80)), graph_hash(&tiny(80)));
        assert_ne!(graph_hash(&tiny(80)), graph_hash(&tiny(81)));
        let mut swapped = tiny(80);
        *swapped.vertex_mut(VertexId(0)) = 9;
        assert_ne!(graph_hash(&tiny(80)), graph_hash(&swapped));
    }

    #[test]
    fn call_times_the_closure() {
        let (out, secs) = call("bench.test.call", || 7);
        assert_eq!(out, 7);
        assert!(secs >= 0.0);
    }
}
