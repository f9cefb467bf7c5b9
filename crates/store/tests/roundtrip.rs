//! The tentpole invariant: `load(save(g)) == g` — vertices, edge order, and
//! all nine attributes — for arbitrary graphs and chunk sizes.

use csb_graph::graph::VertexId;
use csb_graph::{EdgeProperties, NetflowGraph};
use csb_net::flow::{Protocol, TcpConnState};
use csb_store::sink::{push_graph, StoreSink};
use csb_store::{FileKind, StoreError, StoreReader, StoreWriter};
use proptest::prelude::*;
use std::io::Cursor;

/// Raw edge material: endpoints (reduced mod the vertex count in the body)
/// plus every attribute as an integer.
type RawEdge = (u32, u32, (u64, u16, u16, u64), (u64, u64, u64, u64), u64);

fn arb_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    prop::collection::vec(
        (
            any::<u32>(),
            any::<u32>(),
            (0u64..3, any::<u16>(), any::<u16>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0u64..8,
        ),
        0..200,
    )
}

fn build_graph(ips: &[u32], raw: &[RawEdge]) -> NetflowGraph {
    let n = ips.len() as u32;
    let mut src = Vec::with_capacity(raw.len());
    let mut dst = Vec::with_capacity(raw.len());
    let mut props = Vec::with_capacity(raw.len());
    for &(s, d, (proto, sp, dp, dur), (ob, ib, op, ip), state) in raw {
        src.push(VertexId(s % n));
        dst.push(VertexId(d % n));
        props.push(EdgeProperties {
            protocol: Protocol::from_number([1, 6, 17][proto as usize]).unwrap(),
            src_port: sp,
            dst_port: dp,
            duration_ms: dur,
            out_bytes: ob,
            in_bytes: ib,
            out_pkts: op,
            in_pkts: ip,
            state: TcpConnState::from_code(state).unwrap(),
        });
    }
    NetflowGraph::from_parts(ips.to_vec(), src, dst, props)
}

fn save_with_chunk(g: &NetflowGraph, chunk_records: usize) -> Result<Vec<u8>, StoreError> {
    let mut sink = StoreSink::new(StoreWriter::new(Vec::new(), FileKind::Graph)?)
        .with_chunk_records(chunk_records);
    push_graph(&mut sink, g)?;
    sink.finish()
}

fn assert_graphs_equal(a: &NetflowGraph, b: &NetflowGraph) {
    assert_eq!(a.vertex_data(), b.vertex_data());
    assert_eq!(a.edge_sources(), b.edge_sources());
    assert_eq!(a.edge_targets(), b.edge_targets());
    assert_eq!(a.edge_data(), b.edge_data());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn load_save_round_trips(
        ips in prop::collection::vec(any::<u32>(), 1..40),
        raw in arb_edges(),
        chunk in 1usize..64,
    ) {
        let g = build_graph(&ips, &raw);
        let bytes = save_with_chunk(&g, chunk).expect("save");
        let h = StoreReader::new(Cursor::new(bytes)).expect("open").load_graph().expect("load");
        assert_graphs_equal(&g, &h);
    }

    #[test]
    fn chunk_size_does_not_change_the_graph(
        ips in prop::collection::vec(any::<u32>(), 1..40),
        raw in arb_edges(),
    ) {
        // The record stream, not the push/chunk granularity, defines the
        // dataset: every chunking loads back to the same graph.
        let g = build_graph(&ips, &raw);
        let small = save_with_chunk(&g, 7).expect("save small");
        let large = save_with_chunk(&g, 1 << 20).expect("save large");
        let a = StoreReader::new(Cursor::new(small)).expect("open").load_graph().expect("load");
        let b = StoreReader::new(Cursor::new(large)).expect("open").load_graph().expect("load");
        assert_graphs_equal(&a, &b);
        assert_graphs_equal(&g, &a);
    }

    #[test]
    fn column_projection_matches_full_decode(
        ips in prop::collection::vec(any::<u32>(), 1..40),
        raw in arb_edges(),
    ) {
        let g = build_graph(&ips, &raw);
        let bytes = save_with_chunk(&g, 16).expect("save");
        let mut r = StoreReader::new(Cursor::new(bytes)).expect("open");
        let mut projected: Vec<u64> = Vec::new();
        for idx in 0..r.chunks().len() {
            if r.chunks()[idx].kind == csb_store::ChunkKind::Edge {
                projected.extend(r.read_column(idx, "IN_BYTES").expect("project"));
            }
        }
        let expect: Vec<u64> = g.edge_data().iter().map(|p| p.in_bytes).collect();
        prop_assert_eq!(projected, expect);
    }

    #[test]
    fn corrupted_payload_is_detected(
        ips in prop::collection::vec(any::<u32>(), 1..40),
        raw in arb_edges(),
        flip in any::<u64>(),
    ) {
        let g = build_graph(&ips, &raw);
        prop_assume!(g.edge_count() > 0);
        let mut bytes = save_with_chunk(&g, 1 << 20).expect("save");
        // Flip one bit inside the edge chunk payload (past the file header,
        // vertex chunk, and edge chunk header; before the footer + trailer).
        let lo = 16 + 28 + 4 * g.vertex_count() + 28;
        let hi = bytes.len() - 24 - 2 * 32;
        let at = lo + (flip as usize) % (hi - lo);
        bytes[at] ^= 0x40;
        let result = StoreReader::new(Cursor::new(bytes)).and_then(|mut r| r.load_graph());
        prop_assert!(result.is_err(), "bit flip at {} must not load silently", at);
    }
}
