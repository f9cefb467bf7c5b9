//! I/O-shape regressions for the out-of-core scan path.
//!
//! The old `StoreScan` projected SRC and DST through two separate
//! `read_column` calls, so every edge chunk cost *two* `store.read_chunk`
//! spans (and two payload reads) per pass — a traced veracity run showed
//! ~165 spans per chunk-pass where ~20 chunks existed. These tests pin the
//! contract: one chunk read per chunk per pass when streaming, and zero
//! re-reads once the encoded-block cache holds the store.

use csb_graph::ooc::EdgeScan;
use csb_graph::{EdgeProperties, NetflowGraph, VertexId};
use csb_store::sink::{push_graph, StoreSink};
use csb_store::{ChunkKind, FileKind, StoreReader, StoreScan, StoreWriter};
use std::io::Cursor;

fn sample_graph(n: u32, edges_per_vertex: u32) -> NetflowGraph {
    let mut g = NetflowGraph::new();
    let vs: Vec<VertexId> = (0..n).map(|i| g.add_vertex(0x0a00_0000 | i)).collect();
    for i in 0..n {
        for j in 1..=edges_per_vertex {
            let d = (i + j) % n;
            g.add_edge(vs[i as usize], vs[d as usize], EdgeProperties::placeholder());
        }
    }
    g
}

fn store_bytes(g: &NetflowGraph, chunk_records: usize) -> Vec<u8> {
    let mut sink = StoreSink::new(StoreWriter::new(Vec::new(), FileKind::Graph).expect("writer"))
        .with_chunk_records(chunk_records);
    push_graph(&mut sink, g).expect("push");
    sink.finish().expect("seal")
}

fn chunk_read_spans() -> usize {
    csb_obs::flush_spans().iter().filter(|s| s.name == "store.read_chunk").count()
}

fn counter_value(name: &str) -> u64 {
    csb_obs::snapshot_metrics()
        .counters
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

#[test]
fn streaming_scan_reads_each_chunk_exactly_once_per_pass() {
    let _guard = csb_obs::span::test_lock();
    let g = sample_graph(64, 10); // 640 edges
    let bytes = store_bytes(&g, 100); // 7 edge chunks
    let reader = StoreReader::new(Cursor::new(bytes)).expect("reader");
    let edge_chunks = reader.chunks().iter().filter(|c| c.kind == ChunkKind::Edge).count();
    assert!(edge_chunks >= 2, "test store must span several chunks");

    // Budget 0 = pure streaming: every pass must hit the disk, but only
    // once per chunk — SRC and DST come from one projected payload read.
    let mut scan = StoreScan::new(reader).expect("scan").with_cache_budget(0);
    csb_obs::reset();
    csb_obs::enable();
    scan.scan_edges(&mut |_, _| {}).expect("edges pass");
    scan.scan_sources(&mut |_| {}).expect("sources pass");
    scan.scan_targets(&mut |_| {}).expect("targets pass");
    let spans = chunk_read_spans();
    let chunks_read = counter_value("store.chunks_read");
    csb_obs::disable();
    csb_obs::reset();

    assert_eq!(
        spans,
        3 * edge_chunks,
        "a pass must cost exactly one store.read_chunk span per chunk"
    );
    assert_eq!(chunks_read as usize, 3 * edge_chunks);
}

#[test]
fn block_cache_eliminates_rereads_across_passes() {
    let _guard = csb_obs::span::test_lock();
    let g = sample_graph(64, 10);
    let bytes = store_bytes(&g, 100);
    let reader = StoreReader::new(Cursor::new(bytes)).expect("reader");
    let edge_chunks = reader.chunks().iter().filter(|c| c.kind == ChunkKind::Edge).count();

    // Default budget is plenty for this store: pass 1 faults everything in,
    // passes 2..=6 are served from memory — no spans, no bytes.
    let mut scan = StoreScan::new(reader).expect("scan");
    csb_obs::reset();
    csb_obs::enable();
    scan.scan_edges(&mut |_, _| {}).expect("first pass");
    let first_spans = chunk_read_spans();
    let first_bytes = counter_value("ooc.bytes_read");
    for _ in 0..5 {
        scan.scan_edges(&mut |_, _| {}).expect("warm pass");
    }
    let warm_spans = chunk_read_spans();
    let warm_bytes = counter_value("ooc.bytes_read");
    csb_obs::disable();
    csb_obs::reset();

    assert_eq!(first_spans, edge_chunks, "cold pass reads each chunk once");
    assert!(first_bytes > 0, "cold pass must touch the store");
    assert_eq!(warm_spans, 0, "warm passes must not re-read chunks");
    assert_eq!(warm_bytes, first_bytes, "ooc.bytes_read must not grow on warm passes");
}

#[test]
fn multi_column_projection_is_one_read_and_matches_single_column() {
    let _guard = csb_obs::span::test_lock();
    let g = sample_graph(32, 6);
    let bytes = store_bytes(&g, 64);
    let mut reader = StoreReader::new(Cursor::new(bytes)).expect("reader");
    let edge_idx =
        reader.chunks().iter().position(|c| c.kind == ChunkKind::Edge).expect("edge chunk");

    csb_obs::reset();
    csb_obs::enable();
    let both = reader.read_columns(edge_idx, &["SRC", "DST"]).expect("projection");
    let spans_both = chunk_read_spans();
    let src = reader.read_column(edge_idx, "SRC").expect("src");
    let dst = reader.read_column(edge_idx, "DST").expect("dst");
    let spans_single = chunk_read_spans();
    csb_obs::disable();
    csb_obs::reset();

    assert_eq!(spans_both, 1, "two-column projection must be one chunk read");
    assert_eq!(spans_single, 2, "separate projections cost a read each");
    assert_eq!(both[0], src);
    assert_eq!(both[1], dst);
}
