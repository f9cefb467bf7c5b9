//! `StoreReader` edge cases that feed the out-of-core kernels: an empty
//! store, single-record chunks, and a final short chunk. In every shape,
//! the bulk `load_graph` path, manual chunk iteration, and the streaming
//! `StoreScan` must agree on the record stream.

use csb_graph::graph::VertexId;
use csb_graph::ooc::EdgeScan;
use csb_graph::{EdgeProperties, NetflowGraph};
use csb_store::sink::{push_graph, StoreSink};
use csb_store::{ChunkKind, EdgeRecord, FileKind, StoreReader, StoreScan, StoreWriter};
use std::io::Cursor;

fn graph_of(n: u32, edges: &[(u32, u32)]) -> NetflowGraph {
    let mut g = NetflowGraph::new();
    let vs: Vec<VertexId> = (0..n).map(|i| g.add_vertex(0xc0a8_0000 | i)).collect();
    for &(s, d) in edges {
        g.add_edge(vs[s as usize], vs[d as usize], EdgeProperties::placeholder());
    }
    g
}

fn sealed_bytes(g: &NetflowGraph, chunk_records: usize) -> Vec<u8> {
    let mut sink = StoreSink::new(StoreWriter::new(Vec::new(), FileKind::Graph).expect("writer"))
        .with_chunk_records(chunk_records);
    push_graph(&mut sink, g).expect("push");
    sink.finish().expect("seal")
}

/// Collects the edge stream three ways and asserts they are identical.
fn assert_paths_agree(bytes: Vec<u8>, expect_edges: usize) {
    // Path 1: bulk graph load.
    let mut reader = StoreReader::new(Cursor::new(bytes.clone())).expect("reader");
    let g = reader.load_graph().expect("load_graph");
    let loaded: Vec<(u32, u32)> =
        g.edge_sources().iter().zip(g.edge_targets().iter()).map(|(s, d)| (s.0, d.0)).collect();
    assert_eq!(loaded.len(), expect_edges);

    // Path 2: manual chunk iteration over decoded edge batches.
    let mut reader = StoreReader::new(Cursor::new(bytes.clone())).expect("reader");
    let mut iterated = Vec::new();
    for idx in 0..reader.chunks().len() {
        if reader.chunks()[idx].kind != ChunkKind::Edge {
            continue;
        }
        let batch = reader.read_batch::<EdgeRecord>(idx).expect("edge batch");
        iterated.extend(batch.iter().map(|&(src, dst, _)| (src, dst)));
    }
    assert_eq!(loaded, iterated, "load_graph vs chunk iteration");

    // Path 3: the streaming scan the out-of-core kernels consume.
    let mut scan =
        StoreScan::new(StoreReader::new(Cursor::new(bytes)).expect("reader")).expect("scan");
    assert_eq!(scan.vertex_count().expect("infallible"), g.vertex_count());
    assert_eq!(scan.edge_count().expect("count"), expect_edges as u64);
    let mut scanned = Vec::new();
    scan.scan_edges(&mut |src, dst| {
        scanned.extend(src.iter().copied().zip(dst.iter().copied()));
    })
    .expect("scan_edges");
    assert_eq!(loaded, scanned, "load_graph vs StoreScan");
}

#[test]
fn empty_store() {
    let g = NetflowGraph::new();
    let bytes = sealed_bytes(&g, 16);
    assert_paths_agree(bytes.clone(), 0);
    let reader = StoreReader::new(Cursor::new(bytes)).expect("reader");
    assert_eq!(reader.record_count(ChunkKind::Edge), 0);
    assert_eq!(reader.record_count(ChunkKind::Vertex), 0);
}

#[test]
fn vertices_but_no_edges() {
    let g = graph_of(5, &[]);
    assert_paths_agree(sealed_bytes(&g, 16), 0);
}

#[test]
fn single_record_chunks() {
    // chunk_records = 1: every edge is its own chunk.
    let g = graph_of(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)]);
    let bytes = sealed_bytes(&g, 1);
    let reader = StoreReader::new(Cursor::new(bytes.clone())).expect("reader");
    let edge_chunks = reader.chunks().iter().filter(|c| c.kind == ChunkKind::Edge).count();
    assert_eq!(edge_chunks, 5, "one chunk per edge");
    assert!(reader.chunks().iter().filter(|c| c.kind == ChunkKind::Edge).all(|c| c.records == 1));
    assert_paths_agree(bytes, 5);
}

#[test]
fn final_short_chunk() {
    // 7 edges at 3 records per chunk: two full chunks plus a short tail of 1.
    let edges = [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0), (0, 0)];
    let g = graph_of(3, &edges);
    let bytes = sealed_bytes(&g, 3);
    let reader = StoreReader::new(Cursor::new(bytes.clone())).expect("reader");
    let records: Vec<u64> =
        reader.chunks().iter().filter(|c| c.kind == ChunkKind::Edge).map(|c| c.records).collect();
    assert_eq!(records, vec![3, 3, 1], "final chunk runs short");
    assert_paths_agree(bytes, 7);
}

#[test]
fn chunk_size_larger_than_data() {
    // A chunk bound far above the record count: one short chunk total.
    let g = graph_of(3, &[(0, 1), (1, 2)]);
    let bytes = sealed_bytes(&g, 1_000_000);
    let reader = StoreReader::new(Cursor::new(bytes.clone())).expect("reader");
    let edge_chunks = reader.chunks().iter().filter(|c| c.kind == ChunkKind::Edge).count();
    assert_eq!(edge_chunks, 1);
    assert_paths_agree(bytes, 2);
}

/// Manifests are recovery state read back after a crash. A CRC-correct one
/// whose entry count was inflated must be refused as corrupt by every parser
/// — not trusted into a multi-gigabyte reservation or a capacity panic.
#[test]
fn inflated_manifest_counts_are_corrupt_not_allocated() {
    use csb_store::checkpoint::{CheckpointIdentity, CheckpointManifest, ShardCheckpoint};
    use csb_store::crc32::crc32;
    use csb_store::{CsbError, ShardSetManifest};

    let dir = std::env::temp_dir().join(format!("csb-hostile-manifest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    // Overwrites `len` bytes at `at` with 0xFF and re-seals the file's CRC.
    let inflate = |path: &std::path::Path, at: usize, len: usize| {
        let mut bytes = std::fs::read(path).expect("read");
        let body = bytes.len() - 4;
        bytes[at..at + len].fill(0xFF);
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &bytes).expect("write");
    };
    let assert_corrupt = |what: &str, err: CsbError| {
        assert!(matches!(err, CsbError::Corrupt { .. }), "{what}: got {err}");
    };

    // Shard set: magic 8 | version 4 | kind 4 | shard count u32 at 16.
    let set = dir.join("g.csbshards");
    ShardSetManifest { kind: csb_store::FileKind::Graph, shards: vec!["g.s0".into()] }
        .save(&set)
        .expect("save");
    inflate(&set, 16, 4);
    assert_corrupt("shard count", ShardSetManifest::load(&set).expect_err("inflated"));

    // Checkpoints: magic 8 | version 4 | name len 1 | name | hash 8 | seed 8 |
    // chunk records 8, then the fields that differ per magic.
    let identity = CheckpointIdentity { generator: "pgpba".into(), config_hash: 1, master_seed: 2 };
    let fixed = 8 + 4 + 1 + identity.generator.len() + 8 + 8 + 8;
    let manifest = |files: usize| CheckpointManifest {
        identity: identity.clone(),
        chunk_records: 64,
        store_version: 1,
        vertices_durable: 0,
        edges_durable: 0,
        shards: vec![ShardCheckpoint { bytes_durable: 16, chunks: vec![] }; files],
    };
    let path = CheckpointManifest::path_in(&dir);

    // CSBCKPT1: vertices 8 | edges 8 | bytes durable 8 | chunk count u64.
    manifest(1).save(&dir).expect("save");
    inflate(&path, fixed + 24, 8);
    assert_corrupt("CSBCKPT1 chunks", CheckpointManifest::load(&dir).expect_err("inflated"));

    // CSBCKPT2: store version 4 | vertices 8 | edges 8 | shard count u32,
    // then per shard: bytes durable 8 | chunk count u64.
    manifest(2).save(&dir).expect("save");
    inflate(&path, fixed + 20, 4);
    assert_corrupt("CSBCKPT2 shards", CheckpointManifest::load(&dir).expect_err("inflated"));
    manifest(2).save(&dir).expect("save");
    inflate(&path, fixed + 24 + 8, 8);
    assert_corrupt("CSBCKPT2 chunks", CheckpointManifest::load(&dir).expect_err("inflated"));
    std::fs::remove_dir_all(&dir).ok();
}
