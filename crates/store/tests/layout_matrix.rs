//! One table for every way `StoreSink` can lay a record stream out on disk:
//! layout x compression x producer granularity x kill point. File bytes may
//! depend only on the record stream, the chunk size, the file shape (plain
//! file or N shards) and the compression — never on which layout wrote them,
//! how the producer batched its pushes, or whether the run was killed and
//! resumed on the way.

use csb_graph::EdgeProperties;
use csb_net::flow::{Protocol, TcpConnState};
use csb_store::checkpoint::{CheckpointIdentity, CheckpointManifest, CheckpointedLayout};
use csb_store::sink::{push_graph, Layout};
use csb_store::{
    load_flows, load_graph, Compression, CsbError, EdgeSink, FileKind, ShardSetManifest,
    ShardedLayout, StoreReader, StoreSink, StoreWriter,
};
use std::io::Write;
use std::path::{Path, PathBuf};

const VERTICES: u32 = 150;
const EDGES: u64 = 2500;
const CHUNK: usize = 128;
/// Chunks the stream above cuts into: 2 vertex chunks + 20 edge chunks.
const CHUNKS: u64 = 22;
const SHARDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Inline,
    Threaded,
    /// Checkpointed over this many files (1 = a plain store file).
    Checkpointed(usize),
}

impl Kind {
    /// Layouts with the same shard count must write the same files.
    fn shards(self) -> usize {
        match self {
            Kind::Inline => 1,
            Kind::Threaded => SHARDS,
            Kind::Checkpointed(n) => n,
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("csb-matrix-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn identity() -> CheckpointIdentity {
    CheckpointIdentity { generator: "pgpba".into(), config_hash: 0xFEED, master_seed: 7 }
}

fn prop(i: u64) -> EdgeProperties {
    EdgeProperties {
        protocol: Protocol::from_number([6, 17, 1][(i % 3) as usize]).unwrap(),
        src_port: (i % 60_000) as u16,
        dst_port: (i % 1024) as u16,
        duration_ms: i * 3,
        out_bytes: i * 100,
        in_bytes: i * 41,
        out_pkts: i,
        in_pkts: i / 2,
        state: TcpConnState::from_code(i % 4).unwrap(),
    }
}

/// Pushes the whole vertex stream and the edge stream from `from_edge` on,
/// `batch` records at a time; stops at the first error.
fn produce(sink: &mut impl EdgeSink, batch: u64, from_edge: u64) -> Result<(), CsbError> {
    let ips: Vec<u32> = (0..VERTICES).map(|i| 0xC0A8_0000 + i).collect();
    for piece in ips.chunks(batch as usize) {
        sink.push_vertices(piece)?;
    }
    let mut e = from_edge;
    while e < EDGES {
        let n = batch.min(EDGES - e);
        let src: Vec<u32> = (e..e + n).map(|i| (i % VERTICES as u64) as u32).collect();
        let dst: Vec<u32> = (e..e + n).map(|i| ((i * 7 + 1) % VERTICES as u64) as u32).collect();
        let props: Vec<EdgeProperties> = (e..e + n).map(prop).collect();
        sink.push_edges(&src, &dst, &props)?;
        e += n;
    }
    Ok(())
}

/// Streams the records through `layout` and seals it.
fn write_through<L: Layout>(layout: L, batch: u64) -> Result<(), CsbError> {
    let mut sink = StoreSink::new(layout).with_chunk_records(CHUNK);
    produce(&mut sink, batch, 0)?;
    sink.finish()?;
    Ok(())
}

/// The store files behind `path`, in shard order.
fn store_files(path: &Path, shards: usize) -> Vec<PathBuf> {
    match shards {
        1 => vec![path.to_path_buf()],
        _ => ShardSetManifest::load(path).expect("shard manifest").shard_paths(path),
    }
}

fn read_files(path: &Path, shards: usize) -> Vec<Vec<u8>> {
    store_files(path, shards).iter().map(|p| std::fs::read(p).expect("read")).collect()
}

/// An uninterrupted run of `kind`, pushing `batch` records at a time.
fn uninterrupted(kind: Kind, compression: Compression, batch: u64, dir: &Path) -> Vec<Vec<u8>> {
    let path = dir.join("g.store");
    let version = compression.version();
    match kind {
        Kind::Inline => {
            write_through(StoreWriter::create_with(&path, FileKind::Graph, version).unwrap(), batch)
        }
        Kind::Threaded => write_through(
            ShardedLayout::create(&path, FileKind::Graph, SHARDS, compression).unwrap(),
            batch,
        ),
        Kind::Checkpointed(n) => write_through(
            CheckpointedLayout::create(&path, dir.join("ckpt"), identity(), n, compression)
                .unwrap()
                .with_checkpoint_every(2),
            batch,
        ),
    }
    .expect("uninterrupted run");
    assert!(!CheckpointManifest::exists(dir.join("ckpt")), "finish must remove the manifest");
    read_files(&path, kind.shards())
}

/// A run killed before chunk `kill + 1`, a torn tail past the barrier, then
/// a resume — replaying the whole stream, or skipping the durable edges the
/// way a generator does when `skip_durable`.
fn killed_and_resumed(
    shards: usize,
    compression: Compression,
    kill: u64,
    skip_durable: bool,
    dir: &Path,
) -> Vec<Vec<u8>> {
    let (path, ckpt) = (dir.join("g.store"), dir.join("ckpt"));
    let killed = CheckpointedLayout::create(&path, &ckpt, identity(), shards, compression)
        .unwrap()
        .with_checkpoint_every(2)
        .with_kill_after_chunks(kill, false);
    let err = write_through(killed, 97).expect_err("the injected kill must surface");
    assert!(err.is_transient(), "injected kill must be transient: {err}");

    // The torn tail a SIGKILL can leave past the barrier, on the last file.
    let torn = match shards {
        1 => path.clone(),
        n => path.with_file_name(format!("g.store.s{}", n - 1)),
    };
    let mut f = std::fs::OpenOptions::new().append(true).open(torn).expect("open");
    f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF]).expect("tear");
    drop(f);

    // As `GenJob` does: resume if a barrier was reached, else start over.
    let layout = match CheckpointManifest::exists(&ckpt) {
        true => CheckpointedLayout::resume(&path, &ckpt, identity(), shards, compression),
        false => CheckpointedLayout::create(&path, &ckpt, identity(), shards, compression),
    };
    let mut sink = StoreSink::new(layout.expect("reopen")).with_chunk_records(CHUNK);
    if kill >= 2 {
        let m = CheckpointManifest::load(&ckpt).expect("manifest");
        assert_eq!(m.chunk_records, CHUNK as u64);
        assert_eq!(sink.resume_skip_vertices(), m.vertices_durable);
        assert_eq!(sink.resume_skip_edges(), m.edges_durable);
        assert!(m.edges_durable > 0, "kill {kill} lands after an edge barrier");
    }
    let from_edge = match skip_durable {
        // Skip whole durable batches of 100; the sink drops the rest.
        true => sink.resume_skip_edges() / 100 * 100,
        false => 0,
    };
    sink.note_skipped_edges(from_edge);
    produce(&mut sink, 100, from_edge).expect("resumed run");
    sink.finish().expect("finish resumed");
    assert!(!CheckpointManifest::exists(&ckpt), "finish must remove the manifest");
    read_files(&path, shards)
}

#[test]
fn layout_matrix() {
    let kinds = [Kind::Inline, Kind::Threaded, Kind::Checkpointed(1), Kind::Checkpointed(SHARDS)];
    for compression in [Compression::None, Compression::Columnar] {
        let dir = temp_dir(compression.name());
        // The reference bytes of each file shape: the plain layouts, pushed
        // in bulk.
        let reference = |shards| match shards {
            1 => uninterrupted(Kind::Inline, compression, 97, &dir),
            _ => uninterrupted(Kind::Threaded, compression, 97, &dir),
        };
        for kind in kinds {
            let case = format!("{kind:?}/{}", compression.name());
            if kind == Kind::Checkpointed(1) && compression == Compression::Columnar {
                // The single-file checkpoint manifest describes v1 only.
                let err = CheckpointedLayout::create(
                    dir.join("g.store"),
                    dir.join("ckpt"),
                    identity(),
                    1,
                    compression,
                )
                .expect_err("unsupported combination");
                assert!(matches!(err, CsbError::Config(_)), "{case}: got {err}");
                continue;
            }
            let want = reference(kind.shards());
            assert_eq!(want.len(), kind.shards());
            // Uninterrupted: same bytes as the layout it shares a file shape
            // with, whether the producer pushes in bulk or record by record.
            for batch in [97, 1] {
                let got = uninterrupted(kind, compression, batch, &dir);
                assert!(got == want, "{case}: uninterrupted bytes differ at batch {batch}");
            }
            // Killed before the first chunk, mid-stream, and before the last
            // chunk: resume writes the bytes of the uninterrupted run.
            let Kind::Checkpointed(shards) = kind else { continue };
            for kill in [0, 7, CHUNKS - 1] {
                for skip_durable in [false, true] {
                    let got = killed_and_resumed(shards, compression, kill, skip_durable, &dir);
                    assert!(
                        got == want,
                        "{case}: kill after {kill} chunks (skip_durable {skip_durable}) did not \
                         resume to identical bytes"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The checked-in v1 stores are read and re-written byte for byte by the
/// current reader and writer.
#[test]
fn v1_fixtures_are_rewritten_byte_identically() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let chunk_records = |path: &Path| {
        let reader = StoreReader::open(path).expect("open fixture");
        assert_eq!(reader.version(), 1);
        reader.chunks().iter().map(|c| c.records).max().expect("chunks") as usize
    };

    let path = fixtures.join("v1-graph.csbstore");
    let writer = StoreWriter::new(Vec::new(), FileKind::Graph).unwrap();
    let mut sink = StoreSink::new(writer).with_chunk_records(chunk_records(&path));
    push_graph(&mut sink, &load_graph(&path).expect("load graph")).unwrap();
    assert!(sink.finish().unwrap() == std::fs::read(&path).unwrap(), "graph fixture bytes");

    let path = fixtures.join("v1-flows.csbstore");
    let writer = StoreWriter::new(Vec::new(), FileKind::Flows).unwrap();
    let mut sink = StoreSink::new(writer).with_chunk_records(chunk_records(&path));
    sink.push(load_flows(&path).expect("load flows").iter().copied()).unwrap();
    assert!(sink.finish().unwrap() == std::fs::read(&path).unwrap(), "flow fixture bytes");
}

/// Records per chunk of the v2 fixture: the smallest round size that lets
/// one chunk hold more than `MAX_DICT_ENTRIES` distinct values.
const V2_CHUNK: usize = 4200;
const V2_VERTICES: u32 = 4500;
/// Three full edge chunks and no partial tail.
const V2_EDGES: u64 = 3 * V2_CHUNK as u64;

/// A closed-form scramble (no RNG: the fixture must not depend on `rand`).
fn mix(x: u64) -> u64 {
    let z = (x ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 29)).wrapping_mul(0x94D0_49BB_1331_11EB) ^ (z >> 32)
}

/// Edge `i` of the v2 fixture. Each column is shaped to put a different
/// codec decision in front of the encoder, and several change shape from one
/// chunk to the next (`k`), `j` being the record's index in its chunk.
fn v2_edge(i: u64) -> (u32, u32, EdgeProperties) {
    let (k, j) = (i / V2_CHUNK as u64, i % V2_CHUNK as u64);
    let props = EdgeProperties {
        // At most 4 distinct values.
        protocol: Protocol::from_number([6, 17, 1][(mix(i) % 3) as usize]).unwrap(),
        // 4097 distinct values (one past the dictionary), exactly 4096, 200.
        src_port: match k {
            0 => (j * 7919 % 4097 * 15) as u16,
            1 => (j * 7919 % 4096 * 16 + 3) as u16,
            _ => (j * 31 % 200) as u16,
        },
        // At most 16 distinct values.
        dst_port: [80, 443, 22, 53, 8080, 25, 110, 143, 3389, 5900, 21, 23, 123]
            [(mix(i) % 13) as usize],
        // A sorted u64 column far from zero.
        duration_ms: (1 << 40) + i * 50,
        // Full-range u64, then all-equal, then 3 values.
        out_bytes: match k {
            0 => mix(i),
            1 => 1500,
            _ => [0, u64::MAX, 1 << 33][(j % 3) as usize],
        },
        // Sorted, then 1000 scattered wide values, then 256 of them.
        in_bytes: match k {
            0 => i * 41,
            1 => mix(j % 1000),
            _ => mix(j * 7 % 256),
        },
        out_pkts: 7,
        in_pkts: j / 2,
        state: TcpConnState::from_code(i % 4).unwrap(),
    };
    // Near-sorted sources, scattered targets.
    ((i / 3) as u32, (mix(i) % V2_VERTICES as u64) as u32, props)
}

/// Scattered full-range addresses: the random `u32` column.
fn v2_vertex_ips() -> Vec<u32> {
    (0..V2_VERTICES as u64).map(|i| mix(i) as u32).collect()
}

/// The checked-in v2 store was written by the encoder as it stood before it
/// was made linear-time: re-encoding the same records must give the same
/// file, byte for byte, and the file must load back to the records.
#[test]
fn v2_fixture_is_reproduced_byte_for_byte() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/v2-graph.csbstore");
    let edges: Vec<_> = (0..V2_EDGES).map(v2_edge).collect();
    let writer =
        StoreWriter::new_with(Vec::new(), FileKind::Graph, Compression::Columnar.version())
            .unwrap();
    let mut sink = StoreSink::new(writer).with_chunk_records(V2_CHUNK);
    sink.push_vertices(&v2_vertex_ips()).unwrap();
    sink.push(edges.iter().copied()).unwrap();
    let bytes = sink.finish().unwrap();
    assert!(bytes == std::fs::read(&path).expect("read fixture"), "v2 fixture bytes");

    let reader = StoreReader::open(&path).expect("open fixture");
    assert_eq!(reader.version(), 2);
    let records: Vec<u64> = reader.chunks().iter().map(|c| c.records).collect();
    assert_eq!(
        records,
        [4200, 4200, 4200, 4200, 300],
        "three edge chunks between two vertex chunks"
    );
    let g = load_graph(&path).expect("load fixture");
    assert_eq!(g.vertex_data(), v2_vertex_ips());
    assert_eq!(g.edge_count() as u64, V2_EDGES);
    for ((_, src, dst, props), want) in g.edges().zip(&edges) {
        assert_eq!((src.0, dst.0, *props), *want);
    }
}
