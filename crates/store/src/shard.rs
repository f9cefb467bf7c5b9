//! Sharded stores: one logical store split across N chunk files written by
//! parallel workers and read back in a deterministic round-robin interleave.
//!
//! A shard set is a tiny manifest file (magic `CSBSHRD1`) naming N ordinary
//! store files that live beside it. Chunk placement is by rule, not by
//! table ([`place`]): every vertex chunk goes to shard 0, and the i-th
//! **body** chunk (edge or flow) of the stream goes to shard `i % N`. Each
//! shard preserves its subsequence in file order, so the logical chunk order
//! is recoverable by dealing the shards back out round-robin — which is what
//! [`ShardedScan`] and the loaders do. The logical record stream is
//! therefore **identical** to what a single file would hold from the same
//! pushes, every OOC kernel scores bit-identically over either layout, and
//! readers treat a plain file as a one-shard set.
//!
//! [`ShardedLayout`] is the threaded layout behind
//! [`StoreSink`](crate::sink::StoreSink): one writer thread per shard takes
//! finished raw chunks over a bounded channel, so column encoding, CRC32 and
//! file I/O of different shards overlap with generation and each other. The
//! fault-tolerant counterpart is
//! [`CheckpointedLayout`](crate::checkpoint::CheckpointedLayout).

use crate::codec::Compression;
use crate::format::{
    save_atomically, seal_manifest, ChunkKind, FileKind, ManifestReader, StoreError,
};
use crate::ooc::StoreScan;
use crate::read::{check_round_robin, StoreReader};
use crate::sink::{push_graph, Layout, StoreSink};
use crate::write::StoreWriter;
use csb_graph::ooc::EdgeScan;
use csb_graph::NetflowGraph;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Shard-set manifest magic, first 8 bytes.
pub const SHARD_SET_MAGIC: [u8; 8] = *b"CSBSHRD1";

/// Shard-set manifest format version.
pub const SHARD_SET_VERSION: u32 = 1;

/// Chunks a worker channel may buffer before the producer blocks.
const WORKER_QUEUE_CHUNKS: usize = 4;

/// Names the N shard files of the manifest at `manifest_path`:
/// `<file_name>.s0`, `<file_name>.s1`, … in the same directory.
pub fn shard_file_names(manifest_path: impl AsRef<Path>, shards: usize) -> Vec<String> {
    let base = manifest_path
        .as_ref()
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".to_string());
    (0..shards).map(|i| format!("{base}.s{i}")).collect()
}

/// True when the file at `path` starts with the shard-set magic.
pub fn is_shard_set(path: impl AsRef<Path>) -> Result<bool, StoreError> {
    let mut f = File::open(path)?;
    let mut magic = [0u8; 8];
    let mut read = 0;
    while read < 8 {
        match f.read(&mut magic[read..])? {
            0 => return Ok(false),
            n => read += n,
        }
    }
    Ok(magic == SHARD_SET_MAGIC)
}

/// The shard a chunk goes to: vertex chunks to shard 0, the i-th body chunk
/// to shard `i % shards` (`body_chunks` counts them).
pub(crate) fn place(kind: ChunkKind, body_chunks: &mut u64, shards: usize) -> usize {
    if kind == ChunkKind::Vertex {
        return 0;
    }
    let shard = (*body_chunks % shards as u64) as usize;
    *body_chunks += 1;
    shard
}

/// The manifest of a shard set: what kind of store it is and the shard file
/// names, in shard order, relative to the manifest's directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSetManifest {
    /// What the shard files hold.
    pub kind: FileKind,
    /// Shard file names, index = shard id.
    pub shards: Vec<String>,
}

impl ShardSetManifest {
    /// The manifest of a fresh `shards`-way set of `kind` at `path`.
    pub(crate) fn named(path: &Path, kind: FileKind, shards: usize) -> Self {
        ShardSetManifest { kind, shards: shard_file_names(path, shards.max(1)) }
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.shards.len() * 24);
        out.extend_from_slice(&SHARD_SET_MAGIC);
        out.extend_from_slice(&SHARD_SET_VERSION.to_le_bytes());
        out.extend_from_slice(&[self.kind.code(), 0, 0, 0]);
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for name in &self.shards {
            let bytes = name.as_bytes();
            assert!(bytes.len() <= u16::MAX as usize, "shard file name too long");
            out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        seal_manifest(out)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r =
            ManifestReader::open(bytes, "shard manifest", &SHARD_SET_MAGIC, SHARD_SET_VERSION)?;
        let kind = FileKind::from_code(r.take(4)?[0]).ok_or_else(|| r.bad("bad file kind"))?;
        let count = r.u32()? as u64;
        // Every name costs at least its two length bytes.
        let count = r.count(count, 2)?;
        if count == 0 {
            return Err(r.bad("zero shards"));
        }
        let mut shards = Vec::with_capacity(count);
        for _ in 0..count {
            let len = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes")) as usize;
            let name = r.take(len)?.to_vec();
            shards.push(String::from_utf8(name).map_err(|_| r.bad("shard name is not UTF-8"))?);
        }
        r.finish()?;
        Ok(ShardSetManifest { kind, shards })
    }

    /// Writes the manifest at `path` (atomically: temp file + rename).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let path = path.as_ref();
        save_atomically(&path.with_extension("shrd.tmp"), path, &self.to_bytes())
    }

    /// Loads and validates the manifest at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Absolute paths of the shard files (manifest-relative names resolved
    /// against the manifest's directory).
    pub fn shard_paths(&self, manifest_path: impl AsRef<Path>) -> Vec<PathBuf> {
        let dir = manifest_path.as_ref().parent().map(Path::to_path_buf).unwrap_or_default();
        self.shards.iter().map(|n| dir.join(n)).collect()
    }
}

/// Opens the store at `path` as its readers in shard order: the shard files
/// behind a shard-set manifest, or a plain store file as a one-shard set.
pub(crate) fn open_readers(
    path: impl AsRef<Path>,
) -> Result<Vec<StoreReader<BufReader<File>>>, StoreError> {
    let path = path.as_ref();
    if !is_shard_set(path)? {
        return Ok(vec![StoreReader::open(path)?]);
    }
    ShardSetManifest::load(path)?.shard_paths(path).iter().map(StoreReader::open).collect()
}

/// One finished chunk on its way to a shard's writer thread.
type WorkerChunk = (ChunkKind, u64, Vec<u8>);

fn spawn_shard_worker(
    path: PathBuf,
    kind: FileKind,
    version: u32,
    rx: Receiver<WorkerChunk>,
) -> JoinHandle<Result<(), StoreError>> {
    // Spawned threads do not inherit the caller's recorder scope; capture it
    // here so a scoped job's shard-writer telemetry stays on its recorder.
    let recorder = csb_obs::recorder::current();
    std::thread::spawn(move || {
        let _obs_scope = recorder.install();
        let mut writer = StoreWriter::create_with(&path, kind, version)?;
        while let Ok((kind, records, payload)) = rx.recv() {
            writer.write_chunk(kind, records, &payload)?;
            csb_obs::counter_add("store.shard_chunks", 1);
        }
        writer.finish()?;
        Ok(())
    })
}

/// Most files one store may be written across. Every shard is an open file
/// with its own buffers, and in [`ShardedLayout`] a writer thread, so a count
/// taken unchecked from a flag or a wire request exhausts the process.
pub const MAX_SHARDS: usize = 256;

/// Refuses a shard count above [`MAX_SHARDS`], before any file or thread
/// exists.
pub fn check_shard_count(shards: usize) -> Result<(), StoreError> {
    if shards > MAX_SHARDS {
        return Err(StoreError::Config(format!(
            "{shards} shards exceed the cap of {MAX_SHARDS}: every shard is an open file and a \
             writer thread"
        )));
    }
    Ok(())
}

/// The threaded [`Layout`]: a shard set with one writer thread per shard, so
/// encoding, CRC and I/O of different shards overlap with generation and
/// with each other. Shard bytes depend only on the record stream, the chunk
/// size, the shard count and the compression mode — a re-run, or a
/// checkpointed run of the same stream, is byte-identical per shard.
#[derive(Debug)]
pub struct ShardedLayout {
    manifest_path: PathBuf,
    manifest: ShardSetManifest,
    txs: Vec<Option<SyncSender<WorkerChunk>>>,
    handles: Vec<Option<JoinHandle<Result<(), StoreError>>>>,
    body_chunks_sent: u64,
}

impl ShardedLayout {
    /// Creates a shard set of `kind`: manifest at `path`, shard files
    /// `<path>.s0 … <path>.s{n-1}` beside it.
    pub fn create(
        path: impl AsRef<Path>,
        kind: FileKind,
        shards: usize,
        compression: Compression,
    ) -> Result<Self, StoreError> {
        check_shard_count(shards)?;
        let path = path.as_ref().to_path_buf();
        let manifest = ShardSetManifest::named(&path, kind, shards);
        let mut txs = Vec::with_capacity(manifest.shards.len());
        let mut handles = Vec::with_capacity(manifest.shards.len());
        for shard_path in manifest.shard_paths(&path) {
            let (tx, rx) = sync_channel(WORKER_QUEUE_CHUNKS);
            txs.push(Some(tx));
            handles.push(Some(spawn_shard_worker(shard_path, kind, compression.version(), rx)));
        }
        csb_obs::gauge_set("store.shards", manifest.shards.len() as i64);
        Ok(ShardedLayout { manifest_path: path, manifest, txs, handles, body_chunks_sent: 0 })
    }

    /// Joins worker `s` to surface its real error.
    fn worker_error(&mut self, s: usize) -> StoreError {
        self.txs[s] = None; // close the channel so the worker unblocks
        match self.handles[s].take().map(JoinHandle::join) {
            Some(Ok(Err(e))) => e,
            Some(Err(_)) => StoreError::Transient(format!("shard {s} writer panicked")),
            _ => StoreError::Transient(format!("shard {s} writer terminated early")),
        }
    }
}

impl Layout for ShardedLayout {
    type Sealed = ();

    fn write_chunk(
        &mut self,
        kind: ChunkKind,
        records: u64,
        raw_payload: Vec<u8>,
    ) -> Result<(), StoreError> {
        let shard = place(kind, &mut self.body_chunks_sent, self.txs.len());
        let Some(tx) = &self.txs[shard] else {
            return Err(StoreError::Transient(format!("shard {shard} writer already failed")));
        };
        if tx.send((kind, records, raw_payload)).is_err() {
            return Err(self.worker_error(shard));
        }
        Ok(())
    }

    /// Closes the channels so the workers drain and seal their files, joins
    /// them, and writes the shard-set manifest.
    fn seal(mut self) -> Result<(), StoreError> {
        self.txs.clear();
        let mut first_err = None;
        for (s, h) in self.handles.iter_mut().enumerate() {
            let joined = match h.take().map(JoinHandle::join) {
                Some(Ok(r)) => r,
                Some(Err(_)) => Err(StoreError::Transient(format!("shard {s} writer panicked"))),
                None => Ok(()),
            };
            if let (Err(e), None) = (joined, &first_err) {
                first_err = Some(e);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.manifest.save(&self.manifest_path)
    }
}

/// [`EdgeScan`] over a graph store of either layout: deals the shards' edge
/// chunks back out round-robin, replaying the exact logical chunk order the
/// sink consumed (a plain store file is a one-shard set). Each shard keeps
/// its own decoded-endpoint cache (the budget of
/// [`ShardedScan::with_cache_budget`] is split evenly).
#[derive(Debug)]
pub struct ShardedScan {
    scans: Vec<StoreScan<BufReader<File>>>,
    edge_chunks_total: usize,
    vertex_count: usize,
    edge_count: u64,
}

impl ShardedScan {
    /// Opens the graph store at `path`: a shard-set manifest or a plain
    /// store file, told apart by magic.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mut scans =
            open_readers(path)?.into_iter().map(StoreScan::new).collect::<Result<Vec<_>, _>>()?;
        let mut vertex_count = 0usize;
        let mut edge_count = 0u64;
        for scan in &mut scans {
            vertex_count += scan.vertex_count()?;
            edge_count += scan.edge_count()?;
        }
        for scan in &mut scans {
            scan.set_vertex_range(vertex_count);
        }
        let counts: Vec<usize> = scans.iter().map(StoreScan::edge_chunk_count).collect();
        let edge_chunks_total = check_round_robin(&counts)?;
        Ok(ShardedScan { scans, edge_chunks_total, vertex_count, edge_count })
    }

    /// Caps the total decoded-endpoint cache at `bytes`, split evenly
    /// across shards (0 disables caching).
    pub fn with_cache_budget(mut self, bytes: u64) -> Self {
        let per_shard = bytes / self.scans.len() as u64;
        self.scans = self.scans.into_iter().map(|s| s.with_cache_budget(per_shard)).collect();
        self
    }

    /// Number of shards (1 for a plain store file).
    pub fn shard_count(&self) -> usize {
        self.scans.len()
    }

    /// Runs `f` over logical edge chunk `i`, dealt back from its shard in
    /// the round-robin order the writer used. Borrows cache-resident
    /// chunks in place, like [`StoreScan::with_endpoints`].
    fn with_logical_chunk(
        &mut self,
        i: usize,
        f: &mut dyn FnMut(&[u32], &[u32]),
    ) -> Result<(), StoreError> {
        let shards = self.scans.len();
        self.scans[i % shards].with_endpoints(i / shards, f)
    }
}

impl EdgeScan for ShardedScan {
    type Error = StoreError;

    fn vertex_count(&mut self) -> Result<usize, StoreError> {
        Ok(self.vertex_count)
    }

    fn edge_count(&mut self) -> Result<u64, StoreError> {
        Ok(self.edge_count)
    }

    fn scan_edges(&mut self, f: &mut dyn FnMut(&[u32], &[u32])) -> Result<(), StoreError> {
        for i in 0..self.edge_chunks_total {
            self.with_logical_chunk(i, f)?;
        }
        Ok(())
    }

    fn scan_sources(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), StoreError> {
        for i in 0..self.edge_chunks_total {
            self.with_logical_chunk(i, &mut |src, _| f(src))?;
        }
        Ok(())
    }

    fn scan_targets(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), StoreError> {
        for i in 0..self.edge_chunks_total {
            self.with_logical_chunk(i, &mut |_, dst| f(dst))?;
        }
        Ok(())
    }

    fn scratch_bytes(&self) -> u64 {
        self.scans.iter().map(|s| 2 * (8 + 4) * s.max_chunk_records()).max().unwrap_or(0)
    }
}

/// Writes `g` as a sharded graph store: a shard-set manifest at `path` with
/// `shards` shard files beside it, each written by its own worker thread in
/// the requested `compression`. The sharded counterpart of
/// [`crate::sink::save_graph`].
pub fn save_graph_sharded(
    path: impl AsRef<Path>,
    g: &NetflowGraph,
    shards: usize,
    compression: Compression,
) -> Result<(), StoreError> {
    let mut sink =
        StoreSink::new(ShardedLayout::create(path, FileKind::Graph, shards, compression)?);
    push_graph(&mut sink, g)?;
    sink.finish()
}

/// [`crate::sink::load_graph`] under the name the repo benchmark calls it
/// by; a plain store file loads too, as a one-shard set.
pub fn load_graph_sharded(path: impl AsRef<Path>) -> Result<NetflowGraph, StoreError> {
    crate::sink::load_graph(path)
}

/// Writes labeled flows as a sharded flow store: a shard-set manifest at
/// `path` with `shards` flow-store shard files beside it, chunks of
/// `chunk_records` dealt round-robin. Shard bytes depend only on the flow
/// stream, the shard count, the chunk size, and the compression mode.
pub fn save_labeled_flows_sharded(
    path: impl AsRef<Path>,
    flows: &[csb_net::LabeledFlow],
    shards: usize,
    compression: Compression,
    chunk_records: usize,
) -> Result<(), StoreError> {
    assert!(shards > 0, "need at least one shard");
    let _span = csb_obs::span_cat("store.save_flows_sharded", "store");
    let layout = ShardedLayout::create(path, FileKind::Flows, shards, compression)?;
    let mut sink = StoreSink::new(layout).with_chunk_records(chunk_records);
    sink.push(flows.iter().copied())?;
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CsbError;
    use crate::sink::{load_graph, EdgeSink};
    use csb_graph::algo::pagerank::{pagerank, PageRankConfig};
    use csb_graph::ooc::pagerank_ooc;
    use csb_graph::EdgeProperties;
    use csb_net::flow::{Protocol, TcpConnState};

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("csb-shard-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).expect("mkdir");
        d
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

    /// Pushes `n_vertices` + `n_edges` deterministic records into `sink`.
    fn push_records<S: EdgeSink>(sink: &mut S, n_vertices: u32, n_edges: u64) {
        let ips: Vec<u32> = (0..n_vertices).map(|i| 0xC0A8_0000 + i).collect();
        sink.push_vertices(&ips).expect("vertices");
        let mut e = 0u64;
        while e < n_edges {
            let batch = 97.min(n_edges - e);
            let src: Vec<u32> = (e..e + batch).map(|i| (i % n_vertices as u64) as u32).collect();
            let dst: Vec<u32> =
                (e..e + batch).map(|i| ((i * 7 + 1) % n_vertices as u64) as u32).collect();
            let props: Vec<EdgeProperties> = (e..e + batch).map(prop).collect();
            sink.push_edges(&src, &dst, &props).expect("edges");
            e += batch;
        }
    }

    /// The same record stream as a single in-memory v1 store file.
    fn single_store_bytes(n_vertices: u32, n_edges: u64, chunk: usize) -> Vec<u8> {
        let writer = StoreWriter::new(Vec::new(), FileKind::Graph).expect("writer");
        let mut sink = StoreSink::new(writer).with_chunk_records(chunk);
        push_records(&mut sink, n_vertices, n_edges);
        sink.finish().expect("seal")
    }

    fn write_sharded(
        dir: &Path,
        shards: usize,
        compression: Compression,
        n_vertices: u32,
        n_edges: u64,
        chunk: usize,
    ) -> PathBuf {
        let manifest = dir.join("g.csbshards");
        let layout = ShardedLayout::create(&manifest, FileKind::Graph, shards, compression);
        let mut sink = StoreSink::new(layout.expect("create")).with_chunk_records(chunk);
        push_records(&mut sink, n_vertices, n_edges);
        sink.finish().expect("finish");
        manifest
    }

    #[test]
    fn shard_count_above_the_cap_is_refused_before_any_file_exists() {
        let dir = temp_dir("cap");
        for shards in [MAX_SHARDS + 1, 100_000] {
            let err = ShardedLayout::create(
                dir.join("g.csbshards"),
                FileKind::Graph,
                shards,
                Compression::None,
            )
            .expect_err("over the cap");
            assert!(matches!(err, CsbError::Config(_)), "got {err}");
            assert!(err.to_string().contains(&format!("cap of {MAX_SHARDS}")), "got {err}");
        }
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 0, "nothing was created");
        assert!(check_shard_count(MAX_SHARDS).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_manifest_round_trips_and_rejects_corruption() {
        let dir = temp_dir("manifest");
        let m = ShardSetManifest {
            kind: FileKind::Graph,
            shards: vec!["g.s0".into(), "g.s1".into(), "g.s2".into()],
        };
        let path = dir.join("g.csbshards");
        m.save(&path).expect("save");
        assert!(is_shard_set(&path).expect("magic"));
        assert_eq!(ShardSetManifest::load(&path).expect("load"), m);

        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let err = ShardSetManifest::load(&path).expect_err("corrupt");
        assert!(matches!(err, CsbError::Corrupt { .. }), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_load_and_scan_match_single_file() {
        let (n_v, n_e) = (250u32, 4000u64);
        let single = single_store_bytes(n_v, n_e, 256);
        let want = crate::read::StoreReader::new(std::io::Cursor::new(single.clone()))
            .expect("reader")
            .load_graph()
            .expect("load");

        for shards in [1usize, 3, 4] {
            let dir = temp_dir(&format!("roundtrip{shards}"));
            let manifest = write_sharded(&dir, shards, Compression::None, n_v, n_e, 256);
            // Transparent dispatch: load_graph reads the shard set back in
            // the exact logical order the sink consumed.
            let got = load_graph(&manifest).expect("load sharded");
            assert_eq!(got.vertex_count(), want.vertex_count());
            assert_eq!(got.edge_count(), want.edge_count());
            assert_eq!(got.edge_sources(), want.edge_sources(), "shards {shards}");
            assert_eq!(got.edge_targets(), want.edge_targets(), "shards {shards}");
            assert_eq!(got.edge_data(), want.edge_data(), "shards {shards}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sharded_v2_pagerank_bit_identical_to_v1_single_file() {
        let (n_v, n_e) = (200u32, 3000u64);
        let cfg = PageRankConfig::default();
        let single = single_store_bytes(n_v, n_e, 128);
        let reader = crate::read::StoreReader::new(std::io::Cursor::new(single)).expect("reader");
        let mut v1_scan = StoreScan::new(reader).expect("scan");
        let want = pagerank_ooc(&mut v1_scan, &cfg).expect("v1 pagerank");
        let mem = pagerank(
            &crate::read::StoreReader::new(std::io::Cursor::new(single_store_bytes(n_v, n_e, 128)))
                .expect("reader")
                .load_graph()
                .expect("load"),
            &cfg,
        );
        for (a, b) in mem.iter().zip(want.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "ooc vs in-memory");
        }

        for compression in [Compression::None, Compression::Columnar] {
            let dir = temp_dir(&format!("pr-{}", compression.name()));
            let manifest = write_sharded(&dir, 4, compression, n_v, n_e, 128);
            let mut scan = ShardedScan::open(&manifest).expect("open");
            assert_eq!(scan.shard_count(), 4);
            let got = pagerank_ooc(&mut scan, &cfg).expect("sharded pagerank");
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(got.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} shards", compression.name());
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn scan_opens_either_layout_by_magic() {
        let dir = temp_dir("dispatch");
        let single_path = dir.join("g.csbstore");
        std::fs::write(&single_path, single_store_bytes(50, 200, 64)).expect("write");
        assert_eq!(ShardedScan::open(&single_path).expect("single").shard_count(), 1);
        let manifest = write_sharded(&dir, 2, Compression::None, 50, 200, 64);
        assert_eq!(ShardedScan::open(&manifest).expect("sharded").shard_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_robin_violation_is_corrupt() {
        // Two shards with equal chunk counts is fine for an even total, but
        // swapping the shard order hands shard 0 fewer chunks than shard 1
        // when the total is odd — the scan must refuse, not misorder.
        let dir = temp_dir("rr");
        let manifest = write_sharded(&dir, 2, Compression::None, 60, 3 * 64, 64);
        let m = ShardSetManifest::load(&manifest).expect("load");
        assert_eq!(m.shards.len(), 2);
        let swapped = ShardSetManifest {
            kind: m.kind,
            shards: vec![m.shards[1].clone(), m.shards[0].clone()],
        };
        swapped.save(&manifest).expect("save");
        let err = ShardedScan::open(&manifest).expect_err("violation");
        assert!(matches!(err, CsbError::Corrupt { .. }), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
