//! Checkpointed generation runs: a CRC-validated manifest recording the
//! durable prefix of every file of a store, and the [`Layout`] that writes
//! it at a barrier every N chunks.
//!
//! The manifest is chunk-aligned by construction — it records exactly the
//! chunks each [`StoreWriter`] footer index knows about, flushed and fsynced
//! before the manifest is atomically renamed into place. A killed run
//! therefore leaves (a) store files whose prefixes up to `bytes_durable` are
//! valid and (b) a manifest describing those prefixes as one consistent cut;
//! everything past the barrier is regenerated on resume by replaying the
//! deterministic per-chunk RNG streams, so a resumed run is **byte-identical**
//! to an uninterrupted one (the sink re-chunks, so file bytes depend only on
//! the record stream).
//!
//! Resume safety comes from these validations: the manifest's own CRC32, the
//! identity triple (generator kind, config hash, RNG master seed) — resuming
//! with a different config would silently splice two different graphs — the
//! shard count and format version, and a re-read of each file's last durable
//! chunk against its recorded CRC.

use crate::codec::Compression;
use crate::crc32::crc32;
use crate::format::{
    corrupt, save_atomically, seal_manifest, ChunkEntry, ChunkKind, FileKind, ManifestReader,
    StoreError, CHUNK_HEADER_LEN, FILE_MAGIC, FORMAT_VERSION,
};
use crate::shard::{check_shard_count, place, ShardSetManifest};
use crate::sink::{Layout, CHUNK_RECORDS};
use crate::write::StoreWriter;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Manifest file name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "checkpoint.manifest";

/// Manifest magic of a single-file run, first 8 bytes.
pub const MANIFEST_MAGIC: [u8; 8] = *b"CSBCKPT1";

/// Manifest magic of a sharded run.
pub const SHARDED_CKPT_MAGIC: [u8; 8] = *b"CSBCKPT2";

/// Manifest format version (both magics).
pub const MANIFEST_VERSION: u32 = 1;

/// Default chunks between checkpoint barriers.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 8;

/// Identifies *which run* a checkpoint belongs to. Resume refuses to splice
/// a checkpoint into a run with a different generator, config, or seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointIdentity {
    /// Generator kind (`"pgpba"` / `"pgsk"`).
    pub generator: String,
    /// Hash of the full generator configuration.
    pub config_hash: u64,
    /// RNG master seed of the run.
    pub master_seed: u64,
}

/// The durable prefix of one store file as of a barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// File length as of the barrier (header + durable chunks).
    pub bytes_durable: u64,
    /// Footer index of the file's durable chunks.
    pub chunks: Vec<ChunkEntry>,
}

/// The durable state of a checkpointed run: identity, chunk geometry, and
/// the prefix of every store file written as of the last barrier, replaced
/// atomically so all files resume from one consistent cut.
///
/// On disk a single-file run is a `CSBCKPT1` manifest, which has no version
/// field and so only ever describes v1 chunks; a sharded run is `CSBCKPT2`.
/// Both load into this one type.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointManifest {
    /// Who was generating, with what config and seed.
    pub identity: CheckpointIdentity,
    /// Records per store chunk (resume must re-chunk identically).
    pub chunk_records: u64,
    /// Store format version of the files (1 or 2).
    pub store_version: u32,
    /// Vertices contained in durable vertex chunks.
    pub vertices_durable: u64,
    /// Edges contained in durable edge chunks.
    pub edges_durable: u64,
    /// Durable prefix of each file: one for a single-file run, else one per
    /// shard in shard order.
    pub shards: Vec<ShardCheckpoint>,
}

impl CheckpointManifest {
    /// Path of the manifest inside `dir`.
    pub fn path_in(dir: impl AsRef<Path>) -> PathBuf {
        dir.as_ref().join(MANIFEST_FILE)
    }

    /// True when `dir` holds a manifest.
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        Self::path_in(dir).is_file()
    }

    fn to_bytes(&self) -> Vec<u8> {
        let single = self.shards.len() == 1;
        assert!(!single || self.store_version == FORMAT_VERSION, "CSBCKPT1 describes v1 only");
        let gen = self.identity.generator.as_bytes();
        assert!(gen.len() <= u8::MAX as usize, "generator name too long");
        let mut out = Vec::with_capacity(128 + gen.len());
        out.extend_from_slice(if single { &MANIFEST_MAGIC } else { &SHARDED_CKPT_MAGIC });
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.push(gen.len() as u8);
        out.extend_from_slice(gen);
        out.extend_from_slice(&self.identity.config_hash.to_le_bytes());
        out.extend_from_slice(&self.identity.master_seed.to_le_bytes());
        out.extend_from_slice(&self.chunk_records.to_le_bytes());
        if !single {
            out.extend_from_slice(&self.store_version.to_le_bytes());
        }
        out.extend_from_slice(&self.vertices_durable.to_le_bytes());
        out.extend_from_slice(&self.edges_durable.to_le_bytes());
        if !single {
            out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        }
        for s in &self.shards {
            out.extend_from_slice(&s.bytes_durable.to_le_bytes());
            out.extend_from_slice(&(s.chunks.len() as u64).to_le_bytes());
            for c in &s.chunks {
                c.encode_into(&mut out, self.store_version);
            }
        }
        seal_manifest(out)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let single = bytes.starts_with(&MANIFEST_MAGIC);
        let magic = if single { &MANIFEST_MAGIC } else { &SHARDED_CKPT_MAGIC };
        let mut r = ManifestReader::open(bytes, "checkpoint manifest", magic, MANIFEST_VERSION)?;
        let gen_len = r.u8()? as usize;
        let generator = String::from_utf8(r.take(gen_len)?.to_vec())
            .map_err(|_| r.bad("generator name is not UTF-8"))?;
        let identity =
            CheckpointIdentity { generator, config_hash: r.u64()?, master_seed: r.u64()? };
        let chunk_records = r.u64()?;
        let store_version = if single { FORMAT_VERSION } else { r.u32()? };
        let vertices_durable = r.u64()?;
        let edges_durable = r.u64()?;
        let shard_count = if single {
            1
        } else {
            // Every shard costs at least its two u64 fields.
            let n = r.u32()? as u64;
            r.count(n, 16)?
        };
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let bytes_durable = r.u64()?;
            shards.push(ShardCheckpoint { bytes_durable, chunks: r.chunk_entries(store_version)? });
        }
        r.finish()?;
        Ok(CheckpointManifest {
            identity,
            chunk_records,
            store_version,
            vertices_durable,
            edges_durable,
            shards,
        })
    }

    /// Writes the manifest atomically: temp file, fsync, rename. A crash
    /// mid-save leaves the previous manifest intact.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), StoreError> {
        let dir = dir.as_ref();
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        save_atomically(&tmp, &Self::path_in(dir), &self.to_bytes())
    }

    /// Loads and validates the manifest in `dir`.
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = Self::path_in(&dir);
        if !path.is_file() {
            return Err(StoreError::Mismatch(format!(
                "no checkpoint manifest at {} — nothing to resume",
                path.display()
            )));
        }
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// The fault-tolerant [`Layout`]: `shards` graph store files written
/// synchronously — barriers need one deterministic durable point across
/// every file — with the same placement rule as
/// [`ShardedLayout`](crate::shard::ShardedLayout). Every `checkpoint_every`
/// chunks all files are flushed + fsynced and a [`CheckpointManifest`]
/// covering every file's durable prefix atomically replaces the last one. A
/// killed run resumes to byte-identical files, and an uninterrupted run
/// writes the same bytes as the un-checkpointed layout of the same shape:
/// one shard is a plain store file at `path` (v1 only, see
/// [`CheckpointManifest`]), more are a shard set behind a manifest at `path`.
#[derive(Debug)]
pub struct CheckpointedLayout {
    writers: Vec<StoreWriter<BufWriter<File>>>,
    /// The shard-set manifest to write at `path` when sealing; `None` for a
    /// single-file run, whose one store file is `path` itself.
    shard_set: Option<(PathBuf, ShardSetManifest)>,
    dir: PathBuf,
    identity: CheckpointIdentity,
    chunk_records: usize,
    resumed: bool,
    checkpoint_every: u64,
    /// Records contained in *written* chunks (staged tails are volatile).
    vertices_chunked: u64,
    edges_chunked: u64,
    body_chunks_written: u64,
    chunks_since_barrier: u64,
    chunks_written: u64,
    /// Fault-injection hook: fail (or abort) before writing chunk N+1.
    kill_after_chunks: Option<(u64, bool)>,
    /// Cooperative preemption: when set, the next chunk boundary takes a
    /// barrier and surfaces a `Transient` error instead of writing.
    stop: Option<Arc<AtomicBool>>,
}

/// The store files of a checkpointed run at `path` and, for a sharded run,
/// the shard-set manifest that will name them.
type StoreFiles = (Vec<PathBuf>, Option<(PathBuf, ShardSetManifest)>);

fn store_files(
    path: &Path,
    shards: usize,
    compression: Compression,
) -> Result<StoreFiles, StoreError> {
    check_shard_count(shards)?;
    if shards > 1 {
        let manifest = ShardSetManifest::named(path, FileKind::Graph, shards);
        return Ok((manifest.shard_paths(path), Some((path.to_path_buf(), manifest))));
    }
    if compression != Compression::None {
        return Err(StoreError::Config(
            "columnar compression on a checkpointed run requires sharding (.shards(n >= 2)); \
             the single-file checkpoint manifest describes v1 chunks only"
                .into(),
        ));
    }
    Ok((vec![path.to_path_buf()], None))
}

impl CheckpointedLayout {
    /// Starts a fresh checkpointed run of `shards` files at `path`, barrier
    /// manifests in `dir` (created if missing).
    pub fn create(
        path: impl AsRef<Path>,
        dir: impl AsRef<Path>,
        identity: CheckpointIdentity,
        shards: usize,
        compression: Compression,
    ) -> Result<Self, StoreError> {
        let (paths, shard_set) = store_files(path.as_ref(), shards, compression)?;
        std::fs::create_dir_all(&dir)?;
        let writers = paths
            .iter()
            .map(|p| StoreWriter::create_with(p, FileKind::Graph, compression.version()))
            .collect::<Result<_, _>>()?;
        Ok(Self::over(writers, shard_set, dir.as_ref(), identity))
    }

    /// Resumes a killed run from the manifest in `dir`: validates the
    /// identity triple, the shard count and the format version, truncates
    /// every file back to its durable prefix (verifying each file's last
    /// durable chunk CRC), and arranges for the sink in front to drop the
    /// re-pushed durable records.
    pub fn resume(
        path: impl AsRef<Path>,
        dir: impl AsRef<Path>,
        identity: CheckpointIdentity,
        shards: usize,
        compression: Compression,
    ) -> Result<Self, StoreError> {
        let (paths, shard_set) = store_files(path.as_ref(), shards, compression)?;
        let m = CheckpointManifest::load(&dir)?;
        if m.identity != identity {
            return Err(StoreError::Mismatch(format!(
                "checkpoint belongs to a different run: manifest has {}/config {:#x}/seed {}, \
                 resume requested {}/config {:#x}/seed {}",
                m.identity.generator,
                m.identity.config_hash,
                m.identity.master_seed,
                identity.generator,
                identity.config_hash,
                identity.master_seed
            )));
        }
        if m.shards.len() != paths.len() {
            return Err(StoreError::Mismatch(format!(
                "checkpoint was written across {} store file(s), resume requested {}",
                m.shards.len(),
                paths.len()
            )));
        }
        if m.store_version != compression.version() {
            return Err(StoreError::Mismatch(format!(
                "checkpoint store version {} does not match requested compression {}",
                m.store_version,
                compression.name()
            )));
        }
        let mut writers = Vec::with_capacity(paths.len());
        for (file_path, state) in paths.iter().zip(&m.shards) {
            let mut file = OpenOptions::new().read(true).write(true).open(file_path)?;
            let file_len = file.metadata()?.len();
            if file_len < state.bytes_durable {
                return Err(StoreError::Mismatch(format!(
                    "store file {} is shorter ({file_len} B) than the manifest's durable prefix \
                     ({} B)",
                    file_path.display(),
                    state.bytes_durable
                )));
            }
            let mut header = [0u8; 8];
            file.read_exact(&mut header)?;
            if header != FILE_MAGIC {
                return Err(corrupt(0, "resume target is not a csb store file"));
            }
            // The manifest's own CRC covers the index; re-check the last
            // durable chunk's payload so a torn write inside the durable
            // prefix is caught now, not at read time after hours of appended
            // generation.
            if let Some(last) = state.chunks.last() {
                let _span = csb_obs::span_cat("checkpoint.validate", "store");
                let payload_at = last.offset.saturating_add(CHUNK_HEADER_LEN);
                if payload_at.saturating_add(last.payload_len) > state.bytes_durable {
                    return Err(corrupt(last.offset, "last durable chunk overruns its prefix"));
                }
                file.seek(SeekFrom::Start(payload_at))?;
                let mut payload = vec![0u8; last.payload_len as usize];
                file.read_exact(&mut payload)?;
                if crc32(&payload) != last.crc32 {
                    return Err(corrupt(last.offset, "last durable chunk fails its CRC on resume"));
                }
            }
            file.set_len(state.bytes_durable)?;
            file.seek(SeekFrom::Start(state.bytes_durable))?;
            writers.push(StoreWriter::resume_at(
                BufWriter::new(file),
                m.store_version,
                state.bytes_durable,
                state.chunks.clone(),
            ));
        }
        csb_obs::counter_add("checkpoint.resumes", 1);
        let body_chunks = m.shards.iter().flat_map(|s| &s.chunks);
        Ok(CheckpointedLayout {
            chunk_records: (m.chunk_records as usize).max(1),
            resumed: true,
            vertices_chunked: m.vertices_durable,
            edges_chunked: m.edges_durable,
            body_chunks_written: body_chunks.filter(|c| c.kind != ChunkKind::Vertex).count() as u64,
            ..Self::over(writers, shard_set, dir.as_ref(), identity)
        })
    }

    fn over(
        writers: Vec<StoreWriter<BufWriter<File>>>,
        shard_set: Option<(PathBuf, ShardSetManifest)>,
        dir: &Path,
        identity: CheckpointIdentity,
    ) -> Self {
        CheckpointedLayout {
            writers,
            shard_set,
            dir: dir.to_path_buf(),
            identity,
            chunk_records: CHUNK_RECORDS,
            resumed: false,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            vertices_chunked: 0,
            edges_chunked: 0,
            body_chunks_written: 0,
            chunks_since_barrier: 0,
            chunks_written: 0,
            kill_after_chunks: None,
            stop: None,
        }
    }

    /// Chunks between barriers (at least 1).
    pub fn with_checkpoint_every(mut self, chunks: u64) -> Self {
        self.checkpoint_every = chunks.max(1);
        self
    }

    /// Fault-injection hook: the layout refuses to write chunk `n + 1`. With
    /// `abort_process` the whole process dies via [`std::process::abort`]
    /// (SIGKILL semantics: no flush, no destructors — what the CI
    /// kill-and-resume smoke uses); otherwise a
    /// [`CsbError::Transient`](crate::error::CsbError::Transient) surfaces
    /// so in-process tests can observe the "crash".
    pub fn with_kill_after_chunks(mut self, n: u64, abort_process: bool) -> Self {
        self.kill_after_chunks = Some((n, abort_process));
        self
    }

    /// Cooperative preemption hook: once `flag` is set, the next chunk
    /// boundary takes a checkpoint barrier (one consistent durable cut
    /// across all files — their bytes are untouched, so resume stays
    /// byte-identical) and surfaces
    /// [`CsbError::Transient`](crate::error::CsbError::Transient) to the
    /// caller, which requeues the job for later resume.
    pub fn with_stop_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop = Some(flag);
        self
    }

    /// Makes everything written so far durable and records it: flush + fsync
    /// every file, then atomically replace the manifest.
    fn barrier(&mut self) -> Result<(), StoreError> {
        let _span = csb_obs::span_cat("checkpoint.write", "store");
        for w in &mut self.writers {
            w.flush()?;
            w.get_mut().get_ref().sync_data()?;
        }
        let shard_state = |w: &StoreWriter<_>| ShardCheckpoint {
            bytes_durable: w.bytes_written(),
            chunks: w.chunks().to_vec(),
        };
        let manifest = CheckpointManifest {
            identity: self.identity.clone(),
            chunk_records: self.chunk_records as u64,
            store_version: self.writers[0].version(),
            vertices_durable: self.vertices_chunked,
            edges_durable: self.edges_chunked,
            shards: self.writers.iter().map(shard_state).collect(),
        };
        manifest.save(&self.dir)?;
        self.chunks_since_barrier = 0;
        csb_obs::counter_add("checkpoint.barriers", 1);
        csb_obs::counter_add(
            "checkpoint.bytes_durable",
            manifest.shards.iter().map(|s| s.bytes_durable).sum(),
        );
        csb_obs::status::note_barrier(manifest.shards.iter().map(|s| s.chunks.len() as u64).sum());
        Ok(())
    }
}

impl Layout for CheckpointedLayout {
    type Sealed = ();

    fn write_chunk(
        &mut self,
        kind: ChunkKind,
        records: u64,
        raw_payload: Vec<u8>,
    ) -> Result<(), StoreError> {
        if self.stop.as_ref().is_some_and(|f| f.load(Ordering::Relaxed)) {
            self.barrier()?;
            return Err(StoreError::Transient(
                "preempted: stop flag set at chunk boundary (checkpoint barrier taken)".into(),
            ));
        }
        if let Some((n, abort_process)) = self.kill_after_chunks {
            if self.chunks_written >= n {
                if abort_process {
                    std::process::abort();
                }
                return Err(StoreError::Transient(format!(
                    "injected kill after {n} chunks (checkpoint fault hook)"
                )));
            }
        }
        let shard = place(kind, &mut self.body_chunks_written, self.writers.len());
        self.writers[shard].write_chunk(kind, records, &raw_payload)?;
        if self.shard_set.is_some() {
            // Counted where the threaded layout counts it: per shard-file
            // chunk, so a plain store file reports none.
            csb_obs::counter_add("store.shard_chunks", 1);
        }
        self.chunks_written += 1;
        match kind {
            ChunkKind::Vertex => self.vertices_chunked += records,
            _ => self.edges_chunked += records,
        }
        self.chunks_since_barrier += 1;
        if self.chunks_since_barrier >= self.checkpoint_every {
            self.barrier()?;
        }
        Ok(())
    }

    /// Seals every file, writes the shard-set manifest of a sharded run, and
    /// removes the checkpoint manifest (the run completed; there is nothing
    /// left to resume).
    fn seal(self) -> Result<(), StoreError> {
        for w in self.writers {
            w.finish()?;
        }
        if let Some((path, manifest)) = &self.shard_set {
            manifest.save(path)?;
        }
        std::fs::remove_file(CheckpointManifest::path_in(&self.dir)).ok();
        Ok(())
    }

    fn durable(&self, kind: ChunkKind) -> u64 {
        match kind {
            ChunkKind::Vertex => self.vertices_chunked,
            ChunkKind::Edge => self.edges_chunked,
            _ => 0,
        }
    }

    /// A fresh run records the sink's chunk size for its manifests; a
    /// resumed one keeps the manifest's — changing it would break
    /// byte-identity with the uninterrupted run.
    fn chunk_records(&mut self, requested: usize) -> usize {
        if !self.resumed {
            self.chunk_records = requested;
        }
        self.chunk_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CsbError;
    use crate::sink::{EdgeSink, StoreSink};
    use csb_graph::EdgeProperties;
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("csb-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn identity() -> CheckpointIdentity {
        CheckpointIdentity { generator: "pgpba".into(), config_hash: 0xC0FFEE, master_seed: 42 }
    }

    /// An abandoned (killed without finish) run of `shards` files with a
    /// barrier after every chunk: returns the store path and checkpoint dir.
    fn abandoned_run(tag: &str, shards: usize) -> (PathBuf, PathBuf) {
        let dir = temp_dir(tag);
        let store = dir.join("g.csbstore");
        let layout =
            CheckpointedLayout::create(&store, &dir, identity(), shards, Compression::None)
                .expect("create")
                .with_checkpoint_every(1);
        let mut sink = StoreSink::new(layout).with_chunk_records(64);
        sink.push_vertices(&(0..50).collect::<Vec<u32>>()).expect("vertices");
        let ends: Vec<u32> = (0..500).map(|i| i % 50).collect();
        sink.push_edges(&ends, &ends, &vec![EdgeProperties::placeholder(); 500]).expect("edges");
        (store, dir)
    }

    fn entry(kind: ChunkKind, records: u64, offset: u64, payload_len: u64) -> ChunkEntry {
        ChunkEntry { kind, records, offset, payload_len, crc32: 7, columns: vec![] }
    }

    #[test]
    fn manifest_round_trips() {
        let file = |bytes_durable| ShardCheckpoint {
            bytes_durable,
            chunks: vec![
                entry(ChunkKind::Vertex, 100, 16, 400),
                entry(ChunkKind::Edge, 512, 444, 27_648),
            ],
        };
        // One file is a CSBCKPT1 manifest, several a CSBCKPT2 one.
        for shards in [vec![file(9000)], vec![file(9000), file(16), file(77)]] {
            let m = CheckpointManifest {
                identity: identity(),
                chunk_records: 512,
                store_version: FORMAT_VERSION,
                vertices_durable: 100,
                edges_durable: 2048,
                shards,
            };
            let dir = temp_dir("manifest");
            m.save(&dir).expect("save");
            assert!(CheckpointManifest::exists(&dir));
            let bytes = std::fs::read(CheckpointManifest::path_in(&dir)).expect("read");
            let magic = if m.shards.len() == 1 { MANIFEST_MAGIC } else { SHARDED_CKPT_MAGIC };
            assert_eq!(bytes[..8], magic);
            assert_eq!(CheckpointManifest::load(&dir).expect("load"), m);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupted_manifest_is_rejected() {
        let m = CheckpointManifest {
            identity: identity(),
            chunk_records: 64,
            store_version: FORMAT_VERSION,
            vertices_durable: 0,
            edges_durable: 0,
            shards: vec![ShardCheckpoint { bytes_durable: 16, chunks: vec![] }],
        };
        let dir = temp_dir("corrupt");
        m.save(&dir).expect("save");
        let path = CheckpointManifest::path_in(&dir);
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let err = CheckpointManifest::load(&dir).expect_err("corrupt");
        assert!(matches!(err, CsbError::Corrupt { .. }), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_mismatch_not_corruption() {
        let dir = temp_dir("missing");
        let err = CheckpointManifest::load(&dir).expect_err("missing");
        assert!(matches!(err, CsbError::Mismatch(_)), "got {err}");
        assert!(!err.is_transient());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_wrong_identity_and_compression() {
        for shards in [1usize, 2] {
            let (store, dir) = abandoned_run("reject", shards);
            let resume = |id, n, c| CheckpointedLayout::resume(&store, &dir, id, n, c);
            for wrong in [
                CheckpointIdentity { generator: "pgsk".into(), ..identity() },
                CheckpointIdentity { config_hash: 1, ..identity() },
                CheckpointIdentity { master_seed: 43, ..identity() },
            ] {
                let err = resume(wrong, shards, Compression::None).expect_err("identity");
                assert!(matches!(err, CsbError::Mismatch(_)), "got {err}");
            }
            // A different layout than the one the checkpoint was written
            // under: fewer files, more files, the other compression.
            for other in [3 - shards, shards + 2] {
                let err = resume(identity(), other, Compression::None).expect_err("shard count");
                let CsbError::Mismatch(msg) = &err else { panic!("got {err}") };
                assert!(msg.contains(&format!("{shards} store file")), "names the manifest: {msg}");
                assert!(msg.contains(&format!("requested {other}")), "names the request: {msg}");
            }
            if shards > 1 {
                let err = resume(identity(), shards, Compression::Columnar).expect_err("codec");
                assert!(matches!(err, CsbError::Mismatch(_)), "got {err}");
            }
            resume(identity(), shards, Compression::None).expect("the matching request resumes");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn shard_count_above_the_cap_is_refused_before_any_file_exists() {
        let dir = temp_dir("cap");
        let (store, ckpt) = (dir.join("g.csbshards"), dir.join("ckpt"));
        let err = CheckpointedLayout::create(&store, &ckpt, identity(), 100_000, Compression::None)
            .expect_err("over the cap");
        assert!(matches!(err, CsbError::Config(_)), "got {err}");
        assert!(err.to_string().contains("cap of 256"), "got {err}");
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 0, "nothing was created");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_detects_corrupt_durable_chunk() {
        let (store, dir) = abandoned_run("tornchunk", 1);
        let m = CheckpointManifest::load(&dir).expect("manifest");
        let last = m.shards[0].chunks.last().expect("chunks").clone();
        let mut f = OpenOptions::new().write(true).open(&store).expect("open");
        f.seek(SeekFrom::Start(last.offset + 28 + last.payload_len / 2)).expect("seek");
        f.write_all(&[0xFF]).expect("flip");
        drop(f);

        let err = CheckpointedLayout::resume(&store, &dir, identity(), 1, Compression::None)
            .expect_err("torn");
        assert!(matches!(err, CsbError::Corrupt { .. }), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
