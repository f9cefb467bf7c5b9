//! `GenJob` — the unified entry point for generation runs.
//!
//! A run is a combination of three orthogonal choices: *which generator*,
//! *where the output goes*, and *what extras to record*. `GenJob` makes the
//! combination explicit:
//!
//! ```no_run
//! use csb_core::{GenJob, PgpbaConfig};
//! # let seed: csb_core::SeedBundle = unimplemented!();
//! // In-memory graph with phase timings:
//! let run = GenJob::pgpba(&seed, PgpbaConfig::new(100_000)).timed().run().unwrap();
//! let graph = run.graph.unwrap();
//!
//! // Straight to a store file, checkpointing every 4 chunks, resuming a
//! // previous kill if a manifest exists:
//! let run = GenJob::pgpba(&seed, PgpbaConfig::new(100_000))
//!     .store("graph.csbstore")
//!     .checkpoint("ckpt-dir")
//!     .checkpoint_every(4)
//!     .resume()
//!     .run()
//!     .unwrap();
//! assert!(run.graph.is_none(), "store runs never hold the graph in memory");
//! ```
//!
//! The in-memory free functions `pgpba` and `pgsk` wrap a memory run and stay
//! public; streaming to a sink or a store goes through `GenJob` only.
//!
//! # Checkpointed runs and crash recovery
//!
//! A `.store(..).checkpoint(dir)` run writes a durable
//! [`CheckpointManifest`] every `checkpoint_every` store chunks. If the
//! process dies, re-running the same job with `.resume()` validates the
//! manifest (generator, config hash, master seed), truncates the partial
//! store file back to the last barrier, regrows the (deterministic)
//! topology, and replays attribute attachment only from the first
//! non-durable chunk — producing a file **byte-identical** to an
//! uninterrupted run. With `.retry(policy)` the restart happens in-process:
//! a transient failure mid-write triggers an automatic resume (counted in
//! the `job.restarts` metric) instead of surfacing to the caller.

use crate::config::{PgpbaConfig, PgskConfig};
use crate::diagnostics::PhaseTimings;
use crate::distributed::{pgpba_distributed, pgsk_distributed, DistConfig};
use crate::pgpba::pgpba_topology;
use crate::pgsk::pgsk_topology_phases;
use crate::seed::SeedBundle;
use crate::stream::attach_properties_to_sink;
use crate::topo::{attach_properties, Topology};
use csb_engine::{JobMetrics, RetryPolicy};
use csb_graph::NetflowGraph;
use csb_stats::rng::derive_seed;
use csb_store::checkpoint::{CheckpointIdentity, CheckpointManifest, CheckpointedLayout};
use csb_store::sink::{Layout, StoreSink};
use csb_store::{Compression, CsbError, EdgeSink, FileKind, ShardedLayout, StoreWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which generator a job runs, with its configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenConfig {
    /// Property-Graph Parallel Barabási-Albert.
    Pgpba(PgpbaConfig),
    /// Property-Graph Stochastic Kronecker.
    Pgsk(PgskConfig),
}

impl GenConfig {
    /// Generator name as recorded in checkpoint manifests and CLI flags.
    pub fn generator_name(&self) -> &'static str {
        match self {
            GenConfig::Pgpba(_) => "pgpba",
            GenConfig::Pgsk(_) => "pgsk",
        }
    }

    /// Master RNG seed of the run.
    pub fn master_seed(&self) -> u64 {
        match self {
            GenConfig::Pgpba(c) => c.seed,
            GenConfig::Pgsk(c) => c.seed,
        }
    }

    /// Requested synthetic edge count.
    pub fn desired_size(&self) -> u64 {
        match self {
            GenConfig::Pgpba(c) => c.desired_size,
            GenConfig::Pgsk(c) => c.desired_size,
        }
    }

    /// Deterministic hash of every config field *except* the seed (the
    /// checkpoint identity records the seed separately). Two jobs with the
    /// same hash, generator, and seed produce the same record stream, which
    /// is exactly the condition under which resuming is sound.
    pub fn config_hash(&self) -> u64 {
        match self {
            GenConfig::Pgpba(c) => {
                let mut h = derive_seed(0xC0F1_6BA0, c.desired_size);
                h = derive_seed(h, c.fraction.to_bits());
                h
            }
            GenConfig::Pgsk(c) => {
                let mut h = derive_seed(0xC0F1_65C0, c.desired_size);
                h = derive_seed(h, c.kronfit_iterations as u64);
                h = derive_seed(h, c.kronfit_permutation_samples as u64);
                h
            }
        }
    }

    fn identity(&self) -> CheckpointIdentity {
        CheckpointIdentity {
            generator: self.generator_name().to_string(),
            config_hash: self.config_hash(),
            master_seed: self.master_seed(),
        }
    }
}

/// Where a job's output goes.
enum Output<'s> {
    /// Materialize a [`NetflowGraph`] in memory (the classic API).
    Memory,
    /// Stream into a caller-provided sink.
    Sink(&'s mut dyn EdgeSink),
    /// Write a store file, optionally with checkpoint barriers.
    Store(PathBuf),
}

/// Checkpointing options of a `.store()` run.
#[derive(Debug, Clone, Default)]
struct CheckpointOpts {
    dir: Option<PathBuf>,
    every: Option<u64>,
    resume: bool,
    chunk_records: Option<usize>,
    kill_after_chunks: Option<(u64, bool)>,
}

/// Store layout options of a `.store()` run.
#[derive(Debug, Clone, Copy, Default)]
struct StoreOpts {
    shards: usize,
    compression: Compression,
}

/// A configured generation run. Build with [`GenJob::pgpba`] /
/// [`GenJob::pgsk`], refine with the builder methods, execute with
/// [`GenJob::run`].
pub struct GenJob<'a, 's> {
    seed: &'a SeedBundle,
    config: GenConfig,
    timed: bool,
    distributed: Option<DistConfig>,
    retry: RetryPolicy,
    output: Output<'s>,
    ckpt: CheckpointOpts,
    store_opts: StoreOpts,
    recorder: Option<csb_obs::Recorder>,
    job_id: Option<String>,
    cancel: Option<Arc<AtomicBool>>,
}

/// What a [`GenJob`] produced.
#[derive(Debug)]
pub struct GenRun {
    /// The synthetic graph — `Some` only for in-memory runs.
    pub graph: Option<NetflowGraph>,
    /// Edges generated (for resumed runs: the full logical edge count, not
    /// just the replayed suffix).
    pub edges: u64,
    /// Per-phase wall-clock timings when [`GenJob::timed`] was requested.
    pub timings: Option<PhaseTimings>,
    /// Engine operator metrics when [`GenJob::distributed`] was requested.
    pub metrics: Option<JobMetrics>,
}

impl<'a, 's> GenJob<'a, 's> {
    fn new(seed: &'a SeedBundle, config: GenConfig) -> Self {
        GenJob {
            seed,
            config,
            timed: false,
            distributed: None,
            retry: RetryPolicy::none(),
            output: Output::Memory,
            ckpt: CheckpointOpts::default(),
            store_opts: StoreOpts::default(),
            recorder: None,
            job_id: None,
            cancel: None,
        }
    }

    /// A PGPBA job.
    pub fn pgpba(seed: &'a SeedBundle, cfg: PgpbaConfig) -> Self {
        GenJob::new(seed, GenConfig::Pgpba(cfg))
    }

    /// A PGSK job.
    pub fn pgsk(seed: &'a SeedBundle, cfg: PgskConfig) -> Self {
        GenJob::new(seed, GenConfig::Pgsk(cfg))
    }

    /// Records per-phase wall-clock timings into [`GenRun::timings`].
    pub fn timed(mut self) -> Self {
        self.timed = true;
        self
    }

    /// Routes this job's telemetry (spans, metrics, live status) into `rec`
    /// instead of the process-global recorder, so concurrent jobs never
    /// cross-contaminate. The recorder is installed on the job thread for
    /// the whole run and propagated into the shard writer threads and
    /// parallel attach workers. Telemetry never touches generator RNG
    /// streams: output is bit-identical with or without a recorder.
    pub fn recorder(mut self, rec: csb_obs::Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Names the job on its status board (`GET /status`, `--progress`);
    /// defaults to `<generator>-<master_seed, hex>`.
    pub fn job_id(mut self, id: impl Into<String>) -> Self {
        self.job_id = Some(id.into());
        self
    }

    /// Grows the topology on the `csb-engine` dataflow (the paper's
    /// Spark-mirroring path) instead of in-process; operator metrics land in
    /// [`GenRun::metrics`]. The engine's per-task retry/fault policy rides
    /// in [`DistConfig::tasks`].
    pub fn distributed(mut self, dist: DistConfig) -> Self {
        self.distributed = Some(dist);
        self
    }

    /// Streams output into `sink` instead of materializing a graph.
    pub fn sink(mut self, sink: &'s mut dyn EdgeSink) -> Self {
        self.output = Output::Sink(sink);
        self
    }

    /// Writes output to a graph store file at `path`.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.output = Output::Store(path.into());
        self
    }

    /// Splits a `.store()` run across `n` shard files written by parallel
    /// workers (the store path becomes a shard-set manifest; readers and
    /// `load_graph` dispatch on its magic). `n <= 1` keeps the single-file
    /// layout.
    pub fn shards(mut self, n: usize) -> Self {
        self.store_opts.shards = n;
        self
    }

    /// Store compression for `.store()` runs: [`Compression::Columnar`]
    /// writes format v2 with per-column codecs (delta+varint endpoints,
    /// dictionary-packed low-cardinality columns); the default
    /// [`Compression::None`] keeps v1.
    pub fn compression(mut self, c: Compression) -> Self {
        self.store_opts.compression = c;
        self
    }

    /// Enables checkpoint barriers (manifest in `dir`) on a `.store()` run.
    pub fn checkpoint(mut self, dir: impl Into<PathBuf>) -> Self {
        self.ckpt.dir = Some(dir.into());
        self
    }

    /// Store chunks between checkpoint barriers (default
    /// [`csb_store::checkpoint::DEFAULT_CHECKPOINT_EVERY`]).
    pub fn checkpoint_every(mut self, chunks: u64) -> Self {
        self.ckpt.every = Some(chunks.max(1));
        self
    }

    /// Resumes from the checkpoint manifest if one exists (fresh start
    /// otherwise). The manifest's identity must match this job.
    pub fn resume(mut self) -> Self {
        self.ckpt.resume = true;
        self
    }

    /// Job-level restarts: when a checkpointed `.store()` run fails
    /// transiently, resume it in-process up to `policy.max_retries` times
    /// (deterministic backoff) before surfacing the error.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Overrides the store chunk size (tests use small chunks to exercise
    /// multi-chunk and checkpoint paths cheaply).
    pub fn chunk_records(mut self, records: usize) -> Self {
        self.ckpt.chunk_records = Some(records.max(1));
        self
    }

    /// Fault-injection hook for checkpointed store runs: the run dies before
    /// writing chunk `n + 1`. With `abort_process` the whole process exits
    /// via [`std::process::abort`] (what the CI kill-and-resume smoke uses);
    /// otherwise a transient error surfaces (or triggers [`GenJob::retry`]).
    /// The hook applies to the *first* attempt only, so a retrying job
    /// recovers instead of dying again.
    pub fn kill_after_chunks(mut self, n: u64, abort_process: bool) -> Self {
        self.ckpt.kill_after_chunks = Some((n, abort_process));
        self
    }

    /// Cooperative cancellation/preemption for store-backed runs: once
    /// `flag` is set, the job stops at the next phase boundary — or, on a
    /// checkpointed run, at the next store chunk boundary after taking a
    /// durable barrier — and surfaces [`CsbError::Transient`]. A preempted
    /// checkpointed job resumes byte-identically via [`GenJob::resume`].
    /// While the flag is set, [`GenJob::retry`] does not auto-restart.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Grows the topology (in-process or on the engine), returning it with
    /// any engine metrics and a [`PhaseTimings`] whose grow and inflate
    /// phases are filled in (inflate is PGSK's in-process re-inflation; the
    /// engine path folds it into grow).
    fn grow(&self) -> (Topology, Option<JobMetrics>, PhaseTimings) {
        csb_obs::status::set_phase("grow");
        let mut phases = PhaseTimings::new(self.config.generator_name(), 0);
        let analysis = &self.seed.analysis;
        let (topo, metrics) = match (&self.config, &self.distributed) {
            (GenConfig::Pgpba(cfg), None) => {
                let seed_topo = Topology::of_graph(&self.seed.graph);
                let t0 = Instant::now();
                let topo = pgpba_topology(&seed_topo, analysis, cfg);
                phases.grow = t0.elapsed();
                (topo, None)
            }
            (GenConfig::Pgsk(cfg), None) => {
                let seed_topo = Topology::of_graph(&self.seed.graph);
                let (topo, grow, inflate) = pgsk_topology_phases(&seed_topo, analysis, cfg);
                (phases.grow, phases.inflate) = (grow, inflate);
                (topo, None)
            }
            (config, Some(dist)) => {
                let t0 = Instant::now();
                let (topo, metrics) = match config {
                    GenConfig::Pgpba(cfg) => pgpba_distributed(self.seed, cfg, dist),
                    GenConfig::Pgsk(cfg) => pgsk_distributed(self.seed, cfg, dist),
                };
                phases.grow = t0.elapsed();
                (topo, Some(metrics))
            }
        };
        (topo, metrics, phases)
    }

    /// The attach conventions the in-process generators established: PGPBA
    /// keeps seed host addresses and streams under `seed ^ 0x9E37`; PGSK
    /// vertices have no seed correspondence (`seed ^ 0x5EED`, all-synthetic
    /// addresses).
    fn attach_params(&self) -> (Vec<u32>, u64) {
        match &self.config {
            GenConfig::Pgpba(cfg) => (self.seed.graph.vertex_data().to_vec(), cfg.seed ^ 0x9E37),
            GenConfig::Pgsk(cfg) => (Vec::new(), cfg.seed ^ 0x5EED),
        }
    }

    /// What the generators would assert on and the builder combinations that
    /// make no sense, as errors: configs arrive from flags and wire requests.
    fn validate(&self) -> Result<(), CsbError> {
        match &self.config {
            GenConfig::Pgpba(cfg) => cfg.check(),
            GenConfig::Pgsk(cfg) => cfg.check(),
        }
        .map_err(CsbError::Config)?;
        csb_store::check_shard_count(self.store_opts.shards)?;
        if self.ckpt.kill_after_chunks.is_some() && self.ckpt.dir.is_none() {
            return Err(CsbError::Config(
                "kill_after_chunks requires a checkpoint directory".into(),
            ));
        }
        if (self.ckpt.dir.is_some() || self.ckpt.resume) && !matches!(self.output, Output::Store(_))
        {
            return Err(CsbError::Config(
                "checkpoint/resume apply only to store-backed runs (use .store(path))".into(),
            ));
        }
        Ok(())
    }

    /// Runs the job.
    pub fn run(self) -> Result<GenRun, CsbError> {
        // The scoped recorder (if any) is current for the whole run; worker
        // threads spawned below re-install it explicitly.
        let _scope = self.recorder.clone().map(|r| r.install());
        // Before the job is announced: a refused job must not sit on the
        // status board at `starting`.
        self.validate()?;
        let _span = csb_obs::span_cat("genjob.run", "gen");
        let job_id = self.job_id.clone().unwrap_or_else(|| {
            format!("{}-{:016x}", self.config.generator_name(), self.config.master_seed())
        });
        csb_obs::status::begin_job(
            &job_id,
            self.config.generator_name(),
            self.config.desired_size(),
        );
        let result = match self.output {
            Output::Memory => self.run_memory(),
            Output::Sink(_) => self.run_sink(),
            Output::Store(_) => self.run_store(),
        };
        match &result {
            Ok(run) => {
                csb_obs::status::note_edges(run.edges);
                csb_obs::status::finish();
            }
            Err(_) => csb_obs::status::set_phase("failed"),
        }
        result
    }

    fn run_memory(self) -> Result<GenRun, CsbError> {
        let (topo, metrics, phases) = self.grow();
        let (ips, attach_seed) = self.attach_params();
        csb_obs::status::set_phase("attach");
        let t1 = Instant::now();
        let g = attach_properties(&topo, &self.seed.analysis.properties, &ips, attach_seed);
        let attach = t1.elapsed();
        let edges = g.edge_count() as u64;
        let timings =
            self.timed.then_some(PhaseTimings { edges: edges as usize, attach, ..phases });
        Ok(GenRun { graph: Some(g), edges, timings, metrics })
    }

    fn run_sink(self) -> Result<GenRun, CsbError> {
        let timed = self.timed;
        let (topo, metrics, phases) = self.grow();
        let (ips, attach_seed) = self.attach_params();
        let Output::Sink(sink) = self.output else { unreachable!("run_sink on non-sink output") };
        csb_obs::status::set_phase("attach");
        let t1 = Instant::now();
        let edges = attach_properties_to_sink(
            &topo,
            &self.seed.analysis.properties,
            &ips,
            attach_seed,
            sink,
        )?;
        let attach = t1.elapsed();
        let timings = timed.then_some(PhaseTimings { edges: edges as usize, attach, ..phases });
        Ok(GenRun { graph: None, edges, timings, metrics })
    }

    fn run_store(self) -> Result<GenRun, CsbError> {
        let Output::Store(path) = &self.output else {
            unreachable!("run_store on non-store output")
        };
        let path = path.clone();
        let generator = self.config.generator_name();
        let identity = self.config.identity();
        let checkpointing = self.ckpt.dir.is_some();
        let retry = self.retry;
        let job_seed = derive_seed(self.config.master_seed(), 0x10B);

        let mut resume = self.ckpt.resume;
        let mut kill = self.ckpt.kill_after_chunks;
        let mut attempt = 0u32;
        loop {
            let result = self.run_store_once(&path, &identity, resume, kill);
            match result {
                Ok(run) => return Ok(run),
                // A preempted job (cancel flag set) must surface, not
                // auto-restart: the scheduler that set the flag owns the
                // requeue/resume decision.
                Err(e)
                    if e.is_transient()
                        && checkpointing
                        && attempt < retry.max_retries
                        && !self.cancelled() =>
                {
                    csb_obs::counter_add("job.restarts", 1);
                    csb_obs::status::note_restart();
                    csb_obs::obs_info!(
                        "{generator} store run failed transiently ({e}); resuming from the last \
                         checkpoint (restart {})",
                        attempt + 1
                    );
                    let delay = retry.backoff_ms(attempt, job_seed);
                    if delay > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                    }
                    attempt += 1;
                    resume = true;
                    kill = None; // the fault hook models one crash, not a crash loop
                }
                Err(e)
                    if e.is_transient()
                        && checkpointing
                        && retry.max_retries > 0
                        && !self.cancelled() =>
                {
                    return Err(CsbError::RetryExhausted {
                        attempts: attempt + 1,
                        last: Box::new(e),
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn run_store_once(
        &self,
        path: &std::path::Path,
        identity: &CheckpointIdentity,
        resume: bool,
        kill: Option<(u64, bool)>,
    ) -> Result<GenRun, CsbError> {
        if self.cancelled() {
            return Err(CsbError::Transient("preempted: cancel flag set before grow".into()));
        }
        let (topo, metrics, phases) = self.grow();
        if self.cancelled() && self.ckpt.dir.is_none() {
            // Checkpointed runs defer to the layout's chunk-boundary check,
            // which takes a durable barrier first.
            return Err(CsbError::Transient("preempted: cancel flag set before attach".into()));
        }
        csb_obs::status::set_phase("attach");

        let StoreOpts { shards, compression } = self.store_opts;
        let (edges, attach) = match &self.ckpt.dir {
            Some(dir) => {
                let resuming = resume && CheckpointManifest::exists(dir);
                let open =
                    if resuming { CheckpointedLayout::resume } else { CheckpointedLayout::create };
                let mut layout = open(path, dir, identity.clone(), shards, compression)?;
                if let Some(every) = self.ckpt.every {
                    layout = layout.with_checkpoint_every(every);
                }
                if let Some((n, abort)) = kill {
                    layout = layout.with_kill_after_chunks(n, abort);
                }
                if let Some(flag) = &self.cancel {
                    layout = layout.with_stop_flag(Arc::clone(flag));
                }
                let _replay = resuming.then(|| csb_obs::span_cat("resume.replay", "gen"));
                self.attach_through(layout, &topo)?
            }
            None if shards > 1 => self.attach_through(
                ShardedLayout::create(path, FileKind::Graph, shards, compression)?,
                &topo,
            )?,
            None => self.attach_through(
                StoreWriter::create_with(path, FileKind::Graph, compression.version())?,
                &topo,
            )?,
        };
        let timings =
            self.timed.then_some(PhaseTimings { edges: edges as usize, attach, ..phases });
        Ok(GenRun { graph: None, edges, timings, metrics })
    }

    /// Attaches properties to `topo` and streams the result through
    /// `layout`; returns the edge count and the attach wall time.
    fn attach_through<L: Layout>(
        &self,
        layout: L,
        topo: &Topology,
    ) -> Result<(u64, std::time::Duration), CsbError> {
        let (ips, attach_seed) = self.attach_params();
        let mut sink = StoreSink::new(layout);
        if let Some(n) = self.ckpt.chunk_records {
            sink = sink.with_chunk_records(n);
        }
        let t1 = Instant::now();
        let model = &self.seed.analysis.properties;
        let edges = attach_properties_to_sink(topo, model, &ips, attach_seed, &mut sink)?;
        sink.finish()?;
        Ok((edges, t1.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgpba::pgpba;
    use crate::pgsk::pgsk;
    use crate::seed::seed_from_trace;
    use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
    use csb_store::sink::{save_graph_to, MemoryGraphSink};
    use std::time::Duration;

    fn small_seed() -> SeedBundle {
        let trace = TrafficSim::new(TrafficSimConfig {
            duration_secs: 5.0,
            sessions_per_sec: 10.0,
            seed: 11,
            ..TrafficSimConfig::default()
        })
        .generate();
        seed_from_trace(&trace)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("csb-genjob-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn assert_graphs_equal(a: &NetflowGraph, b: &NetflowGraph) {
        assert_eq!(a.vertex_data(), b.vertex_data());
        assert_eq!(a.edge_sources(), b.edge_sources());
        assert_eq!(a.edge_targets(), b.edge_targets());
        assert_eq!(a.edge_data(), b.edge_data());
    }

    #[test]
    fn memory_run_matches_the_free_functions() {
        let seed = small_seed();
        let ba_cfg = PgpbaConfig { desired_size: 6000, fraction: 0.5, seed: 42 };
        let run = GenJob::pgpba(&seed, ba_cfg).run().expect("run");
        assert_graphs_equal(run.graph.as_ref().expect("graph"), &pgpba(&seed, &ba_cfg));
        assert!(run.timings.is_none() && run.metrics.is_none());

        let sk_cfg = PgskConfig { seed: 7, ..PgskConfig::new(2000) };
        let run = GenJob::pgsk(&seed, sk_cfg).run().expect("run");
        assert_graphs_equal(run.graph.as_ref().expect("graph"), &pgsk(&seed, &sk_cfg));
    }

    #[test]
    fn timed_run_reports_phase_timings() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 6000, fraction: 0.5, seed: 42 };
        let run = GenJob::pgpba(&seed, cfg).timed().run().expect("run");
        let timings = run.timings.expect("timings");
        let reference = pgpba(&seed, &cfg);
        assert_eq!(timings.generator, "pgpba");
        assert_eq!(timings.edges, reference.edge_count());
        assert!(timings.grow > Duration::ZERO && timings.attach > Duration::ZERO);
        assert_eq!(timings.inflate, Duration::ZERO, "PGPBA has no inflate phase");
        assert_graphs_equal(run.graph.as_ref().expect("graph"), &reference);
    }

    #[test]
    fn timed_pgsk_store_run_reports_inflate_apart_from_grow() {
        let seed = small_seed();
        let cfg = PgskConfig { seed: 7, ..PgskConfig::new(2000) };
        let dir = temp_dir("timedsk");
        let run =
            GenJob::pgsk(&seed, cfg).store(dir.join("k.csbstore")).timed().run().expect("run");
        let timings = run.timings.expect("timings");
        assert_eq!((timings.generator, timings.edges as u64), ("pgsk", run.edges));
        assert!(timings.inflate > Duration::ZERO, "a store run times re-inflation too");
        assert!(timings.grow > Duration::ZERO && timings.attach > Duration::ZERO);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_run_streams_the_same_graph() {
        let seed = small_seed();
        let ba_cfg = PgpbaConfig { desired_size: 12_000, fraction: 0.5, seed: 42 };
        let sk_cfg = PgskConfig { seed: 7, ..PgskConfig::new(2000) };
        let ba = pgpba(&seed, &ba_cfg);
        assert!(ba.edge_count() > crate::topo::ATTACH_CHUNK, "must span several RNG chunks");
        for (config, want) in
            [(GenConfig::Pgpba(ba_cfg), ba), (GenConfig::Pgsk(sk_cfg), pgsk(&seed, &sk_cfg))]
        {
            let mut sink = MemoryGraphSink::new();
            let run = GenJob::new(&seed, config).sink(&mut sink).run().expect("run");
            assert!(run.graph.is_none());
            let streamed = sink.into_graph();
            assert_eq!(run.edges as usize, streamed.edge_count());
            assert_graphs_equal(&streamed, &want);
        }
    }

    #[test]
    fn distributed_run_returns_metrics() {
        let seed = small_seed();
        let cfg =
            PgpbaConfig { desired_size: seed.edge_count() as u64 * 2, fraction: 0.4, seed: 7 };
        let run = GenJob::pgpba(&seed, cfg).distributed(DistConfig::default()).run().expect("run");
        assert!(run.graph.is_some());
        assert!(!run.metrics.expect("metrics").is_empty());
    }

    #[test]
    fn store_run_is_byte_identical_to_the_sink_path() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 6000, fraction: 0.5, seed: 42 };
        let want = save_graph_to(Vec::new(), &pgpba(&seed, &cfg)).expect("save");
        let dir = temp_dir("store");
        let path = dir.join("g.csbstore");
        let run = GenJob::pgpba(&seed, cfg).store(&path).run().expect("run");
        assert!(run.edges > 0);
        assert_eq!(std::fs::read(&path).expect("read"), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_kill_then_retry_resumes_to_identical_bytes() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 12_000, fraction: 0.5, seed: 42 };
        let dir = temp_dir("killretry");
        let clean = dir.join("clean.csbstore");
        GenJob::pgpba(&seed, cfg).store(&clean).chunk_records(1024).run().expect("clean run");

        // One in-process job: dies after 3 chunks, restarts itself from the
        // checkpoint, finishes — bytes must match the uninterrupted run.
        let crashy = dir.join("crashy.csbstore");
        let ckpt = dir.join("ckpt");
        let run = GenJob::pgpba(&seed, cfg)
            .store(&crashy)
            .chunk_records(1024)
            .checkpoint(&ckpt)
            .checkpoint_every(1)
            .kill_after_chunks(3, false)
            .retry(RetryPolicy { max_retries: 2, base_delay_ms: 0, max_delay_ms: 0 })
            .run()
            .expect("job must survive the injected crash");
        assert!(run.edges > 0);
        assert_eq!(
            std::fs::read(&crashy).expect("read"),
            std::fs::read(&clean).expect("read"),
            "restarted store file must be byte-identical"
        );
        assert!(!CheckpointManifest::exists(&ckpt), "completed run must clear its manifest");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_without_retry_surfaces_transient_and_explicit_resume_completes() {
        let seed = small_seed();
        let cfg = PgskConfig { seed: 7, ..PgskConfig::new(4000) };
        let dir = temp_dir("tworuns");
        let clean = dir.join("clean.csbstore");
        GenJob::pgsk(&seed, cfg).store(&clean).chunk_records(512).run().expect("clean run");

        let crashy = dir.join("crashy.csbstore");
        let ckpt = dir.join("ckpt");
        let err = GenJob::pgsk(&seed, cfg)
            .store(&crashy)
            .chunk_records(512)
            .checkpoint(&ckpt)
            .checkpoint_every(1)
            .kill_after_chunks(4, false)
            .run()
            .expect_err("the injected kill must surface without a retry budget");
        assert!(err.is_transient(), "got {err}");
        assert!(CheckpointManifest::exists(&ckpt), "manifest must survive the crash");

        // Second process: same job + .resume().
        let run = GenJob::pgsk(&seed, cfg)
            .store(&crashy)
            .chunk_records(512)
            .checkpoint(&ckpt)
            .checkpoint_every(1)
            .resume()
            .run()
            .expect("resume");
        assert!(run.edges > 0);
        assert_eq!(
            std::fs::read(&crashy).expect("read"),
            std::fs::read(&clean).expect("read"),
            "resumed store file must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_a_different_config_is_rejected() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 9000, fraction: 0.5, seed: 42 };
        let dir = temp_dir("wrongcfg");
        let store = dir.join("g.csbstore");
        let ckpt = dir.join("ckpt");
        GenJob::pgpba(&seed, cfg)
            .store(&store)
            .chunk_records(512)
            .checkpoint(&ckpt)
            .checkpoint_every(1)
            .kill_after_chunks(3, false)
            .run()
            .expect_err("killed");

        let other = PgpbaConfig { desired_size: 9000, fraction: 0.7, seed: 42 };
        let err = GenJob::pgpba(&seed, other)
            .store(&store)
            .chunk_records(512)
            .checkpoint(&ckpt)
            .resume()
            .run()
            .expect_err("different fraction must not resume");
        assert!(matches!(err, CsbError::Mismatch(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_shard_count_is_not_a_thread_bomb() {
        // Every shard is a writer thread and a file: unchecked, a count like
        // this one takes the process down, not just the job.
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 6000, fraction: 0.5, seed: 42 };
        let dir = temp_dir("shardcap");
        let job = || GenJob::pgpba(&seed, cfg).store(dir.join("x.csbshards")).shards(100_000);
        for job in [job(), job().checkpoint(dir.join("ckpt"))] {
            let err = job.run().expect_err("over the cap");
            let CsbError::Config(msg) = &err else { panic!("got {err}") };
            assert!(msg.contains(&format!("cap of {}", csb_store::MAX_SHARDS)), "{msg}");
        }
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 0, "nothing was created");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_under_a_different_shard_count_is_rejected() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 9000, fraction: 0.5, seed: 42 };
        for written in [1usize, 3] {
            let dir = temp_dir(&format!("wrongshards{written}"));
            let store = dir.join("g.csbstore");
            let ckpt = dir.join("ckpt");
            let job = |shards| {
                GenJob::pgpba(&seed, cfg)
                    .store(&store)
                    .chunk_records(512)
                    .shards(shards)
                    .checkpoint(&ckpt)
                    .checkpoint_every(1)
            };
            job(written).kill_after_chunks(4, false).run().expect_err("killed");
            // Fewer files, or more, than the checkpoint was written across:
            // neither may splice into it, and the error names both counts.
            for requested in [4 - written, written + 1] {
                let err = job(requested).resume().run().expect_err("different shard count");
                let CsbError::Mismatch(msg) = &err else { panic!("got {err}") };
                assert!(msg.contains(&format!("{written} store file")), "{msg}");
                assert!(msg.contains(&format!("requested {requested}")), "{msg}");
            }
            job(written).resume().run().expect("the layout it was written under resumes");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sharded_v2_store_run_loads_and_scores_identically_to_single_v1() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 6000, fraction: 0.5, seed: 42 };
        let dir = temp_dir("sharded");
        let single = dir.join("single.csbstore");
        GenJob::pgpba(&seed, cfg).store(&single).chunk_records(512).run().expect("single run");

        let sharded = dir.join("sharded.csbshards");
        let run = GenJob::pgpba(&seed, cfg)
            .store(&sharded)
            .chunk_records(512)
            .shards(4)
            .compression(Compression::Columnar)
            .run()
            .expect("sharded run");
        assert!(run.edges > 0);

        // Same logical graph through the transparent loader...
        let a = csb_store::load_graph(&single).expect("load single");
        let b = csb_store::load_graph(&sharded).expect("load sharded");
        assert_graphs_equal(&a, &b);

        // ...and bit-identical OOC veracity over either layout.
        let seed_store = dir.join("seed.csbstore");
        csb_store::sink::save_graph(&seed_store, &seed.graph).expect("save seed");
        let score = |synth: &std::path::Path| {
            crate::VeracityJob::new()
                .seed_store(&seed_store)
                .synthetic_store(synth)
                .run()
                .expect("score")
        };
        let v1 = score(&single);
        let v2 = score(&sharded);
        assert_eq!(v1.score("degree").unwrap().to_bits(), v2.score("degree").unwrap().to_bits());
        assert_eq!(
            v1.score("pagerank").unwrap().to_bits(),
            v2.score("pagerank").unwrap().to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_checkpointed_kill_then_retry_resumes_to_identical_shards() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 12_000, fraction: 0.5, seed: 42 };
        let dir = temp_dir("shardkill");
        let clean = dir.join("clean.csbshards");
        GenJob::pgpba(&seed, cfg)
            .store(&clean)
            .chunk_records(1024)
            .shards(4)
            .compression(Compression::Columnar)
            .run()
            .expect("clean sharded run");

        let crashy = dir.join("crashy.csbshards");
        let ckpt = dir.join("ckpt");
        let run = GenJob::pgpba(&seed, cfg)
            .store(&crashy)
            .chunk_records(1024)
            .shards(4)
            .compression(Compression::Columnar)
            .checkpoint(&ckpt)
            .checkpoint_every(1)
            .kill_after_chunks(3, false)
            .retry(RetryPolicy { max_retries: 2, base_delay_ms: 0, max_delay_ms: 0 })
            .run()
            .expect("job must survive the injected crash");
        assert!(run.edges > 0);
        for i in 0..4 {
            let a = std::fs::read(dir.join(format!("clean.csbshards.s{i}"))).expect("clean");
            let b = std::fs::read(dir.join(format!("crashy.csbshards.s{i}"))).expect("crashy");
            assert_eq!(a, b, "shard {i} must resume byte-identically");
        }
        assert!(!CheckpointManifest::exists(&ckpt), "completed run must clear its manifest");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_single_file_rejects_columnar_compression() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 1000, fraction: 0.5, seed: 1 };
        let dir = temp_dir("v2single");
        let err = GenJob::pgpba(&seed, cfg)
            .store(dir.join("g.csbstore"))
            .checkpoint(dir.join("ckpt"))
            .compression(Compression::Columnar)
            .run()
            .expect_err("unsupported combination");
        assert!(matches!(err, CsbError::Config(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_hash_separates_configs_but_not_seeds() {
        let a = GenConfig::Pgpba(PgpbaConfig { desired_size: 100, fraction: 0.1, seed: 1 });
        let b = GenConfig::Pgpba(PgpbaConfig { desired_size: 100, fraction: 0.1, seed: 2 });
        let c = GenConfig::Pgpba(PgpbaConfig { desired_size: 100, fraction: 0.2, seed: 1 });
        let d = GenConfig::Pgsk(PgskConfig::new(100));
        assert_eq!(a.config_hash(), b.config_hash(), "seed lives in the identity, not the hash");
        assert_ne!(a.config_hash(), c.config_hash());
        assert_ne!(a.config_hash(), d.config_hash());
    }

    /// `job` is refused with a config error before it is announced: its
    /// recorder's status board never hears of it.
    fn assert_refused(job: GenJob<'_, '_>, why: &str) {
        let rec = csb_obs::Recorder::new();
        let err = job.recorder(rec.clone()).run().expect_err(why);
        assert!(matches!(err, CsbError::Config(_)), "{why}: got {err}");
        let board = rec.status().snapshot();
        assert_eq!(board, csb_obs::status::StatusSnapshot::default(), "{why}");
    }

    #[test]
    fn invalid_combinations_are_config_errors() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 1000, fraction: 0.5, seed: 1 };
        assert_refused(GenJob::pgpba(&seed, cfg).checkpoint("/tmp/nope"), "no store");
        assert_refused(
            GenJob::pgpba(&seed, cfg).store("/tmp/nope.csbstore").kill_after_chunks(1, false),
            "kill hook needs checkpointing",
        );
    }

    #[test]
    fn configs_the_generators_assert_on_are_config_errors() {
        let seed = small_seed();
        let pgpba = |desired_size, fraction| {
            GenJob::pgpba(&seed, PgpbaConfig { desired_size, fraction, seed: 1 })
        };
        assert_refused(pgpba(0, 0.5), "zero size");
        for fraction in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert_refused(pgpba(1000, fraction), &format!("fraction {fraction}"));
        }
        assert_refused(GenJob::pgsk(&seed, PgskConfig::new(0)), "zero size");
        let no_fit = PgskConfig { kronfit_iterations: 0, ..PgskConfig::new(1000) };
        assert_refused(GenJob::pgsk(&seed, no_fit), "zero KronFit iterations");
    }
}
