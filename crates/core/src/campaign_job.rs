//! `CampaignJob` — benign traffic plus multi-stage attack campaigns, out to
//! labeled flows.
//!
//! The job mirrors [`GenJob`](crate::GenJob)'s builder shape for the labeled
//! end of the pipeline: simulate a benign capture, run one or more kill-chain
//! campaigns over the same topology, merge the packet streams in time order,
//! assemble flows (optionally across parallel workers — output is
//! byte-identical for every worker count), and attach per-flow ground-truth
//! labels. Store-backed runs write the labeled flow store (single file or
//! shard set) that `csb-ids` evaluation and the KDD exporter consume.
//!
//! ```no_run
//! use csb_core::CampaignJob;
//! use csb_net::traffic::campaign::CampaignConfig;
//! let out = CampaignJob::new()
//!     .duration_secs(60.0)
//!     .sessions_per_sec(40.0)
//!     .seed(7)
//!     .campaign(CampaignConfig::kill_chain(1, 7, 5.0))
//!     .workers(4)
//!     .store("flows.csbstore")
//!     .run()
//!     .unwrap();
//! assert!(out.labeled_flows > 0);
//! ```

use csb_net::traffic::campaign::{
    assemble_labeled, Campaign, CampaignConfig, CampaignRun, LabeledFlow,
};
use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
use csb_store::sink::{Layout, StoreSink};
use csb_store::{Compression, CsbError, FileKind, ShardedLayout, StoreWriter};
use std::path::PathBuf;

/// Default chunk size of a *sharded* labeled flow store: small enough that
/// a modest capture still deals chunks to every shard. A single-file store
/// defaults to the sink's own [`csb_store::sink::CHUNK_RECORDS`].
const SHARDED_CHUNK_RECORDS: usize = 8192;

/// A configured campaign run. Build with [`CampaignJob::new`], refine with
/// the builder methods, execute with [`CampaignJob::run`].
#[derive(Debug, Clone)]
pub struct CampaignJob {
    sim: TrafficSimConfig,
    campaigns: Vec<CampaignConfig>,
    workers: usize,
    store: Option<PathBuf>,
    shards: usize,
    compression: Compression,
    chunk_records: Option<usize>,
    recorder: Option<csb_obs::Recorder>,
}

impl Default for CampaignJob {
    fn default() -> Self {
        CampaignJob::new()
    }
}

/// What a [`CampaignJob`] produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The assembled labeled flow stream, in canonical (time, 5-tuple)
    /// order — benign and attack flows interleaved.
    pub flows: Vec<LabeledFlow>,
    /// One realized run per configured campaign, carrying the ground-truth
    /// [`StageAction`](csb_net::traffic::campaign::StageAction) list.
    pub runs: Vec<CampaignRun>,
    /// Total packets in the merged benign+campaign trace.
    pub packets: usize,
    /// Flows carrying an attack label.
    pub labeled_flows: usize,
}

impl CampaignJob {
    /// A job with the default benign simulator config and no campaigns.
    pub fn new() -> Self {
        CampaignJob {
            sim: TrafficSimConfig::default(),
            campaigns: Vec::new(),
            workers: 1,
            store: None,
            shards: 0,
            compression: Compression::default(),
            chunk_records: None,
            recorder: None,
        }
    }

    /// Replaces the whole benign simulator configuration (topology sizing,
    /// rate profile, inbound fraction, ...).
    pub fn sim(mut self, cfg: TrafficSimConfig) -> Self {
        self.sim = cfg;
        self
    }

    /// Capture duration in simulated seconds.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.sim.duration_secs = secs;
        self
    }

    /// Mean benign session arrival rate.
    pub fn sessions_per_sec(mut self, rate: f64) -> Self {
        self.sim.sessions_per_sec = rate;
        self
    }

    /// Master seed of the benign simulator (campaigns carry their own seeds
    /// in their [`CampaignConfig`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Adds one campaign to the run.
    pub fn campaign(mut self, cfg: CampaignConfig) -> Self {
        self.campaigns.push(cfg);
        self
    }

    /// Flow-assembler partition count (default 1), run on the ambient rayon
    /// pool. Any count, at any pool width, produces the same labeled stream,
    /// bit for bit.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Also writes the labeled flow store to `path`.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// Splits the `.store()` output across `n` shard files behind a shard-set
    /// manifest (`n <= 1` keeps the single-file layout). Either layout loads
    /// back to the identical stream.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Store compression ([`Compression::Columnar`] writes format v2 with
    /// per-column codecs).
    pub fn compression(mut self, c: Compression) -> Self {
        self.compression = c;
        self
    }

    /// Overrides the store chunk size, for either layout.
    pub fn chunk_records(mut self, records: usize) -> Self {
        self.chunk_records = Some(records.max(1));
        self
    }

    /// Routes telemetry into `rec` instead of the process-global recorder.
    pub fn recorder(mut self, rec: csb_obs::Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Runs the job: simulate, attack, merge, assemble, label, store.
    pub fn run(self) -> Result<CampaignOutcome, CsbError> {
        let _scope = self.recorder.clone().map(|r| r.install());
        let _span = csb_obs::span_cat("campaignjob.run", "gen");
        // Before the simulation: a refused job should cost nothing.
        csb_store::check_shard_count(self.shards)?;

        let sim = TrafficSim::new(self.sim.clone());
        let mut trace = sim.generate();
        let runs: Vec<CampaignRun> = self
            .campaigns
            .iter()
            .map(|cfg| Campaign::new(cfg.clone()).run(sim.topology()))
            .collect();
        for run in &runs {
            trace.merge_sorted(run.trace.clone());
        }
        let packets = trace.packets.len();

        let flows = assemble_labeled(&trace, &runs, self.workers);
        let labeled_flows = flows.iter().filter(|f| f.label.is_attack()).count();
        csb_obs::counter_add("campaign.job.flows", flows.len() as u64);
        csb_obs::counter_add("campaign.job.labeled_flows", labeled_flows as u64);

        if let Some(path) = &self.store {
            let (shards, compression) = (self.shards, self.compression);
            if shards > 1 {
                let layout = ShardedLayout::create(path, FileKind::Flows, shards, compression)?;
                write_flows(layout, &flows, self.chunk_records.or(Some(SHARDED_CHUNK_RECORDS)))?;
            } else {
                let layout =
                    StoreWriter::create_with(path, FileKind::Flows, compression.version())?;
                write_flows(layout, &flows, self.chunk_records)?;
            }
        }
        Ok(CampaignOutcome { flows, runs, packets, labeled_flows })
    }
}

/// Streams `flows` through `layout`, in chunks of `chunk_records` when given
/// and of the sink's default otherwise.
fn write_flows<L: Layout>(
    layout: L,
    flows: &[LabeledFlow],
    chunk_records: Option<usize>,
) -> Result<(), CsbError> {
    let _span = csb_obs::span_cat("campaignjob.store", "gen");
    let mut sink = StoreSink::new(layout);
    if let Some(n) = chunk_records {
        sink = sink.with_chunk_records(n);
    }
    sink.push(flows.iter().copied())?;
    sink.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csb_net::traffic::topology::TopologyConfig;
    use std::path::PathBuf;

    fn small_job() -> CampaignJob {
        CampaignJob::new()
            .sim(TrafficSimConfig {
                topology: TopologyConfig {
                    clients: 30,
                    servers: 4,
                    externals: 20,
                    ..TopologyConfig::default()
                },
                duration_secs: 30.0,
                sessions_per_sec: 8.0,
                ..TrafficSimConfig::default()
            })
            .seed(99)
            .campaign(CampaignConfig::kill_chain(1, 99, 2.0))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("csb-campjob-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn job_produces_labeled_and_benign_flows() {
        let out = small_job().run().expect("run");
        assert!(out.labeled_flows > 0, "campaign must label flows");
        assert!(
            out.flows.iter().any(|f| !f.label.is_attack()),
            "benign traffic must survive the merge"
        );
        assert_eq!(out.runs.len(), 1);
        assert!(out.packets > 0);
        // Every campaign action assembled into exactly one labeled flow.
        assert_eq!(out.labeled_flows, out.runs[0].actions.len());
    }

    #[test]
    fn shard_count_above_the_cap_is_a_config_error() {
        let dir = temp_dir("shardcap");
        let err = small_job().store(dir.join("flows")).shards(100_000).run().expect_err("cap");
        assert!(matches!(err, CsbError::Config(_)), "got {err}");
        assert_eq!(std::fs::read_dir(&dir).expect("dir").count(), 0, "nothing was created");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_count_does_not_change_the_stream() {
        let dir = temp_dir("workers");
        // One directory a run: a manifest names its shard files.
        let sharded = |tag: &str| {
            std::fs::create_dir_all(dir.join(tag)).expect("mkdir");
            small_job()
                .store(dir.join(tag).join("flows"))
                .shards(3)
                .compression(Compression::Columnar)
                .chunk_records(64)
        };
        let base = sharded("base").run().expect("run").flows;
        let mut runs = vec![];
        for workers in [2usize, 5] {
            let tag = format!("w{workers}");
            runs.push((sharded(&tag).workers(workers).run().expect("run").flows, tag));
        }
        // Part emission and partitioned assembly both run on the ambient
        // pool: its width must be as invisible as the worker count.
        for width in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool");
            let tag = format!("pool{width}");
            let job = sharded(&tag).workers(3);
            runs.push((pool.install(|| job.run()).expect("run").flows, tag));
        }
        for (flows, tag) in runs {
            assert_eq!(flows, base, "{tag} must match sequential");
            for file in ["flows", "flows.s0", "flows.s1", "flows.s2"] {
                let written = std::fs::read(dir.join(&tag).join(file)).expect("read run's file");
                let expected = std::fs::read(dir.join("base").join(file)).expect("read base file");
                assert!(written == expected, "{tag}/{file} differs from the sequential run's");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_layouts_load_back_to_the_same_stream() {
        let dir = temp_dir("layouts");
        let single = dir.join("flows.csbstore");
        let sharded = dir.join("flows.csbset");
        let out = small_job()
            .store(&single)
            .compression(Compression::Columnar)
            .run()
            .expect("single-file run");
        small_job()
            .store(&sharded)
            .shards(3)
            .compression(Compression::Columnar)
            .chunk_records(64)
            .run()
            .expect("sharded run");
        let a = csb_store::load_labeled_flows(&single).expect("load single");
        let b = csb_store::load_labeled_flows(&sharded).expect("load sharded");
        assert_eq!(a, out.flows);
        assert_eq!(b, out.flows);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_records_is_honoured_for_a_single_file_store() {
        let dir = temp_dir("chunks");
        let path = dir.join("flows.csbstore");
        let out = small_job().store(&path).chunk_records(64).run().expect("run");
        assert!(out.flows.len() > 64, "the capture must span several chunks");
        let reader = csb_store::StoreReader::open(&path).expect("open");
        let flow_chunks =
            reader.chunks().iter().filter(|c| c.kind == csb_store::ChunkKind::LabeledFlow).count();
        assert_eq!(flow_chunks, out.flows.len().div_ceil(64));
        assert_eq!(csb_store::load_labeled_flows(&path).expect("load"), out.flows);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_campaigns_get_distinct_ids() {
        let out = small_job().campaign(CampaignConfig::kill_chain(2, 123, 8.0)).run().expect("run");
        let mut ids: Vec<u32> =
            out.flows.iter().filter(|f| f.label.is_attack()).map(|f| f.label.campaign).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![1, 2]);
    }
}
