//! Veracity 2.0: the pluggable multi-metric benchmark suite behind
//! [`VeracityJob`].
//!
//! The paper's Section V-A scores two distributions — degree (Fig. 6) and
//! PageRank (Fig. 7). The cross-generator benchmarking literature scores
//! more: clustering coefficients, degree assortativity, Laplacian spectra,
//! and kernel-embedding (MMD) distances. [`VeracityJob`] fronts all of them
//! with one builder mirroring [`GenJob`](crate::GenJob):
//!
//! ```no_run
//! use csb_core::{Metric, VeracityJob};
//! # let (seed, synthetic): (csb_core::seed::SeedBundle, csb_graph::NetflowGraph) = unimplemented!();
//! let report = VeracityJob::new()
//!     .seed_graph(&seed.graph)
//!     .synthetic_graph(&synthetic)
//!     .metrics(Metric::ALL)
//!     .run()
//!     .unwrap();
//! println!("clustering distance: {:e}", report.score("clustering").unwrap());
//! ```
//!
//! Inputs per side are interchangeable: an in-memory [`NetflowGraph`], a
//! graph-store path (scored out-of-core, never materialized), or any
//! [`DynEdgeScan`] stream. Whatever the input, a metric's score is
//! **bit-for-bit identical** across them — every kernel behind [`Metric`]
//! keeps the PR 5 differential-conformance contract (see
//! `csb_graph::metric` and the root `ooc_conformance` suite).
//!
//! A *lower* score means *higher* veracity.

use csb_graph::algo::{PageRankConfig, SpectralConfig};
use csb_graph::metric::{
    AssortativityMetric, ClusteringMetric, DegreeMetric, GraphMetric, MmdDegreeMetric,
    MmdPagerankMetric, PagerankMetric, SpectralMetric,
};
use csb_graph::ooc::EdgeScan;
use csb_graph::NetflowGraph;
use csb_store::{CsbError, ShardedScan};
use std::path::{Path, PathBuf};

/// Environment fallback for the scan cache budget, in MiB; the builder's
/// [`VeracityJob::scan_cache_mb`] takes precedence.
pub const SCAN_CACHE_ENV: &str = "CSB_SCAN_CACHE_MB";

/// Score vectors at most this long are retained verbatim in
/// [`MetricScore::seed_values`] (scalar and sketch metrics); longer
/// per-vertex vectors are dropped after scoring.
const RETAINED_VALUES_MAX: usize = 16;

/// One veracity metric of the suite.
///
/// The closed job-level counterpart of the open `csb_graph::metric`
/// trait: `VeracityJob` dispatches statically through this enum so degree
/// and PageRank vectors can be shared across the metrics that reuse them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Degree-distribution distance (paper Fig. 6).
    Degree,
    /// PageRank-distribution distance (paper Fig. 7).
    Pagerank,
    /// Global + average-local clustering coefficient distance.
    Clustering,
    /// Newman degree-assortativity distance.
    Assortativity,
    /// Normalized-Laplacian eigenvalue sketch distance.
    Spectral,
    /// RBF-kernel MMD over the degree samples.
    MmdDegree,
    /// RBF-kernel MMD over the (size-normalized) PageRank samples.
    MmdPagerank,
}

impl Metric {
    /// Every metric, in canonical report order.
    pub const ALL: [Metric; 7] = [
        Metric::Degree,
        Metric::Pagerank,
        Metric::Clustering,
        Metric::Assortativity,
        Metric::Spectral,
        Metric::MmdDegree,
        Metric::MmdPagerank,
    ];

    /// The pre-2.0 pair, used when a job selects no metrics explicitly.
    pub const DEFAULT: [Metric; 2] = [Metric::Degree, Metric::Pagerank];

    /// Stable name, used for report keys and `--metrics` parsing.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Degree => "degree",
            Metric::Pagerank => "pagerank",
            Metric::Clustering => "clustering",
            Metric::Assortativity => "assortativity",
            Metric::Spectral => "spectral",
            Metric::MmdDegree => "mmd_degree",
            Metric::MmdPagerank => "mmd_pagerank",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Metric::Degree => "veracity.metric.degree",
            Metric::Pagerank => "veracity.metric.pagerank",
            Metric::Clustering => "veracity.metric.clustering",
            Metric::Assortativity => "veracity.metric.assortativity",
            Metric::Spectral => "veracity.metric.spectral",
            Metric::MmdDegree => "veracity.metric.mmd_degree",
            Metric::MmdPagerank => "veracity.metric.mmd_pagerank",
        }
    }

    /// Parses a comma-separated selection: metric names, plus the shorthands
    /// `mmd` (both MMD metrics) and `all`. Duplicates collapse to the first
    /// occurrence; unknown names and empty selections are
    /// [`CsbError::Config`].
    pub fn parse_list(spec: &str) -> Result<Vec<Metric>, CsbError> {
        let mut out: Vec<Metric> = Vec::new();
        let push = |m: Metric, out: &mut Vec<Metric>| {
            if !out.contains(&m) {
                out.push(m);
            }
        };
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match token.to_ascii_lowercase().as_str() {
                "all" => Metric::ALL.iter().for_each(|&m| push(m, &mut out)),
                "mmd" => {
                    push(Metric::MmdDegree, &mut out);
                    push(Metric::MmdPagerank, &mut out);
                }
                other => match Metric::ALL.iter().find(|m| m.name() == other) {
                    Some(&m) => push(m, &mut out),
                    None => {
                        return Err(CsbError::Config(format!(
                            "unknown metric {token:?}; expected one of degree, pagerank, \
                             clustering, assortativity, spectral, mmd_degree, mmd_pagerank, \
                             mmd, all"
                        )))
                    }
                },
            }
        }
        if out.is_empty() {
            return Err(CsbError::Config(format!("no metrics selected in {spec:?}")));
        }
        Ok(out)
    }

    /// Collapses a seed/synthetic score-vector pair into this metric's
    /// reported distance.
    fn distance(self, seed: &[f64], synthetic: &[f64]) -> f64 {
        match self {
            Metric::Degree => DegreeMetric.distance(seed, synthetic),
            Metric::Pagerank => PagerankMetric::default().distance(seed, synthetic),
            Metric::Clustering => ClusteringMetric.distance(seed, synthetic),
            Metric::Assortativity => AssortativityMetric.distance(seed, synthetic),
            Metric::Spectral => SpectralMetric::default().distance(seed, synthetic),
            Metric::MmdDegree => MmdDegreeMetric.distance(seed, synthetic),
            Metric::MmdPagerank => MmdPagerankMetric::default().distance(seed, synthetic),
        }
    }
}

/// Object-safe [`EdgeScan`] with the error erased to [`CsbError`], so
/// [`VeracityJob`] can hold scans of unknown concrete type. Blanket-implemented
/// for every `EdgeScan` whose error converts into `CsbError` (which includes
/// the infallible in-memory scans) — callers never implement it by hand.
pub trait DynEdgeScan {
    /// [`EdgeScan::vertex_count`], error-erased.
    fn dyn_vertex_count(&mut self) -> Result<usize, CsbError>;
    /// [`EdgeScan::edge_count`], error-erased.
    fn dyn_edge_count(&mut self) -> Result<u64, CsbError>;
    /// [`EdgeScan::scan_edges`], error-erased.
    fn dyn_scan_edges(&mut self, f: &mut dyn FnMut(&[u32], &[u32])) -> Result<(), CsbError>;
    /// [`EdgeScan::scan_sources`], error-erased (keeps a columnar store's
    /// single-column projection).
    fn dyn_scan_sources(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), CsbError>;
    /// [`EdgeScan::scan_targets`], error-erased.
    fn dyn_scan_targets(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), CsbError>;
    /// [`EdgeScan::scratch_bytes`].
    fn dyn_scratch_bytes(&self) -> u64;
}

impl<S: EdgeScan> DynEdgeScan for S
where
    S::Error: Into<CsbError>,
{
    fn dyn_vertex_count(&mut self) -> Result<usize, CsbError> {
        self.vertex_count().map_err(Into::into)
    }

    fn dyn_edge_count(&mut self) -> Result<u64, CsbError> {
        self.edge_count().map_err(Into::into)
    }

    fn dyn_scan_edges(&mut self, f: &mut dyn FnMut(&[u32], &[u32])) -> Result<(), CsbError> {
        self.scan_edges(f).map_err(Into::into)
    }

    fn dyn_scan_sources(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), CsbError> {
        self.scan_sources(f).map_err(Into::into)
    }

    fn dyn_scan_targets(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), CsbError> {
        self.scan_targets(f).map_err(Into::into)
    }

    fn dyn_scratch_bytes(&self) -> u64 {
        self.scratch_bytes()
    }
}

/// [`EdgeScan`] adapter over a `&mut dyn DynEdgeScan`, re-entering the
/// generic kernels from the type-erased job input.
struct ScanRef<'s>(&'s mut dyn DynEdgeScan);

impl EdgeScan for ScanRef<'_> {
    type Error = CsbError;

    fn vertex_count(&mut self) -> Result<usize, CsbError> {
        self.0.dyn_vertex_count()
    }

    fn edge_count(&mut self) -> Result<u64, CsbError> {
        self.0.dyn_edge_count()
    }

    fn scan_edges(&mut self, f: &mut dyn FnMut(&[u32], &[u32])) -> Result<(), CsbError> {
        self.0.dyn_scan_edges(f)
    }

    fn scan_sources(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), CsbError> {
        self.0.dyn_scan_sources(f)
    }

    fn scan_targets(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), CsbError> {
        self.0.dyn_scan_targets(f)
    }

    fn scratch_bytes(&self) -> u64 {
        self.0.dyn_scratch_bytes()
    }
}

/// One side of a veracity comparison, before the job opens it.
enum Input<'a> {
    Graph(&'a NetflowGraph),
    Store(PathBuf),
    Scan(&'a mut dyn DynEdgeScan),
}

/// An opened side plus the score vectors shared across metrics (degree
/// feeds `degree` and `mmd_degree`; PageRank feeds `pagerank` and
/// `mmd_pagerank` — each is computed at most once per side).
struct Side<'a> {
    source: Source<'a>,
    degree: Option<Vec<f64>>,
    pagerank: Option<Vec<f64>>,
}

enum Source<'a> {
    Graph(&'a NetflowGraph),
    Store(ShardedScan),
    Scan(&'a mut dyn DynEdgeScan),
}

impl<'a> Side<'a> {
    fn open(input: Input<'a>, cache_budget: Option<u64>) -> Result<Self, CsbError> {
        let source = match input {
            Input::Graph(g) => Source::Graph(g),
            Input::Store(path) => {
                let scan = ShardedScan::open(&path)?;
                Source::Store(match cache_budget {
                    Some(bytes) => scan.with_cache_budget(bytes),
                    None => scan,
                })
            }
            Input::Scan(scan) => Source::Scan(scan),
        };
        Ok(Side { source, degree: None, pagerank: None })
    }

    fn apply<M: GraphMetric>(&mut self, metric: &M) -> Result<Vec<f64>, CsbError> {
        match &mut self.source {
            Source::Graph(g) => Ok(metric.compute(*g)),
            Source::Store(scan) => metric.compute_scan(scan),
            Source::Scan(scan) => metric.compute_scan(&mut ScanRef(*scan)),
        }
    }

    fn degree_values(&mut self) -> Result<Vec<f64>, CsbError> {
        if self.degree.is_none() {
            self.degree = Some(self.apply(&DegreeMetric)?);
        }
        Ok(self.degree.clone().expect("just cached"))
    }

    fn pagerank_values(&mut self, cfg: &PageRankConfig) -> Result<Vec<f64>, CsbError> {
        if self.pagerank.is_none() {
            self.pagerank = Some(self.apply(&PagerankMetric { cfg: *cfg })?);
        }
        Ok(self.pagerank.clone().expect("just cached"))
    }

    fn values(
        &mut self,
        metric: Metric,
        pagerank: &PageRankConfig,
        spectral: &SpectralConfig,
    ) -> Result<Vec<f64>, CsbError> {
        match metric {
            Metric::Degree | Metric::MmdDegree => self.degree_values(),
            Metric::Pagerank => self.pagerank_values(pagerank),
            Metric::MmdPagerank => Ok(MmdPagerankMetric::scaled(&self.pagerank_values(pagerank)?)),
            Metric::Clustering => self.apply(&ClusteringMetric),
            Metric::Assortativity => self.apply(&AssortativityMetric),
            Metric::Spectral => self.apply(&SpectralMetric { cfg: *spectral }),
        }
    }
}

/// One scored metric of a [`VeracityReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricScore {
    /// The metric's stable name ([`Metric::name`]).
    pub metric: &'static str,
    /// The distance — lower is higher veracity.
    pub score: f64,
    /// The seed's score vector, retained only for the short scalar/sketch
    /// metrics (at most [`RETAINED_VALUES_MAX`] values).
    pub seed_values: Option<Vec<f64>>,
    /// The synthetic side's score vector, same retention rule.
    pub synthetic_values: Option<Vec<f64>>,
}

/// The result of a [`VeracityJob`]: one [`MetricScore`] per selected
/// metric, in selection order.
#[derive(Debug, Clone, PartialEq)]
pub struct VeracityReport {
    /// Scores in selection order.
    pub scores: Vec<MetricScore>,
}

impl VeracityReport {
    /// The score of `metric` (a [`Metric::name`]), if it was selected.
    pub fn score(&self, metric: &str) -> Option<f64> {
        self.scores.iter().find(|s| s.metric == metric).map(|s| s.score)
    }
}

/// Builder for a multi-metric veracity run; see the [module docs](self).
///
/// Each side takes exactly one input — an in-memory graph, a store path
/// (single file or shard manifest, scored out-of-core), or any
/// [`DynEdgeScan`]. Metrics default to the pre-2.0 pair
/// ([`Metric::DEFAULT`]).
pub struct VeracityJob<'a> {
    seed: Option<Input<'a>>,
    synthetic: Option<Input<'a>>,
    metrics: Vec<Metric>,
    pagerank: PageRankConfig,
    spectral: SpectralConfig,
    scan_cache_mb: Option<u64>,
    recorder: Option<csb_obs::Recorder>,
}

impl Default for VeracityJob<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> VeracityJob<'a> {
    /// An empty job; both sides must be set before [`VeracityJob::run`].
    pub fn new() -> Self {
        VeracityJob {
            seed: None,
            synthetic: None,
            metrics: Vec::new(),
            pagerank: PageRankConfig::default(),
            spectral: SpectralConfig::default(),
            scan_cache_mb: None,
            recorder: None,
        }
    }

    /// Scores against this in-memory seed graph.
    pub fn seed_graph(mut self, g: &'a NetflowGraph) -> Self {
        self.seed = Some(Input::Graph(g));
        self
    }

    /// Scores this in-memory synthetic graph.
    pub fn synthetic_graph(mut self, g: &'a NetflowGraph) -> Self {
        self.synthetic = Some(Input::Graph(g));
        self
    }

    /// Scores against the graph store at `path`, out-of-core.
    pub fn seed_store(mut self, path: impl AsRef<Path>) -> Self {
        self.seed = Some(Input::Store(path.as_ref().to_path_buf()));
        self
    }

    /// Scores the graph store at `path`, out-of-core.
    pub fn synthetic_store(mut self, path: impl AsRef<Path>) -> Self {
        self.synthetic = Some(Input::Store(path.as_ref().to_path_buf()));
        self
    }

    /// Scores against this edge stream.
    pub fn seed_scan(mut self, scan: &'a mut dyn DynEdgeScan) -> Self {
        self.seed = Some(Input::Scan(scan));
        self
    }

    /// Scores this edge stream.
    pub fn synthetic_scan(mut self, scan: &'a mut dyn DynEdgeScan) -> Self {
        self.synthetic = Some(Input::Scan(scan));
        self
    }

    /// Selects the metrics to score, in report order. Duplicates collapse
    /// to the first occurrence. Unset (or empty) means [`Metric::DEFAULT`].
    pub fn metrics(mut self, metrics: impl IntoIterator<Item = Metric>) -> Self {
        self.metrics.clear();
        for m in metrics {
            if !self.metrics.contains(&m) {
                self.metrics.push(m);
            }
        }
        self
    }

    /// PageRank parameters of the `pagerank` and `mmd_pagerank` metrics.
    pub fn pagerank_config(mut self, cfg: PageRankConfig) -> Self {
        self.pagerank = cfg;
        self
    }

    /// Spectral-sketch parameters of the `spectral` metric.
    pub fn spectral_config(mut self, cfg: SpectralConfig) -> Self {
        self.spectral = cfg;
        self
    }

    /// Caps each store input's decoded-endpoint cache at `mb` MiB (0
    /// disables caching). Unset, the [`SCAN_CACHE_ENV`] environment
    /// variable applies, then the store default (256 MiB). The budget in
    /// force is observable in the `ooc.cache_bytes` gauge.
    pub fn scan_cache_mb(mut self, mb: u64) -> Self {
        self.scan_cache_mb = Some(mb);
        self
    }

    /// Records this run's spans and metrics into `rec` (installed for the
    /// duration of [`VeracityJob::run`]) instead of the process-global
    /// recorder. Scores are bit-identical with or without one.
    pub fn recorder(mut self, rec: csb_obs::Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Scores every selected metric and returns the report.
    ///
    /// Errors with [`CsbError::Config`] when a side is missing, a PageRank
    /// parameter is out of range or the cache budget is malformed; store
    /// inputs surface their I/O and corruption errors.
    pub fn run(self) -> Result<VeracityReport, CsbError> {
        let VeracityJob { seed, synthetic, metrics, pagerank, spectral, scan_cache_mb, recorder } =
            self;
        let _scope = recorder.map(|r| r.install());
        // Before a side is opened: the knobs arrive from flags, and a NaN
        // damping would otherwise surface as a panic inside the distance.
        pagerank.check().map_err(CsbError::Config)?;
        let _span = csb_obs::span_cat("core.veracity_job", "veracity");
        let env = match std::env::var(SCAN_CACHE_ENV) {
            Ok(s) => Some(s),
            Err(std::env::VarError::NotPresent) => None,
            Err(e) => return Err(CsbError::Config(format!("{SCAN_CACHE_ENV}: {e}"))),
        };
        let budget = resolve_cache_budget(scan_cache_mb, env.as_deref())?;
        let seed = seed.ok_or_else(|| CsbError::Config("VeracityJob needs a seed input".into()))?;
        let synthetic = synthetic
            .ok_or_else(|| CsbError::Config("VeracityJob needs a synthetic input".into()))?;
        let mut seed = Side::open(seed, budget)?;
        let mut synthetic = Side::open(synthetic, budget)?;
        let metrics: Vec<Metric> =
            if metrics.is_empty() { Metric::DEFAULT.to_vec() } else { metrics };
        let mut scores = Vec::with_capacity(metrics.len());
        for &m in &metrics {
            let _span = csb_obs::span_cat(m.span_name(), "veracity");
            let seed_values = seed.values(m, &pagerank, &spectral)?;
            let synthetic_values = synthetic.values(m, &pagerank, &spectral)?;
            let score = m.distance(&seed_values, &synthetic_values);
            csb_obs::metrics::counter_add("veracity.metrics_scored", 1);
            let keep = |v: Vec<f64>| if v.len() <= RETAINED_VALUES_MAX { Some(v) } else { None };
            scores.push(MetricScore {
                metric: m.name(),
                score,
                seed_values: keep(seed_values),
                synthetic_values: keep(synthetic_values),
            });
        }
        Ok(VeracityReport { scores })
    }
}

/// Resolves the scan cache budget in bytes: the builder's MiB value wins,
/// then the [`SCAN_CACHE_ENV`] value, then `None` (store default).
fn resolve_cache_budget(explicit: Option<u64>, env: Option<&str>) -> Result<Option<u64>, CsbError> {
    if let Some(mb) = explicit {
        return Ok(Some(mb << 20));
    }
    match env {
        None => Ok(None),
        Some(s) => match s.trim().parse::<u64>() {
            Ok(mb) => Ok(Some(mb << 20)),
            Err(_) => Err(CsbError::Config(format!(
                "{SCAN_CACHE_ENV} must be a cache budget in MiB, got {s:?}"
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PgpbaConfig, PgskConfig};
    use crate::seed::{seed_from_trace, SeedBundle};
    use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};

    /// The classic (degree, pagerank) pair of an in-memory job.
    fn pair(seed: &NetflowGraph, synthetic: &NetflowGraph, cfg: &PageRankConfig) -> (f64, f64) {
        let report = VeracityJob::new()
            .seed_graph(seed)
            .synthetic_graph(synthetic)
            .pagerank_config(*cfg)
            .run()
            .expect("in-memory veracity cannot fail");
        (report.score("degree").expect("degree"), report.score("pagerank").expect("pagerank"))
    }

    fn default_pair(seed: &NetflowGraph, synthetic: &NetflowGraph) -> (f64, f64) {
        pair(seed, synthetic, &PageRankConfig::default())
    }

    fn small_seed() -> SeedBundle {
        let trace = TrafficSim::new(TrafficSimConfig {
            duration_secs: 15.0,
            sessions_per_sec: 20.0,
            seed: 31,
            ..TrafficSimConfig::default()
        })
        .generate();
        seed_from_trace(&trace)
    }

    #[test]
    fn self_veracity_is_zero() {
        let seed = small_seed();
        assert_eq!(default_pair(&seed.graph, &seed.graph), (0.0, 0.0));
    }

    #[test]
    fn all_metrics_self_score_exactly_zero() {
        let seed = small_seed();
        let report = VeracityJob::new()
            .seed_graph(&seed.graph)
            .synthetic_graph(&seed.graph)
            .metrics(Metric::ALL)
            .run()
            .expect("job");
        assert_eq!(report.scores.len(), Metric::ALL.len());
        for s in &report.scores {
            assert_eq!(s.score, 0.0, "{} self-score must be exactly zero", s.metric);
        }
    }

    #[test]
    fn pgpba_veracity_improves_with_size() {
        // Paper Fig. 6-7: the score decreases as the synthetic graph grows.
        let seed = small_seed();
        let small = crate::pgpba(
            &seed,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 2, fraction: 0.1, seed: 1 },
        );
        let large = crate::pgpba(
            &seed,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 24, fraction: 0.1, seed: 1 },
        );
        let vs = default_pair(&seed.graph, &small).0;
        let vl = default_pair(&seed.graph, &large).0;
        assert!(vl < vs, "larger graph should score lower: {vl} vs {vs}");
    }

    #[test]
    fn pagerank_scores_are_much_smaller_than_degree_scores() {
        // Paper: degree scores ~1e-10..1e-3, PageRank ~1e-25..1e-18.
        let seed = small_seed();
        let synth = crate::pgpba(
            &seed,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 8, fraction: 0.3, seed: 2 },
        );
        let (degree, pagerank) = default_pair(&seed.graph, &synth);
        assert!(pagerank < degree, "pagerank {pagerank} vs degree {degree}");
    }

    #[test]
    fn explicit_pagerank_config_is_honored() {
        let seed = small_seed();
        let synth = crate::pgpba(
            &seed,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 4, fraction: 0.3, seed: 2 },
        );
        let only = |metric: Metric, cfg: &PageRankConfig| {
            VeracityJob::new()
                .seed_graph(&seed.graph)
                .synthetic_graph(&synth)
                .metrics([metric])
                .pagerank_config(*cfg)
                .run()
                .expect("job")
                .scores[0]
                .score
        };
        let (degree, v_default) = default_pair(&seed.graph, &synth);
        assert_eq!(
            v_default,
            only(Metric::Pagerank, &PageRankConfig::default()),
            "a single-metric job must agree with the pair"
        );
        let low_damping = PageRankConfig { damping: 0.5, ..PageRankConfig::default() };
        assert_ne!(
            v_default,
            only(Metric::Pagerank, &low_damping),
            "damping must flow through to the PageRank computation"
        );
        assert_eq!(pair(&seed.graph, &synth, &low_damping).0, degree);
        assert_eq!(only(Metric::Degree, &low_damping), degree);
    }

    #[test]
    fn veracity_scan_bit_identical_to_in_memory() {
        // The out-of-core path over real store bytes must reproduce the
        // in-memory scores bit-for-bit, at any chunk size.
        use csb_store::sink::{push_graph, StoreSink};
        use csb_store::{FileKind, StoreReader, StoreScan, StoreWriter};
        use std::io::Cursor;
        let seed = small_seed();
        let synth = crate::pgpba(
            &seed,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 4, fraction: 0.2, seed: 9 },
        );
        let mem = default_pair(&seed.graph, &synth);
        for chunk_records in [7usize, 64, 100_000] {
            let store_of = |g: &NetflowGraph| {
                let writer = StoreWriter::new(Vec::new(), FileKind::Graph).expect("writer");
                let mut sink = StoreSink::new(writer).with_chunk_records(chunk_records);
                push_graph(&mut sink, g).expect("push");
                let bytes = sink.finish().expect("seal");
                StoreScan::new(StoreReader::new(Cursor::new(bytes)).expect("reader")).expect("scan")
            };
            let ooc = VeracityJob::new()
                .seed_scan(&mut store_of(&seed.graph))
                .synthetic_scan(&mut store_of(&synth))
                .run()
                .expect("ooc veracity");
            assert_eq!(mem.0.to_bits(), ooc.score("degree").unwrap().to_bits(), "{chunk_records}");
            assert_eq!(
                mem.1.to_bits(),
                ooc.score("pagerank").unwrap().to_bits(),
                "{chunk_records}"
            );
        }
    }

    #[test]
    fn veracity_store_scores_files_on_disk() {
        use csb_store::sink::save_graph;
        let seed = small_seed();
        let synth = crate::pgpba(
            &seed,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 2, fraction: 0.2, seed: 4 },
        );
        let dir = std::env::temp_dir().join(format!("csb-veracity-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a = dir.join("seed.csb");
        let b = dir.join("synth.csb");
        save_graph(&a, &seed.graph).expect("save seed");
        save_graph(&b, &synth).expect("save synth");
        let ooc = VeracityJob::new().seed_store(&a).synthetic_store(&b).run().expect("score");
        let mem = default_pair(&seed.graph, &synth);
        assert_eq!(mem.0.to_bits(), ooc.score("degree").unwrap().to_bits());
        assert_eq!(mem.1.to_bits(), ooc.score("pagerank").unwrap().to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_inputs_conform_for_every_metric() {
        use csb_store::sink::save_graph;
        let seed = small_seed();
        let synth = crate::pgpba(
            &seed,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 2, fraction: 0.2, seed: 8 },
        );
        let dir = std::env::temp_dir().join(format!("csb-veracity-job-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a = dir.join("seed.csb");
        let b = dir.join("synth.csb");
        save_graph(&a, &seed.graph).expect("save seed");
        save_graph(&b, &synth).expect("save synth");
        let mem = VeracityJob::new()
            .seed_graph(&seed.graph)
            .synthetic_graph(&synth)
            .metrics(Metric::ALL)
            .run()
            .expect("in-memory job");
        let ooc = VeracityJob::new()
            .seed_store(&a)
            .synthetic_store(&b)
            .metrics(Metric::ALL)
            .scan_cache_mb(4)
            .run()
            .expect("store job");
        for (m, o) in mem.scores.iter().zip(ooc.scores.iter()) {
            assert_eq!(m.metric, o.metric);
            assert_eq!(m.score.to_bits(), o.score.to_bits(), "metric {}", m.metric);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_defaults_to_the_classic_pair() {
        let seed = small_seed();
        let report = VeracityJob::new()
            .seed_graph(&seed.graph)
            .synthetic_graph(&seed.graph)
            .run()
            .expect("job");
        let names: Vec<&str> = report.scores.iter().map(|s| s.metric).collect();
        assert_eq!(names, ["degree", "pagerank"]);
    }

    #[test]
    fn metric_parsing() {
        assert_eq!(
            Metric::parse_list("degree,pagerank").unwrap(),
            vec![Metric::Degree, Metric::Pagerank]
        );
        assert_eq!(
            Metric::parse_list("mmd").unwrap(),
            vec![Metric::MmdDegree, Metric::MmdPagerank]
        );
        assert_eq!(Metric::parse_list("all").unwrap().len(), Metric::ALL.len());
        assert_eq!(
            Metric::parse_list("degree, degree ,DEGREE").unwrap(),
            vec![Metric::Degree],
            "duplicates collapse, parsing is case-insensitive"
        );
        assert!(Metric::parse_list("entropy").is_err());
        assert!(Metric::parse_list("").is_err());
        assert!(Metric::parse_list(",,").is_err());
    }

    #[test]
    fn cache_budget_resolution() {
        assert_eq!(resolve_cache_budget(None, None).unwrap(), None);
        assert_eq!(resolve_cache_budget(None, Some("64")).unwrap(), Some(64 << 20));
        assert_eq!(resolve_cache_budget(Some(8), Some("64")).unwrap(), Some(8 << 20));
        assert_eq!(resolve_cache_budget(Some(0), None).unwrap(), Some(0));
        assert!(resolve_cache_budget(None, Some("lots")).is_err());
    }

    #[test]
    fn missing_inputs_are_config_errors() {
        let seed = small_seed();
        assert!(matches!(VeracityJob::new().run(), Err(CsbError::Config(_))));
        assert!(matches!(
            VeracityJob::new().seed_graph(&seed.graph).run(),
            Err(CsbError::Config(_))
        ));
    }

    #[test]
    fn out_of_range_pagerank_parameters_are_config_errors() {
        let seed = small_seed();
        let run = |cfg: PageRankConfig| {
            VeracityJob::new()
                .seed_graph(&seed.graph)
                .synthetic_graph(&seed.graph)
                .pagerank_config(cfg)
                .run()
        };
        let ok = PageRankConfig::default();
        for (field, bad) in [
            ("damping", PageRankConfig { damping: f64::NAN, ..ok }),
            ("damping", PageRankConfig { damping: f64::INFINITY, ..ok }),
            ("damping", PageRankConfig { damping: 1.5, ..ok }),
            ("damping", PageRankConfig { damping: -3.0, ..ok }),
            ("max_iters", PageRankConfig { max_iters: 0, ..ok }),
            ("tolerance", PageRankConfig { tolerance: f64::NAN, ..ok }),
            ("tolerance", PageRankConfig { tolerance: -1e-9, ..ok }),
        ] {
            match run(bad) {
                Err(CsbError::Config(message)) => {
                    assert!(message.contains(field), "{bad:?}: {message}")
                }
                other => panic!("{bad:?} must be a Config error, got {other:?}"),
            }
        }
        // The edges of the range are valid and still score.
        for good in
            [ok, PageRankConfig { damping: 0.0, ..ok }, PageRankConfig { damping: 1.0, ..ok }]
        {
            assert_eq!(run(good).expect("valid config").score("pagerank"), Some(0.0));
        }
    }

    #[test]
    fn retained_values_only_for_short_vectors() {
        let seed = small_seed();
        let report = VeracityJob::new()
            .seed_graph(&seed.graph)
            .synthetic_graph(&seed.graph)
            .metrics(Metric::ALL)
            .run()
            .expect("job");
        for s in &report.scores {
            match s.metric {
                "clustering" | "assortativity" | "spectral" => {
                    assert!(s.seed_values.is_some(), "{} should retain values", s.metric)
                }
                _ => assert!(s.seed_values.is_none(), "{} should drop values", s.metric),
            }
        }
    }

    #[test]
    fn both_generators_have_low_scores() {
        // Paper Section V-A: "the veracity scores obtained in both the
        // experiments are in general very low".
        let seed = small_seed();
        let target = seed.edge_count() as u64 * 4;
        let ba = crate::pgpba(&seed, &PgpbaConfig { desired_size: target, fraction: 0.1, seed: 3 });
        let sk = crate::pgsk(
            &seed,
            &PgskConfig {
                desired_size: target,
                seed: 3,
                kronfit_iterations: 8,
                kronfit_permutation_samples: 200,
            },
        );
        let vba = default_pair(&seed.graph, &ba);
        let vsk = default_pair(&seed.graph, &sk);
        assert!(vba.0 < 0.05, "PGPBA degree score {}", vba.0);
        assert!(vsk.0 < 0.05, "PGSK degree score {}", vsk.0);
        assert!(vba.1 < 0.05);
        assert!(vsk.1 < 0.05);
    }
}
