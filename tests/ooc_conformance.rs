//! Differential conformance suite for the out-of-core analytics layer.
//!
//! The contract under test (ISSUE 5, extended by the Veracity 2.0 suite):
//! every streaming kernel — over any batching of the edge stream, including
//! store chunk sizes that straddle chunk boundaries mid-vertex, and any
//! rayon thread count — produces *bit-for-bit* the same result as its
//! in-memory counterpart on the same logical graph, after a round-trip
//! through the `EdgeSink` store format.

use csb::gen::{Metric, VeracityJob};
use csb::graph::algo::pagerank::{pagerank, PageRankConfig};
use csb::graph::algo::{degree_distribution, DegreeDistributions, SpectralConfig};
use csb::graph::ooc::{degree_distribution_ooc, pagerank_ooc, GraphScan};
use csb::graph::{
    AssortativityMetric, ClusteringMetric, Csr, DegreeMetric, EdgeProperties, GraphMetric,
    MmdDegreeMetric, MmdPagerankMetric, NetflowGraph, PagerankMetric, SpectralMetric, VertexId,
};
use csb::store::sink::{push_graph, StoreSink, CHUNK_RECORDS};
use csb::store::{
    save_graph, save_graph_sharded, Compression, FileKind, StoreReader, StoreScan, StoreWriter,
};
use proptest::prelude::*;
use std::io::Cursor;

/// Builds an `n`-vertex multigraph; endpoints are reduced mod `n`.
fn graph_of(n: u32, edges: &[(u32, u32)]) -> NetflowGraph {
    let mut g = NetflowGraph::new();
    let vs: Vec<VertexId> = (0..n).map(|i| g.add_vertex(0x0a00_0000 | i)).collect();
    for &(s, d) in edges {
        g.add_edge(vs[(s % n) as usize], vs[(d % n) as usize], EdgeProperties::placeholder());
    }
    g
}

/// Round-trips `g` through the store format at the given chunk size and
/// returns a scan over the sealed bytes.
fn store_scan(g: &NetflowGraph, chunk_records: usize) -> StoreScan<Cursor<Vec<u8>>> {
    let mut sink = StoreSink::new(StoreWriter::new(Vec::new(), FileKind::Graph).expect("writer"))
        .with_chunk_records(chunk_records);
    push_graph(&mut sink, g).expect("push");
    let bytes = sink.finish().expect("seal");
    StoreScan::new(StoreReader::new(Cursor::new(bytes)).expect("reader")).expect("scan")
}

fn assert_bits_eq(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!((x - y).abs() < 1e-12, "slot {i}: {x} vs {y}");
        assert_eq!(x.to_bits(), y.to_bits(), "slot {i}: {x:e} vs {y:e}");
    }
}

fn assert_distributions_eq(a: &DegreeDistributions, b: &DegreeDistributions) {
    assert_eq!(a.in_degree.support(), b.in_degree.support());
    assert_eq!(a.in_degree.weights(), b.in_degree.weights());
    assert_eq!(a.out_degree.support(), b.out_degree.support());
    assert_eq!(a.out_degree.weights(), b.out_degree.weights());
}

/// Graph shape: a vertex count, an edge list, and a store chunk size chosen
/// small enough (1..=67, vs. up to 400 edges) that chunks straddle the edge
/// ranges of individual vertices and the final chunk runs short.
fn arb_case() -> impl Strategy<Value = (u32, Vec<(u32, u32)>, usize)> {
    (1u32..60, prop::collection::vec((any::<u32>(), any::<u32>()), 0..400), 1usize..=67)
}

/// Runs `metric` in memory and over the store round-trip and asserts the
/// value vectors are bit-identical.
fn assert_metric_conforms<M: GraphMetric>(metric: &M, g: &NetflowGraph, chunk: usize) {
    let mem = metric.compute(g);
    let ooc = metric.compute_scan(&mut store_scan(g, chunk)).expect("ooc metric");
    assert_eq!(mem.len(), ooc.len(), "{}: length", metric.name());
    for (i, (x, y)) in mem.iter().zip(ooc.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{} slot {i}: {x:e} vs {y:e}", metric.name());
    }
}

/// Runs every Veracity 2.0 metric through `assert_metric_conforms`.
fn assert_all_metrics_conform(g: &NetflowGraph, chunk: usize) {
    assert_metric_conforms(&DegreeMetric, g, chunk);
    assert_metric_conforms(&PagerankMetric::default(), g, chunk);
    assert_metric_conforms(&ClusteringMetric, g, chunk);
    assert_metric_conforms(&AssortativityMetric, g, chunk);
    assert_metric_conforms(&SpectralMetric::default(), g, chunk);
    assert_metric_conforms(&MmdDegreeMetric, g, chunk);
    assert_metric_conforms(&MmdPagerankMetric::default(), g, chunk);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `pagerank_ooc` over the store file == in-memory `pagerank`, bitwise.
    #[test]
    fn pagerank_ooc_conforms((n, edges, chunk) in arb_case()) {
        let g = graph_of(n, &edges);
        let cfg = PageRankConfig::default();
        let mem = pagerank(&g, &cfg);
        let ooc = pagerank_ooc(&mut store_scan(&g, chunk), &cfg).expect("ooc over store");
        assert_bits_eq(&mem, &ooc);
        // And over a raw in-memory scan at an unrelated batch size.
        let direct = pagerank_ooc(&mut GraphScan::of(&g).with_batch(chunk * 3 + 1), &cfg)
            .expect("ooc over scan");
        assert_bits_eq(&mem, &direct);
    }

    /// `degree_distribution_ooc` over the store file == in-memory
    /// `degree_distribution` (exact integer counts, so plain equality).
    #[test]
    fn degree_distribution_ooc_conforms((n, edges, chunk) in arb_case()) {
        let g = graph_of(n, &edges);
        let mem = degree_distribution(&g);
        let ooc = degree_distribution_ooc(&mut store_scan(&g, chunk)).expect("ooc");
        assert_distributions_eq(&mem, &ooc);
    }

    /// The external two-pass CSR build equals the in-memory counting sort —
    /// offsets and neighbor order both — in either orientation.
    #[test]
    fn external_csr_build_conforms((n, edges, chunk) in arb_case()) {
        let g = graph_of(n, &edges);
        let out = Csr::out_of_scan(&mut store_scan(&g, chunk)).expect("out");
        prop_assert_eq!(&out, &Csr::out_of(&g));
        let inn = Csr::in_of_scan(&mut store_scan(&g, chunk)).expect("in");
        prop_assert_eq!(&inn, &Csr::in_of(&g));
    }

    /// The classic pair (a job's default metrics) scored out-of-core over
    /// two store files == the same job on the loaded graphs, bitwise, at
    /// independent chunk sizes.
    #[test]
    fn veracity_scan_conforms(
        (n_a, edges_a, chunk_a) in arb_case(),
        (n_b, edges_b, chunk_b) in arb_case(),
    ) {
        let a = graph_of(n_a, &edges_a);
        let b = graph_of(n_b, &edges_b);
        let mem = VeracityJob::new().seed_graph(&a).synthetic_graph(&b).run().expect("in memory");
        let ooc = VeracityJob::new()
            .seed_scan(&mut store_scan(&a, chunk_a))
            .synthetic_scan(&mut store_scan(&b, chunk_b))
            .run()
            .expect("ooc veracity");
        for metric in ["degree", "pagerank"] {
            let (m, o) = (mem.score(metric).expect("scored"), ooc.score(metric).expect("scored"));
            prop_assert!((m - o).abs() < 1e-12);
            prop_assert_eq!(m.to_bits(), o.to_bits(), "{}", metric);
        }
    }

    /// Every Veracity 2.0 metric kernel — clustering, assortativity, the
    /// spectral sketch, the MMD value vectors — conforms bitwise over graph
    /// shape x store chunk size x rayon thread count.
    #[test]
    fn veracity2_metrics_conform(
        (n, edges, chunk) in arb_case(),
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let g = graph_of(n, &edges);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| assert_all_metrics_conform(&g, chunk));
    }

    /// A `VeracityJob` over two edge scans scores every metric bit-for-bit
    /// identically to the same job over the materialized graphs, at
    /// independent chunk sizes per side and any rayon thread count.
    #[test]
    fn veracity_job_conforms_over_scans(
        (n_a, edges_a, chunk_a) in arb_case(),
        (n_b, edges_b, chunk_b) in arb_case(),
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let a = graph_of(n_a, &edges_a);
        let b = graph_of(n_b, &edges_b);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        let mem = pool.install(|| {
            VeracityJob::new().seed_graph(&a).synthetic_graph(&b).metrics(Metric::ALL).run()
        })
        .expect("in-memory job");
        let mut scan_a = store_scan(&a, chunk_a);
        let mut scan_b = store_scan(&b, chunk_b);
        let ooc = pool.install(|| {
            VeracityJob::new()
                .seed_scan(&mut scan_a)
                .synthetic_scan(&mut scan_b)
                .metrics(Metric::ALL)
                .run()
        })
        .expect("scan job");
        prop_assert_eq!(mem.scores.len(), ooc.scores.len());
        for (x, y) in mem.scores.iter().zip(ooc.scores.iter()) {
            prop_assert_eq!(x.metric, y.metric);
            prop_assert_eq!(
                x.score.to_bits(), y.score.to_bits(),
                "{}: {:e} vs {:e}", x.metric, x.score, y.score
            );
        }
    }
}

/// The scratch contract of the streaming distribution kernels (DESIGN.md,
/// "Out-of-core analytics"): degree + PageRank scored over store files hold
/// O(vertices + chunk) bytes however many edges stream past, and score
/// bit-identically to the in-memory run. The seed is a v1 single file and
/// the synthetic graph a 4-shard columnar set spanning several chunks, so
/// both read paths are under the bound.
#[test]
fn distribution_kernels_stay_within_the_scratch_bound_over_stores() {
    // Endpoints scattered by multiplicative hashing; `graph_of` reduces them.
    let scattered = |edges: usize| -> Vec<(u32, u32)> {
        (0..edges as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7, i.wrapping_mul(40_503) >> 3))
            .collect()
    };
    let seed = graph_of(200, &scattered(2_000));
    let synth = graph_of(3_000, &scattered(CHUNK_RECORDS + 5_000));

    let dir = std::env::temp_dir().join(format!("csb-ooc-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (seed_store, synth_store) = (dir.join("seed.csbstore"), dir.join("synth.csbshards"));
    save_graph(&seed_store, &seed).expect("save seed store");
    save_graph_sharded(&synth_store, &synth, 4, Compression::Columnar).expect("save shard set");

    let mem =
        VeracityJob::new().seed_graph(&seed).synthetic_graph(&synth).run().expect("in memory");
    let rec = csb::obs::Recorder::new();
    let ooc = VeracityJob::new()
        .seed_store(&seed_store)
        .synthetic_store(&synth_store)
        .recorder(rec.clone())
        .run()
        .expect("out of core");
    for metric in ["degree", "pagerank"] {
        let (m, o) = (mem.score(metric).expect("scored"), ooc.score(metric).expect("scored"));
        assert_eq!(m.to_bits(), o.to_bits(), "{metric}: {m:e} vs {o:e}");
    }

    // Three f64/u64 vectors over the larger vertex set plus the scan's
    // per-chunk column buffers, with 2x headroom.
    let peak = rec.snapshot_metrics().gauge("ooc.peak_scratch_bytes").unwrap_or(0);
    let max_vertices = seed.vertex_count().max(synth.vertex_count()) as i64;
    let bound = 2 * (24 * max_vertices + 24 * CHUNK_RECORDS as i64);
    assert!(peak > 0, "the kernels never reported scratch");
    assert!(peak <= bound, "peak scratch {peak} B exceeds the O(V + chunk) bound {bound} B");
    std::fs::remove_dir_all(&dir).ok();
}

/// The size class the proptests (n < 60) never reach: ~21 k vertices, so
/// every per-vertex vector spans six reduction blocks and the in-memory
/// pulls split their rows over several pool parts, and 120 k edges drawn
/// from a splitmix stream. Three hubs hold a third of all endpoints — rows
/// of ~27 k entries — against a 1 000-vertex partner set, so the multigraph
/// kernels see long rows of repeated edges while the simplified clustering
/// adjacency stays small; the rest is uniform with self-loops and verbatim
/// repeats mixed in, and the last thousand vertices are isolated.
fn pool_scale_graph() -> NetflowGraph {
    const ACTIVE: u64 = 20_000;
    const ISOLATED: u32 = 1_000;
    const HUBS: u64 = 3;
    const PARTNERS: u64 = 1_000;
    let mut state = 0x5EED_CA5Eu64;
    let mut next = move || csb::stats::rng::splitmix64(&mut state);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(120_000);
    while edges.len() < 120_000 {
        let edge = match next() % 30 {
            // Two edges in three touch a hub, on either side.
            0..=9 => ((next() % HUBS) as u32, (HUBS + next() % PARTNERS) as u32),
            10..=19 => ((HUBS + next() % PARTNERS) as u32, (next() % HUBS) as u32),
            20 => {
                let v = (next() % ACTIVE) as u32;
                (v, v)
            }
            21 if !edges.is_empty() => edges[(next() % edges.len() as u64) as usize],
            _ => ((next() % ACTIVE) as u32, (next() % ACTIVE) as u32),
        };
        edges.push(edge);
    }
    graph_of(ACTIVE as u32 + ISOLATED, &edges)
}

/// Every metric's value vector as bits, after asserting that each scan
/// reproduces the in-memory vector exactly.
fn conforming_bits(
    g: &NetflowGraph,
    scans: &mut [StoreScan<Cursor<Vec<u8>>>],
) -> Vec<(&'static str, Vec<u64>)> {
    fn one<M: GraphMetric>(
        metric: &M,
        g: &NetflowGraph,
        scans: &mut [StoreScan<Cursor<Vec<u8>>>],
    ) -> (&'static str, Vec<u64>) {
        let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mem = bits(metric.compute(g));
        for scan in scans.iter_mut() {
            let ooc = bits(metric.compute_scan(scan).expect("ooc metric"));
            assert!(mem == ooc, "{}: in-memory and streamed vectors differ", metric.name());
        }
        (metric.name(), mem)
    }
    // Bounded iteration counts keep a debug build to seconds; the vertex
    // count is what this case is about.
    let pagerank = PageRankConfig { max_iters: 12, ..PageRankConfig::default() };
    let spectral = SpectralConfig { eigenvalues: 3, iterations: 6, ..SpectralConfig::default() };
    vec![
        one(&DegreeMetric, g, scans),
        one(&PagerankMetric { cfg: pagerank }, g, scans),
        one(&ClusteringMetric, g, scans),
        one(&AssortativityMetric, g, scans),
        one(&SpectralMetric { cfg: spectral }, g, scans),
        one(&MmdDegreeMetric, g, scans),
        one(&MmdPagerankMetric { cfg: pagerank }, g, scans),
    ]
}

/// All seven metrics at pool scale: in memory against store scans at two
/// chunk sizes, inside pools of width 1 and 4 — bit-equal to each other and
/// across widths.
#[test]
fn metric_kernels_conform_at_pool_scale() {
    let g = pool_scale_graph();
    let hub_endpoints: u64 = (0..3).map(|v| g.in_degrees()[v] + g.out_degrees()[v]).sum();
    assert!(hub_endpoints > 75_000, "hubs hold {hub_endpoints} of 240 000 endpoints");
    let mut scans = [store_scan(&g, 1_000), store_scan(&g, 8_192)];
    let per_width: Vec<_> = [1usize, 4]
        .iter()
        .map(|&threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            pool.install(|| conforming_bits(&g, &mut scans))
        })
        .collect();
    assert!(per_width[0] == per_width[1], "a metric's bits depend on the pool width");
}

/// Boundary batchings the proptest strategy rarely lands on exactly:
/// chunk = 1 record and chunk far larger than the edge count.
#[test]
fn metric_kernels_conform_at_boundary_chunk_sizes() {
    let g = graph_of(9, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (5, 5), (0, 1)]);
    for chunk in [1usize, 7, 100_000] {
        assert_all_metrics_conform(&g, chunk);
    }
}

/// Hand-computed clustering values (satellite of the Veracity 2.0 issue):
/// the "paw" graph — a triangle with a pendant vertex — has transitivity
/// 3/5 and average-local (1/3 + 1 + 1) / 3 over its eligible vertices.
#[test]
fn clustering_metric_matches_hand_computed_values() {
    let paw = graph_of(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
    let v = ClusteringMetric.compute(&paw);
    assert_eq!(v.len(), 2);
    assert!((v[0] - 0.6).abs() < 1e-15, "global: {}", v[0]);
    assert!((v[1] - (1.0 / 3.0 + 2.0) / 3.0).abs() < 1e-15, "average local: {}", v[1]);
    // A 4-cycle has wedges but no closed ones.
    let square = graph_of(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    assert_eq!(ClusteringMetric.compute(&square), vec![0.0, 0.0]);
}

/// Hand-computed degree assortativity: the path P4 has degree pairs
/// (1,2), (2,2), (2,1) over its edges, giving Pearson r = -1/2; the path
/// P3 gives exactly -1.
#[test]
fn assortativity_metric_matches_hand_computed_values() {
    let p4 = graph_of(4, &[(0, 1), (1, 2), (2, 3)]);
    let v = AssortativityMetric.compute(&p4);
    assert_eq!(v.len(), 1);
    assert!((v[0] + 0.5).abs() < 1e-12, "P4 assortativity: {}", v[0]);
    let p3 = graph_of(3, &[(0, 1), (1, 2)]);
    assert!((AssortativityMetric.compute(&p3)[0] + 1.0).abs() < 1e-12);
}

/// Hand-computed MMD: two one-point samples at distance 1 under an RBF
/// kernel with sigma = 1 give MMD^2 = 2 - 2 e^{-1/2}.
#[test]
fn mmd_matches_hand_computed_value() {
    let got = csb::stats::veracity::mmd_rbf(&[0.0], &[1.0], 1.0);
    let want = 2.0 - 2.0 * (-0.5f64).exp();
    assert!((got - want).abs() < 1e-15, "{got} vs {want}");
    // Identical samples are exactly zero, which is why every MMD metric
    // self-scores 0 in the job-level tests.
    assert_eq!(csb::stats::veracity::mmd_rbf(&[1.0, 2.0], &[1.0, 2.0], 0.7), 0.0);
}
