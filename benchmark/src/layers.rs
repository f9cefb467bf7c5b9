//! The traced pass's single-layer probes: calls into one layer's public
//! functions at a fixed probe size, each under a bench-side span. Every
//! probe runs `probe_reps` times and reports its median; a ratio divides two
//! medians, never two single timings. What the measured section already
//! times (phase timings, detector steps, served jobs) is read from its
//! observations instead.

use crate::inputs::{store_job, Inputs, FRACTION};
use crate::plan::{campaign_configs, sim_config, Plan, Seeds, STORE_SHARDS};
use crate::probe::call;
use crate::section::remove_shard_set;
use crate::stats::median;
use crate::Res;
use csb_core::analysis::SeedAnalysis;
use csb_core::pgpba::pgpba_topology;
use csb_core::topo::{attach_properties, Topology};
use csb_core::{attach_properties_to_sink, DistConfig, GenJob, Metric, PgpbaConfig, VeracityJob};
use csb_graph::ooc::EdgeScan;
use csb_graph::{graph_from_flows, EdgeProperties};
use csb_net::traffic::campaign::{assemble_labeled, Campaign};
use csb_net::traffic::sim::TrafficSim;
use csb_stats::rng::rng_for;
use csb_store::codec::{decode_chunk_columns, encode_chunk_columns};
use csb_store::crc32::crc32;
use csb_store::{ChunkKind, Compression, EdgeSink, ShardedScan, StoreError, StoreReader};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// Metric name -> value, for the `per_layer` names of `BENCHMARK.json` the probes
/// produce.
pub type Values = BTreeMap<&'static str, f64>;

/// An [`EdgeSink`] that only counts: attach cost with no store behind it.
#[derive(Default)]
struct CountingSink {
    vertices: u64,
    edges: u64,
}

impl EdgeSink for CountingSink {
    fn push_vertices(&mut self, ips: &[u32]) -> Result<(), StoreError> {
        self.vertices += ips.len() as u64;
        Ok(())
    }

    fn push_edges(
        &mut self,
        src: &[u32],
        _dst: &[u32],
        props: &[EdgeProperties],
    ) -> Result<(), StoreError> {
        black_box(props);
        self.edges += src.len() as u64;
        Ok(())
    }
}

fn with_width<T: Send>(width: usize, f: impl FnOnce() -> T + Send) -> Res<T> {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build()?;
    Ok(pool.install(f))
}

const MB: f64 = 1e6;

/// Seconds of each repetition of each timed call, by key.
#[derive(Default)]
struct Timings(BTreeMap<&'static str, Vec<f64>>);

impl Timings {
    /// Runs `f` under the bench-side span `span` and files its seconds under
    /// `key`.
    fn call<T>(&mut self, key: &'static str, span: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = call(span, f);
        self.0.entry(key).or_default().push(secs);
        out
    }

    fn median(&self, key: &str) -> f64 {
        median(self.0.get(key).unwrap_or_else(|| panic!("no probe timed {key}")))
    }

    /// Reports the median of each of `keys` as the metric of that name.
    fn report(&self, v: &mut Values, keys: &[&'static str]) {
        for &key in keys {
            v.insert(key, self.median(key));
        }
    }
}

pub fn run(plan: &Plan, seeds: &Seeds, inputs: &Inputs, work: &Path) -> Res<Values> {
    let mut v = Values::new();
    stats(plan, seeds, inputs, &mut v);
    net(plan, seeds, work, &mut v)?;
    graph(plan, inputs, &mut v)?;
    core_and_store(plan, seeds, inputs, work, &mut v)?;
    Ok(v)
}

fn stats(plan: &Plan, seeds: &Seeds, inputs: &Inputs, v: &mut Values) {
    let model = &inputs.seed.analysis.properties;
    let draws = plan.fixed.sample_draws;
    let mut t = Timings::default();
    for _ in 0..plan.fixed.probe_reps {
        let mut rng = rng_for(seeds.probe, 1);
        t.call("sample", "bench.stats.property_sample", || {
            for _ in 0..draws {
                black_box(model.sample(&mut rng));
            }
        });
    }
    v.insert("stats.property_sample_ns", t.median("sample") * 1e9 / draws as f64);
}

fn net(plan: &Plan, seeds: &Seeds, work: &Path, v: &mut Values) -> Res<()> {
    let size = plan.campaign;
    let sim =
        TrafficSim::new(sim_config(seeds.campaign, size.duration_secs, size.sessions_per_sec));
    let configs = campaign_configs(seeds.campaign, size.duration_secs);
    let path = work.join("probe-flows.csbshards");
    let mut t = Timings::default();
    for _ in 0..plan.fixed.probe_reps {
        let mut trace =
            t.call("net.traffic_generate_s", "bench.net.traffic_generate", || sim.generate());
        let runs = t.call("net.campaign_run_s", "bench.net.campaign_run", || {
            configs.iter().map(|c| Campaign::new(c.clone()).run(sim.topology())).collect::<Vec<_>>()
        });
        let attack_traces: Vec<_> = runs.iter().map(|r| r.trace.clone()).collect();
        t.call("net.merge_s", "bench.net.merge_sorted", || {
            for attack in attack_traces {
                trace.merge_sorted(attack);
            }
        });
        let flows = t.call("net.assemble_labeled_s", "bench.net.assemble_labeled", || {
            assemble_labeled(&trace, &runs, plan.threads)
        });
        let narrow = t.call("assemble_w1", "bench.net.assemble_labeled_w1", || {
            assemble_labeled(&trace, &runs, 1)
        });
        if narrow != flows {
            return Err("assemble_labeled gives other flows at width 1".into());
        }
        black_box(
            t.call("net.kdd_rows_s", "bench.net.kdd_rows", || csb_net::kdd::kdd_rows(&flows)),
        );
        t.call("store.flows_write_s", "bench.store.save_labeled_flows_sharded", || {
            csb_store::save_labeled_flows_sharded(
                &path,
                &flows,
                STORE_SHARDS,
                Compression::Columnar,
                8192,
            )
        })?;
        let loaded = t.call("store.flows_load_s", "bench.store.load_labeled_flows", || {
            csb_store::load_labeled_flows(&path)
        });
        black_box(loaded?);
        remove_shard_set(&path);
        // Counts: the same on every repetition of one seed.
        v.insert("net.packets", trace.packets.len() as f64);
        v.insert("net.flows", flows.len() as f64);
        v.insert("net.labeled_flows", flows.iter().filter(|f| f.label.is_attack()).count() as f64);
    }
    t.report(
        v,
        &[
            "net.traffic_generate_s",
            "net.campaign_run_s",
            "net.merge_s",
            "net.assemble_labeled_s",
            "net.kdd_rows_s",
            "store.flows_write_s",
            "store.flows_load_s",
        ],
    );
    v.insert("net.assemble_scaling", t.median("assemble_w1") / t.median("net.assemble_labeled_s"));
    Ok(())
}

const METRIC_MEM: [&str; 7] = [
    "graph.metric.degree.mem_s",
    "graph.metric.pagerank.mem_s",
    "graph.metric.clustering.mem_s",
    "graph.metric.assortativity.mem_s",
    "graph.metric.spectral.mem_s",
    "graph.metric.mmd_degree.mem_s",
    "graph.metric.mmd_pagerank.mem_s",
];
const METRIC_OOC: [&str; 7] = [
    "graph.metric.degree.ooc_s",
    "graph.metric.pagerank.ooc_s",
    "graph.metric.clustering.ooc_s",
    "graph.metric.assortativity.ooc_s",
    "graph.metric.spectral.ooc_s",
    "graph.metric.mmd_degree.ooc_s",
    "graph.metric.mmd_pagerank.ooc_s",
];

fn graph(plan: &Plan, inputs: &Inputs, v: &mut Values) -> Res<()> {
    let ooc_bytes = csb_obs::metrics::counter("ooc.bytes_read");
    let mut t = Timings::default();
    for _ in 0..plan.fixed.probe_reps {
        let seed_graph = t.call("graph.from_flows_s", "bench.graph.from_flows", || {
            graph_from_flows(&inputs.seed_flows)
        });
        black_box(t.call("core.seed_analysis_s", "bench.core.seed_analysis", || {
            SeedAnalysis::of(&seed_graph)
        }));
        let before = ooc_bytes.get();
        for (i, m) in Metric::ALL.into_iter().enumerate() {
            t.call(METRIC_MEM[i], "bench.graph.metric_mem", || {
                VeracityJob::new()
                    .seed_graph(&inputs.seed.graph)
                    .synthetic_graph(&inputs.veracity_graph)
                    .metrics([m])
                    .run()
            })?;
            t.call(METRIC_OOC[i], "bench.graph.metric_ooc", || {
                VeracityJob::new()
                    .seed_store(&inputs.seed_store)
                    .synthetic_store(&inputs.veracity_store)
                    .metrics([m])
                    .run()
            })?;
        }
        // Bytes of one pass over the seven metrics.
        v.insert("store.ooc_bytes_read", (ooc_bytes.get() - before) as f64);
        // A 1 MiB budget is below the endpoint working set (8 bytes an edge)
        // of every size the stage runs; the default 256 MiB holds all of them.
        t.call("graph.pagerank.ooc_nocache_s", "bench.graph.pagerank_ooc_nocache", || {
            VeracityJob::new()
                .seed_store(&inputs.seed_store)
                .synthetic_store(&inputs.veracity_store)
                .metrics([Metric::Pagerank])
                .scan_cache_mb(1)
                .run()
        })?;
    }
    t.report(v, &["graph.from_flows_s", "core.seed_analysis_s", "graph.pagerank.ooc_nocache_s"]);
    t.report(v, &METRIC_MEM);
    t.report(v, &METRIC_OOC);
    Ok(())
}

fn core_and_store(
    plan: &Plan,
    seeds: &Seeds,
    inputs: &Inputs,
    work: &Path,
    v: &mut Values,
) -> Res<()> {
    let seed = &inputs.seed;
    let model = &seed.analysis.properties;
    let edges = plan.fixed.probe_edges;
    let cfg = PgpbaConfig { desired_size: edges, fraction: FRACTION, seed: seeds.probe };
    let ips = seed.graph.vertex_data().to_vec();
    let dist =
        DistConfig { partitions: 4 * plan.threads, threads: plan.threads, ..DistConfig::default() };
    let raw = work.join("probe-raw.csbstore");
    let sharded = work.join("probe-sharded.csbshards");
    let plain = work.join("probe-genjob.csbshards");
    let checkpointed = work.join("probe-checkpointed.csbshards");
    let ckpt_dir = work.join("probe-ckpt");
    let mut raw_bytes = 0usize;
    let mut t = Timings::default();
    for _ in 0..plan.fixed.probe_reps {
        // One fixed topology, attached under a width-1 and a width-N pool.
        let topo = t.call("grow", "bench.core.pgpba_topology", || {
            pgpba_topology(&Topology::of_graph(&seed.graph), &seed.analysis, &cfg)
        });
        let narrow = t.call("core.attach_w1_s", "bench.core.attach_w1", || {
            with_width(1, || attach_properties(&topo, model, &ips, seeds.probe))
        });
        drop(narrow?);
        let graph = t.call("core.attach_wN_s", "bench.core.attach_wN", || {
            with_width(plan.threads, || attach_properties(&topo, model, &ips, seeds.probe))
        })?;
        let mut sink = CountingSink::default();
        let pushed = t.call("core.attach_null_sink_s", "bench.core.attach_null_sink", || {
            attach_properties_to_sink(&topo, model, &ips, seeds.probe, &mut sink)
        })?;
        if pushed != sink.edges || sink.vertices != u64::from(topo.num_vertices) {
            return Err("counting sink saw another stream than attach reported".into());
        }

        // Write side, from the in-memory graph so attach is excluded.
        t.call("store.write_single_raw_s", "bench.store.save_graph", || {
            csb_store::save_graph(&raw, &graph)
        })?;
        t.call("store.write_sharded_s", "bench.store.save_graph_sharded", || {
            csb_store::save_graph_sharded(&sharded, &graph, STORE_SHARDS, Compression::Columnar)
        })?;
        drop(graph);

        // The whole job to a store, without and with checkpoints.
        t.call("core.genjob_store_s", "bench.core.genjob_store", || {
            store_job(seed, edges, seeds.probe, &plain).run()
        })?;
        remove_shard_set(&plain);
        t.call("store.write_checkpointed_s", "bench.core.genjob_store_checkpointed", || {
            store_job(seed, edges, seeds.probe, &checkpointed).checkpoint(&ckpt_dir).run()
        })?;
        remove_shard_set(&checkpointed);
        std::fs::remove_dir_all(&ckpt_dir).ok();

        // Codec and CRC over the raw file's edge chunks.
        let mut reader = StoreReader::open(&raw)?;
        let mut chunks: Vec<(u64, Vec<u8>)> = Vec::new();
        for i in 0..reader.chunks().len() {
            let entry = &reader.chunks()[i];
            if entry.kind == ChunkKind::Edge {
                chunks.push((entry.records, reader.read_chunk_payload(i)?));
            }
        }
        raw_bytes = chunks.iter().map(|(_, p)| p.len()).sum();
        let encoded = t.call("encode", "bench.store.encode_chunk_columns", || {
            chunks
                .iter()
                .map(|(records, payload)| encode_chunk_columns(ChunkKind::Edge, *records, payload))
                .collect::<Vec<_>>()
        });
        t.call("crc", "bench.store.crc32", || {
            for (_, payload) in &chunks {
                black_box(crc32(payload));
            }
        });
        let decoded = t.call("decode", "bench.store.decode_chunk_columns", || {
            chunks
                .iter()
                .zip(&encoded)
                .map(|((records, _), (stored, columns))| {
                    decode_chunk_columns(ChunkKind::Edge, *records, stored, columns, 0)
                })
                .collect::<Result<Vec<_>, _>>()
        });
        if decoded?.iter().zip(&chunks).any(|(d, (_, payload))| d != payload) {
            return Err("decode_chunk_columns did not invert encode_chunk_columns".into());
        }
        drop((chunks, encoded));
        std::fs::remove_file(&raw).ok();

        // Read side.
        let loaded = t.call("store.load_graph_s", "bench.store.load_graph_sharded", || {
            csb_store::load_graph_sharded(&sharded)
        });
        drop(loaded?);
        let mut scan = ShardedScan::open(&sharded)?;
        for key in ["store.scan_cold_s", "store.scan_warm_s"] {
            let mut seen = 0u64;
            t.call(key, "bench.store.scan_edges", || {
                scan.scan_edges(&mut |src, _dst| seen += src.len() as u64)
            })?;
            if seen != scan.edge_count()? {
                return Err(format!("{key}: scan passed over {seen} edges").into());
            }
        }
        drop(scan);
        remove_shard_set(&sharded);

        // The engine path against the in-process one, same configuration.
        let in_process =
            t.call("rayon", "bench.core.genjob_pgpba", || GenJob::pgpba(seed, cfg).run())?.edges;
        let distributed = t
            .call("engine.pgpba_distributed_s", "bench.engine.genjob_distributed", || {
                GenJob::pgpba(seed, cfg).distributed(dist.clone()).run()
            })?
            .edges;
        if !crate::section::pgpba_size_ok(edges, distributed) || in_process == 0 {
            return Err(format!("distributed run made {distributed} of {edges} edges").into());
        }
    }
    t.report(
        v,
        &[
            "core.attach_w1_s",
            "core.attach_wN_s",
            "core.attach_null_sink_s",
            "store.write_single_raw_s",
            "store.write_sharded_s",
            "core.genjob_store_s",
            "store.write_checkpointed_s",
            "store.load_graph_s",
            "store.scan_cold_s",
            "store.scan_warm_s",
            "engine.pgpba_distributed_s",
        ],
    );
    v.insert("core.attach_scaling", t.median("core.attach_w1_s") / t.median("core.attach_wN_s"));
    v.insert(
        "core.pipeline_overlap",
        t.median("core.genjob_store_s")
            / (t.median("grow")
                + t.median("core.attach_null_sink_s")
                + t.median("store.write_sharded_s")),
    );
    v.insert(
        "store.checkpoint_overhead",
        t.median("store.write_checkpointed_s") / t.median("core.genjob_store_s"),
    );
    for (metric, key) in [
        ("store.encode_mb_per_s", "encode"),
        ("store.crc_mb_per_s", "crc"),
        ("store.decode_mb_per_s", "decode"),
    ] {
        v.insert(metric, raw_bytes as f64 / MB / t.median(key));
    }
    v.insert("engine.vs_rayon_ratio", t.median("engine.pgpba_distributed_s") / t.median("rayon"));
    Ok(())
}
