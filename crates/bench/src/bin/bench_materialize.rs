//! Timed harness for the parallel-materialization rework: runs both
//! generators with per-phase timings ([`csb_core::PhaseTimings`]), compares
//! the attach path at the configured pool width against a one-thread pool, and
//! writes `BENCH_materialize.json` — one point of the perf trajectory per
//! commit. `CSB_SCALE` multiplies the default ~1M-edge workload.

use csb_bench::{configured_pool_width, eng, scale, standard_seed, with_pool, Table};
use csb_core::pgpba::pgpba_topology;
use csb_core::topo::{attach_properties, Topology};
use csb_core::{pgpba_timed, pgsk_timed, PgpbaConfig, PgskConfig, PhaseTimings};
use csb_obs::json::JsonObject;
use std::collections::BTreeMap;
use std::time::Instant;

fn timing_row(table: &mut Table, t: &PhaseTimings) {
    table.row(&[
        t.generator.to_string(),
        eng(t.edges as f64),
        format!("{:.3}", t.grow.as_secs_f64()),
        format!("{:.3}", t.inflate.as_secs_f64()),
        format!("{:.3}", t.attach.as_secs_f64()),
        format!("{:.3}", t.total().as_secs_f64()),
        eng(t.edges_per_sec()),
    ]);
}

fn main() {
    // Collect spans over the whole harness so the JSON carries a per-phase
    // breakdown alongside the wall-clock PhaseTimings, and sample /proc so
    // the JSON carries the peak RSS of the run.
    csb_obs::reset();
    csb_obs::enable();
    let sampler = csb_obs::Sampler::start(
        csb_obs::recorder::current(),
        std::time::Duration::from_millis(200),
    );
    let seed = standard_seed();
    let target = (1_000_000.0 * scale()) as u64;
    let pgpba_cfg = PgpbaConfig { desired_size: target, fraction: 1.0, seed: 7 };
    let pgsk_cfg = PgskConfig {
        desired_size: target,
        seed: 7,
        kronfit_iterations: 8,
        kronfit_permutation_samples: 200,
    };

    // Every measured section runs inside the pool this harness configures;
    // the width rayon reports *inside* each section is what the JSON
    // records (reading the default pool width at JSON-write time stamped
    // `threads: 1` on runs whose attach demonstrably went multi-worker).
    let pool_width = configured_pool_width();
    let ((_, pgpba_t), pgpba_threads) = with_pool(pool_width, || pgpba_timed(&seed, &pgpba_cfg));
    let ((_, pgsk_t), pgsk_threads) = with_pool(pool_width, || pgsk_timed(&seed, &pgsk_cfg));

    let mut table = Table::new(&[
        "generator",
        "edges",
        "grow_s",
        "inflate_s",
        "attach_s",
        "total_s",
        "edges/s",
    ]);
    timing_row(&mut table, &pgpba_t);
    timing_row(&mut table, &pgsk_t);
    table.print();

    // Head-to-head: the same attach kernel on the same PGPBA topology under a
    // one-thread pool and under the configured one.
    let topo = pgpba_topology(&Topology::of_graph(&seed.graph), &seed.analysis, &pgpba_cfg);
    let t = Instant::now();
    let (w1, w1_threads) =
        with_pool(1, || attach_properties(&topo, &seed.analysis.properties, &[], 3));
    let w1_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (parallel, parallel_threads) =
        with_pool(pool_width, || attach_properties(&topo, &seed.analysis.properties, &[], 3));
    let parallel_secs = t.elapsed().as_secs_f64();
    assert_eq!(w1.edge_count(), parallel.edge_count());
    let scaling = w1_secs / parallel_secs.max(1e-9);
    println!(
        "\nattach {} edges: one thread {w1_secs:.3}s, parallel {parallel_secs:.3}s \
         ({scaling:.2}x, {parallel_threads} threads)",
        eng(topo.edge_count() as f64),
    );

    // Materialization straight to a sharded compressed store: the same
    // attach stream, written by one worker thread per shard.
    let store_shards: usize = 4;
    let store_codec = csb_store::Compression::Columnar;
    let dir = std::env::temp_dir().join(format!("csb-bench-materialize-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let shard_path = dir.join("materialize.csbshards");
    let t = Instant::now();
    let (store_edges, store_threads) = with_pool(pool_width, || {
        let layout = csb_store::ShardedLayout::create(
            &shard_path,
            csb_store::FileKind::Graph,
            store_shards,
            store_codec,
        );
        let mut sink = csb_store::StoreSink::new(layout.expect("shard layout"));
        let edges = csb_core::stream::attach_properties_to_sink(
            &topo,
            &seed.analysis.properties,
            &[],
            3,
            &mut sink,
        )
        .expect("attach to sharded store");
        sink.finish().expect("seal shard set");
        edges
    });
    let store_secs = t.elapsed().as_secs_f64();
    let store_eps = store_edges as f64 / store_secs.max(1e-9);
    println!(
        "materialize to {store_shards}-shard {} store: {} edges in {store_secs:.3}s ({} edges/s)",
        store_codec.name(),
        eng(store_edges as f64),
        eng(store_eps),
    );
    std::fs::remove_dir_all(&dir).ok();

    let samples = sampler.stop();
    let peak_rss = csb_obs::sampler::peak_rss_bytes(&samples);
    let metrics = csb_obs::snapshot_metrics();
    let enc_saved = metrics.counter("store.enc_bytes_saved").unwrap_or(0);
    csb_obs::disable();
    // Aggregate the collected spans per name: count + total busy time.
    let mut agg: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in csb_obs::flush_spans() {
        let e = agg.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.dur_micros;
    }
    let mut spans = JsonObject::new();
    for (name, (count, total_micros)) in agg {
        let mut o = JsonObject::new();
        o.u64("count", count).u64("total_micros", total_micros);
        spans.raw(name, &o.finish());
    }

    // See the `BENCH_materialize.json` schema note in crates/bench/src/lib.rs.
    let git_rev = csb_bench::git_rev();
    let mut section_threads = JsonObject::new();
    section_threads
        .u64("pgpba", pgpba_threads as u64)
        .u64("pgsk", pgsk_threads as u64)
        .u64("attach_w1", w1_threads as u64)
        .u64("attach_parallel", parallel_threads as u64)
        .u64("store_write", store_threads as u64);
    let mut root = JsonObject::new();
    root.str("bench", "materialize")
        .str("status", "measured")
        .f64("scale", scale(), 3)
        .u64("threads", pool_width as u64)
        .raw("section_threads", &section_threads.finish())
        .str("os", std::env::consts::OS)
        .str("git_rev", &git_rev)
        .raw("pgpba", &pgpba_t.to_json())
        .raw("pgsk", &pgsk_t.to_json())
        .u64("attach_edges", topo.edge_count() as u64)
        .f64("attach_w1_secs", w1_secs, 6)
        .f64("attach_parallel_secs", parallel_secs, 6)
        .f64("attach_scaling", scaling, 2)
        .u64("store_shards", store_shards as u64)
        .str("store_codec", store_codec.name())
        .u64("store_write_edges", store_edges)
        .f64("store_write_secs", store_secs, 6)
        .f64("store_write_edges_per_sec", store_eps, 1)
        .u64("peak_rss_bytes", peak_rss)
        .u64("store_enc_bytes_saved", enc_saved)
        .raw("spans", &spans.finish());
    let mut json = root.finish();
    json.push('\n');
    std::fs::write("BENCH_materialize.json", &json).expect("write BENCH_materialize.json");
    println!("wrote BENCH_materialize.json");
}
