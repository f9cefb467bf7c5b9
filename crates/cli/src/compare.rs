//! `csb compare` — the cross-generator harness.
//!
//! One invocation scores the whole generator lineup against one seed graph
//! on the Veracity 2.0 metric suite: the seven baseline families of
//! `csb-models` (Erdős-Rényi, Watts-Strogatz, classic BA, Chung-Lu, BTER,
//! SBM, R-MAT) plus the paper's seed-driven PGPBA and PGSK, all at matched
//! scale, all through the same [`VeracityJob`] configuration. Pre-generated
//! store files join the lineup via `--store name=path`, scored out of core.
//!
//! The machine-readable report (`--out`) is a single JSON object:
//!
//! ```json
//! {"report":"compare","version":1,"status":"ok",
//!  "seed_source":"seed.graph","seed_vertices":64,"seed_edges":512,
//!  "size_mult":8,"target_edges":4096,"master_seed":42,
//!  "metrics":["degree","pagerank"],
//!  "generators":[{"name":"pgpba","vertices":70,"edges":4100,
//!                 "gen_secs":0.01,"scores":{"degree":1.2e-3}}]}
//! ```
//!
//! Scores use `{:e}` — the shortest round-trip form — so consumers recover
//! the exact f64 bits by parsing.

use crate::args::Args;
use crate::commands::VeracityCliConfig;
use csb_core::{pgpba, pgsk, PgpbaConfig, PgskConfig, SeedBundle};
use csb_graph::{EdgeProperties, NetflowGraph, VertexId};
use csb_models::{ModelGraph, TargetShape};
use csb_store::CsbError;
use std::time::Instant;

type Result<T> = std::result::Result<T, CsbError>;

fn arg_err(message: impl Into<String>) -> CsbError {
    CsbError::Config(message.into())
}

/// One scored generator in the comparison report.
struct Row {
    name: String,
    vertices: u64,
    edges: u64,
    gen_secs: f64,
    scores: Vec<(&'static str, f64)>,
}

/// A baseline [`ModelGraph`] lifted into the property-graph type the metric
/// suite scores. Topology is what the baselines produce; vertex data is a
/// synthetic 192.168/16 host id and every edge carries placeholder
/// attributes (the baselines are not property-aware — that asymmetry versus
/// PGPBA/PGSK is part of what the comparison shows).
fn to_netflow(g: &ModelGraph) -> NetflowGraph {
    let vertices: Vec<u32> = (0..g.num_vertices).map(|i| 0xC0A8_0000 + i).collect();
    let src: Vec<VertexId> = g.edges.iter().map(|&(s, _)| VertexId(s)).collect();
    let dst: Vec<VertexId> = g.edges.iter().map(|&(_, t)| VertexId(t)).collect();
    let data = vec![EdgeProperties::placeholder(); g.edges.len()];
    NetflowGraph::from_parts(vertices, src, dst, data)
}

/// `csb compare`: run the zoo + PGPBA/PGSK against one seed and emit the
/// comparison report.
pub(crate) fn compare_cmd(args: &Args) -> Result<()> {
    args.expect_only(&[
        "seed-graph",
        "seed-store",
        "size-mult",
        "seed",
        "metrics",
        "damping",
        "max-iters",
        "tolerance",
        "scan-cache-mb",
        "store",
        "smoke",
        "out",
    ])?;
    let smoke: bool = args.get_or("smoke", false)?;
    let size_mult: u64 = args.get_or("size-mult", if smoke { 2 } else { 8 })?;
    if size_mult == 0 {
        return Err(arg_err("flag --size-mult: must be at least 1"));
    }
    let master_seed: u64 = args.get_or("seed", 42)?;
    let mut cfg = VeracityCliConfig::parse(args)?;
    if args.get("metrics").is_none() {
        // The comparison defaults to the full suite: a report that only
        // shows degree shape cannot separate Chung-Lu from PGPBA.
        cfg.metrics = csb_core::Metric::ALL.to_vec();
    }
    let extra: Vec<(String, String)> = args
        .get_all("store")
        .iter()
        .map(|spec| {
            spec.split_once('=')
                .map(|(n, p)| (n.to_string(), p.to_string()))
                .ok_or_else(|| arg_err(format!("flag --store: expected name=path, got {spec:?}")))
        })
        .collect::<Result<_>>()?;

    // The seed graph: from a text graph or a store file, materialized either
    // way — the harness needs its degree sequence to parameterize the
    // sequence-driven baselines.
    let (seed_label, seed_graph) = match (args.get("seed-graph"), args.get("seed-store")) {
        (Some(path), None) => {
            (path.to_string(), csb_graph::io::read_graph(std::fs::File::open(path)?)?)
        }
        (None, Some(path)) => (path.to_string(), csb_store::load_graph(path)?),
        _ => return Err(arg_err("compare needs exactly one of --seed-graph / --seed-store")),
    };
    // Before any model runs: an edge-less seed is refused here.
    let bundle = SeedBundle::from_graph(seed_graph.clone())?;
    let seed_degrees: Vec<u64> = seed_graph
        .in_degrees()
        .iter()
        .zip(seed_graph.out_degrees().iter())
        .map(|(a, b)| a + b)
        .collect();
    let target_vertices = u32::try_from(seed_graph.vertex_count() as u64 * size_mult)
        .map_err(|_| arg_err("target vertex count exceeds u32 (lower --size-mult)"))?;
    let target_edges = seed_graph.edge_count() * size_mult as usize;
    // Chung-Lu and BTER get the seed's degree sequence replicated to target
    // scale — the best a sequence-driven model can be given.
    let mut replicated = Vec::with_capacity(seed_degrees.len() * size_mult as usize);
    for _ in 0..size_mult {
        replicated.extend_from_slice(&seed_degrees);
    }
    let shape = TargetShape { vertices: target_vertices, edges: target_edges, degrees: replicated };
    println!(
        "compare: seed {seed_label} ({}v/{}e), target ~{}v/~{}e (x{size_mult}), {} metrics",
        seed_graph.vertex_count(),
        seed_graph.edge_count(),
        target_vertices,
        target_edges,
        cfg.metrics.len()
    );

    let score = |synth: &NetflowGraph| -> Result<Vec<(&'static str, f64)>> {
        let report = cfg.job().seed_graph(&seed_graph).synthetic_graph(synth).run()?;
        Ok(report.scores.iter().map(|s| (s.metric, s.score)).collect())
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut add = |name: String, gen_secs: f64, synth: &NetflowGraph| -> Result<()> {
        rows.push(Row {
            name,
            vertices: synth.vertex_count() as u64,
            edges: synth.edge_count() as u64,
            gen_secs,
            scores: score(synth)?,
        });
        Ok(())
    };

    // The seven baseline families, each seeded from the master seed with a
    // per-model offset so their RNG streams differ.
    for (i, model) in csb_models::zoo().iter().enumerate() {
        let t = Instant::now();
        let g = to_netflow(&model.generate(&shape, master_seed.wrapping_add(i as u64)));
        add(model.name().to_string(), t.elapsed().as_secs_f64(), &g)?;
    }

    // The paper's seed-driven generators, grown from the same seed graph.
    let t = Instant::now();
    let ba = pgpba(
        &bundle,
        &PgpbaConfig { desired_size: target_edges as u64, fraction: 0.1, seed: master_seed },
    );
    add("pgpba".to_string(), t.elapsed().as_secs_f64(), &ba)?;
    drop(ba);
    let t = Instant::now();
    let sk_cfg = if smoke {
        // Smoke runs trim the kronfit search; fidelity stays good enough to
        // exercise every metric end to end.
        PgskConfig {
            seed: master_seed,
            kronfit_iterations: 5,
            kronfit_permutation_samples: 100,
            ..PgskConfig::new(target_edges as u64)
        }
    } else {
        PgskConfig { seed: master_seed, ..PgskConfig::new(target_edges as u64) }
    };
    let sk = pgsk(&bundle, &sk_cfg);
    add("pgsk".to_string(), t.elapsed().as_secs_f64(), &sk)?;
    drop(sk);
    drop(bundle);

    // Pre-generated stores join the lineup, scored out of core.
    for (name, path) in &extra {
        use csb_graph::ooc::EdgeScan;
        let mut scan = csb_store::ShardedScan::open(path)?;
        let (nv, ne) = (scan.vertex_count()?, scan.edge_count()?);
        drop(scan);
        let report = cfg.job().seed_graph(&seed_graph).synthetic_store(path).run()?;
        rows.push(Row {
            name: name.clone(),
            vertices: nv as u64,
            edges: ne,
            gen_secs: 0.0,
            scores: report.scores.iter().map(|s| (s.metric, s.score)).collect(),
        });
    }

    for row in &rows {
        let scores =
            row.scores.iter().map(|(m, s)| format!("{m} {s:.3e}")).collect::<Vec<_>>().join("  ");
        println!(
            "  {:<16} {:>9}v {:>10}e {:>7.2}s  {scores}",
            row.name, row.vertices, row.edges, row.gen_secs
        );
    }

    if let Some(path) = args.get("out") {
        let metric_list =
            cfg.metrics.iter().map(|m| format!("\"{}\"", m.name())).collect::<Vec<_>>().join(",");
        let generators = rows
            .iter()
            .map(|row| {
                let mut scores = csb_obs::json::JsonObject::new();
                for (m, s) in &row.scores {
                    scores.raw(m, &format!("{s:e}"));
                }
                let mut obj = csb_obs::json::JsonObject::new();
                obj.str("name", &row.name);
                obj.u64("vertices", row.vertices);
                obj.u64("edges", row.edges);
                obj.f64("gen_secs", row.gen_secs, 3);
                obj.raw("scores", &scores.finish());
                obj.finish()
            })
            .collect::<Vec<_>>()
            .join(",");
        let mut obj = csb_obs::json::JsonObject::new();
        obj.str("report", "compare");
        obj.u64("version", 1);
        obj.str("status", "ok");
        obj.str("seed_source", &seed_label);
        obj.u64("seed_vertices", seed_graph.vertex_count() as u64);
        obj.u64("seed_edges", seed_graph.edge_count() as u64);
        obj.u64("size_mult", size_mult);
        obj.u64("target_edges", target_edges as u64);
        obj.u64("master_seed", master_seed);
        obj.raw("metrics", &format!("[{metric_list}]"));
        obj.raw("generators", &format!("[{generators}]"));
        std::fs::write(path, obj.finish() + "\n")?;
        println!("wrote compare report to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::Args;
    use crate::commands::run;

    fn args(words: &[&str]) -> Args {
        Args::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("parse")
    }

    #[test]
    fn smoke_compare_scores_the_full_lineup() {
        let dir = std::env::temp_dir().join(format!("csb-cli-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let extra_store = dir.join("extra.csbstore").to_string_lossy().into_owned();
        let report_path = dir.join("compare.json").to_string_lossy().into_owned();

        run(&args(&["simulate", "--out", &pcap, "--duration", "6", "--rate", "10"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        run(&args(&["export", "--graph", &seed_path, "--out", &extra_store, "--format", "store"]))
            .expect("export store");
        run(&args(&[
            "compare",
            "--seed-graph",
            &seed_path,
            "--smoke",
            "true",
            "--store",
            &format!("extra={extra_store}"),
            "--out",
            &report_path,
        ]))
        .expect("compare --smoke");

        let json = std::fs::read_to_string(&report_path).expect("report written");
        csb_obs::json::validate_json(&json).expect("report is valid JSON");
        assert!(json.contains("\"report\":\"compare\""));
        assert!(json.contains("\"version\":1"));
        // All nine generators plus the extra store row made it in.
        for name in [
            "erdos_renyi",
            "watts_strogatz",
            "barabasi_albert",
            "chung_lu",
            "bter",
            "sbm",
            "rmat",
            "pgpba",
            "pgsk",
            "extra",
        ] {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "missing row {name}");
        }
        // Every metric of the default full suite is present in every row.
        for m in csb_core::Metric::ALL {
            assert_eq!(
                json.matches(&format!("\"{}\":", m.name())).count(),
                10,
                "metric {} missing from some row",
                m.name()
            );
        }
        // The extra store row is the seed itself, so its degree and
        // pagerank scores must be exactly zero (OOC conformance end to end).
        let extra_at = json.find("\"name\":\"extra\"").expect("extra row");
        let degree_at = json[extra_at..].find("\"degree\":").expect("degree") + extra_at + 9;
        let score: f64 =
            json[degree_at..].split([',', '}']).next().expect("value").parse().expect("f64");
        assert_eq!(score, 0.0, "seed-vs-seed degree score must be exactly 0");

        // Usage errors: no seed, both seeds, malformed --store.
        let err = run(&args(&["compare", "--smoke", "true"])).expect_err("no seed");
        assert!(err.to_string().contains("seed-graph"), "got: {err}");
        let err =
            run(&args(&["compare", "--seed-graph", &seed_path, "--seed-store", &extra_store]))
                .expect_err("both seeds");
        assert!(err.to_string().contains("exactly one"), "got: {err}");
        let err = run(&args(&["compare", "--seed-graph", &seed_path, "--store", "no-equals-sign"]))
            .expect_err("bad store spec");
        assert!(err.to_string().contains("name=path"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
