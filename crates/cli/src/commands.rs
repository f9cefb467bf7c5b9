//! Subcommand implementations.

use crate::args::Args;
use csb_core::{
    seed_from_packets, GenJob, Metric, PgpbaConfig, PgskConfig, SeedBundle, VeracityJob,
};
use csb_engine::sim::{GenAlgorithm, GenJob as SimGenJob};
use csb_engine::{ClusterConfig, CostModel, SimCluster};
use csb_graph::algo::PageRankConfig;
use csb_graph::io::{read_graph, write_graph};
use csb_graph::NetflowGraph;
use csb_ids::{detect, evaluate, train_thresholds};
use csb_net::assembler::FlowAssembler;
use csb_net::packet::{fmt_ip, ip};
use csb_net::pcap::{read_pcap, write_pcap};
use csb_net::traffic::attacks::AttackInjector;
use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
use csb_store::{Compression, CsbError};
use std::fs::File;

type Result<T> = std::result::Result<T, CsbError>;

fn arg_err(message: impl Into<String>) -> CsbError {
    CsbError::Config(message.into())
}

/// Dispatches a parsed command line.
pub fn run(args: &Args) -> Result<()> {
    match args.command.as_str() {
        "simulate" => simulate(args),
        "seed" => seed(args),
        "generate" => generate(args),
        "campaign" => campaign_cmd(args),
        "veracity" => veracity_cmd(args),
        "compare" => crate::compare::compare_cmd(args),
        "detect" => detect_cmd(args),
        "workload" => workload_cmd(args),
        "export" => export_cmd(args),
        "import" => import_cmd(args),
        "cluster-sim" => cluster_sim(args),
        "serve" => crate::serve_cmd::serve(args),
        "submit" => crate::serve_cmd::submit(args),
        "jobs" => crate::serve_cmd::jobs(args),
        "cancel" => crate::serve_cmd::cancel(args),
        "shutdown" => crate::serve_cmd::shutdown(args),
        // `csb obs report FILE` arrives rewritten by main::normalize_obs.
        "obs-report" => obs_report(args),
        "obs" => Err(arg_err("usage: csb obs report TRACE [--top N] [--metrics FILE]")),
        other => Err(arg_err(format!("unknown command `{other}` (try `csb help`)"))),
    }
}

fn load_graph(path: &str) -> Result<NetflowGraph> {
    Ok(read_graph(File::open(path)?)?)
}

fn load_seed(path: &str) -> Result<SeedBundle> {
    SeedBundle::from_graph(load_graph(path)?)
}

fn simulate(args: &Args) -> Result<()> {
    args.expect_only(&["out", "duration", "rate", "seed", "attacks"])?;
    let out = args.require("out")?;
    let duration: f64 = args.get_or("duration", 60.0)?;
    let rate: f64 = args.get_or("rate", 50.0)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let attacks: bool = args.get_or("attacks", false)?;

    let sim = TrafficSim::new(TrafficSimConfig {
        duration_secs: duration,
        sessions_per_sec: rate,
        seed,
        ..TrafficSimConfig::default()
    });
    let mut trace = sim.generate();
    if attacks {
        let servers = sim.topology().servers().to_vec();
        let mut inj = AttackInjector::new(seed ^ 0xA77);
        let horizon = (duration * 1e6) as u64;
        let atk = |i: u8| ip(198, 51, 100, 10 + i);
        trace.merge(inj.syn_flood(atk(0), servers[0], 80, horizon / 8, horizon / 8, 20_000));
        trace.merge(inj.icmp_flood(atk(1), servers[1], horizon / 3, horizon / 8, 20_000));
        trace.merge(inj.host_scan(atk(2), servers[2], horizon / 2, horizon / 8, 400, 80));
        trace.merge(inj.network_scan(
            atk(3),
            ip(10, 9, 0, 1),
            200,
            22,
            2 * horizon / 3,
            horizon / 8,
        ));
        trace.sort();
    }
    write_pcap(File::create(out)?, &trace.packets)?;
    let s = trace.summary();
    println!(
        "wrote {out}: {} packets, {} hosts, {:.1} s, {} labeled attacks",
        s.packets,
        s.hosts,
        s.duration_secs,
        trace.labels.len()
    );
    Ok(())
}

/// `csb campaign`: benign traffic plus kill-chain campaigns, out to a
/// ground-truth-labeled flow store, optional KDD-style feature rows, and an
/// optional machine-readable report scoring the Section IV detector against
/// the campaign labels.
fn campaign_cmd(args: &Args) -> Result<()> {
    use csb_net::traffic::campaign::{CampaignConfig, StageKind, StageParams};
    args.expect_only(&[
        "out",
        "kdd",
        "report",
        "duration",
        "rate",
        "seed",
        "campaigns",
        "stages",
        "intensity",
        "stealth",
        "workers",
        "shards",
        "codec",
    ])?;
    let out = args.require("out")?;
    let duration: f64 = args.get_or("duration", 60.0)?;
    let rate: f64 = args.get_or("rate", 50.0)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let n_campaigns: u32 = args.get_or("campaigns", 1)?;
    let intensity: f64 = args.get_or("intensity", 1.0)?;
    let stealth: f64 = args.get_or("stealth", 0.3)?;
    let workers: usize = args.get_or("workers", 1)?;
    let shards: usize = args.get_or("shards", 1)?;
    let codec = match args.get("codec") {
        None => Compression::None,
        Some(s) => Compression::parse(s)
            .ok_or_else(|| arg_err(format!("flag --codec: expected raw|columnar, got {s}")))?,
    };
    if n_campaigns == 0 {
        return Err(arg_err("--campaigns must be at least 1"));
    }
    let stage_kinds: Vec<StageKind> = match args.get("stages") {
        None => StageKind::ALL.to_vec(),
        Some(spec) => spec
            .split(',')
            .map(|s| {
                StageKind::parse(s.trim()).ok_or_else(|| {
                    arg_err(format!(
                        "flag --stages: unknown stage `{s}` (expected recon, lateral, c2, exfil)"
                    ))
                })
            })
            .collect::<Result<_>>()?,
    };
    // Kill chains are scaled into the capture and staggered: each campaign
    // starts at a deterministic offset and its stages share the window the
    // nominal 4-stage chain would occupy.
    let nominal_total: f64 =
        StageKind::ALL.iter().map(|&k| StageParams::nominal(k).duration_secs).sum();
    let time_scale = (duration * 0.6 / nominal_total).min(1.0);
    let stages: Vec<StageParams> = stage_kinds
        .iter()
        .map(|&kind| {
            let nominal = StageParams::nominal(kind);
            StageParams {
                intensity: nominal.intensity * intensity,
                stealth: stealth.clamp(0.0, 1.0),
                duration_secs: nominal.duration_secs * time_scale,
                ..nominal
            }
        })
        .collect();

    let mut job = csb_core::CampaignJob::new()
        .duration_secs(duration)
        .sessions_per_sec(rate)
        .seed(seed)
        .workers(workers)
        .store(out)
        .shards(shards)
        .compression(codec);
    for id in 1..=n_campaigns {
        let start_secs = duration * 0.1 + duration * 0.8 * (id - 1) as f64 / n_campaigns as f64;
        job = job.campaign(CampaignConfig {
            id,
            seed: csb_stats::rng::derive_seed(seed, 0xCA_u64 + id as u64),
            start_secs,
            stages: stages.clone(),
        });
    }
    let outcome = job.run()?;
    println!(
        "wrote {out}: {} flows ({} labeled across {} campaign(s)), {} packets, \
         {} shard(s), {} codec",
        outcome.flows.len(),
        outcome.labeled_flows,
        n_campaigns,
        outcome.packets,
        shards.max(1),
        codec.name()
    );

    if let Some(kdd_path) = args.get("kdd") {
        let csv = csb_net::kdd::kdd_csv(&outcome.flows);
        std::fs::write(kdd_path, &csv)?;
        println!("wrote {} KDD feature rows to {kdd_path}", outcome.flows.len());
    }

    if let Some(report_path) = args.get("report") {
        // The realistic evaluation loop: thresholds trained on the benign
        // slice (ground truth makes that split exact), detector run over
        // everything, detections scored flow-by-flow against the labels.
        let benign: Vec<_> =
            outcome.flows.iter().filter(|f| !f.label.is_attack()).map(|f| f.flow).collect();
        let all: Vec<_> = outcome.flows.iter().map(|f| f.flow).collect();
        let detections = detect(&all, &train_thresholds(&benign));
        let eval = csb_ids::evaluate_flows(&outcome.flows, &detections);
        let stages_json = csb_obs::json::array_of(eval.per_stage.iter().map(|s| {
            let mut o = csb_obs::json::JsonObject::new();
            o.u64("campaign", s.campaign as u64);
            o.u64("stage", s.stage as u64);
            o.str(
                "class",
                csb_net::AttackClass::from_code(s.class).map(|c| c.kdd_name()).unwrap_or("?"),
            );
            o.u64("flows", s.flows as u64);
            o.u64("detected", s.detected as u64);
            o.finish()
        }));
        let mut obj = csb_obs::json::JsonObject::new();
        obj.str("report", "campaign");
        obj.u64("version", 1);
        obj.u64("seed", seed);
        obj.u64("campaigns", n_campaigns as u64);
        obj.u64("packets", outcome.packets as u64);
        obj.u64("flows", outcome.flows.len() as u64);
        obj.u64("labeled_flows", outcome.labeled_flows as u64);
        obj.u64("detections", detections.len() as u64);
        obj.u64("tp", eval.true_positives as u64);
        obj.u64("fp", eval.false_positives as u64);
        obj.u64("fn", eval.false_negatives as u64);
        obj.u64("tn", eval.true_negatives as u64);
        obj.f64("precision", eval.precision(), 6);
        obj.f64("recall", eval.recall(), 6);
        obj.f64("f1", eval.f1(), 6);
        obj.raw("stages", &stages_json);
        std::fs::write(report_path, obj.finish() + "\n")?;
        println!(
            "eval: precision {:.3} recall {:.3} f1 {:.3} ({} detections); report in {report_path}",
            eval.precision(),
            eval.recall(),
            eval.f1(),
            detections.len()
        );
    }
    Ok(())
}

fn seed(args: &Args) -> Result<()> {
    args.expect_only(&["pcap", "out", "filter"])?;
    let pcap = args.require("pcap")?;
    let out = args.require("out")?;
    let mut packets = read_pcap(File::open(pcap)?)?;
    if let Some(expr) = args.get("filter") {
        let filter = csb_net::Filter::parse(expr)?;
        let before = packets.len();
        packets = filter.apply(&packets);
        println!("filter {expr:?}: kept {} of {before} packets", packets.len());
    }
    let bundle = seed_from_packets(&packets);
    write_graph(File::create(out)?, &bundle.graph)?;
    println!(
        "seed {out}: {} vertices, {} edges | out-degree mean {:.2} max {} | in-bytes mean {:.0} B",
        bundle.graph.vertex_count(),
        bundle.graph.edge_count(),
        bundle.analysis.out_degree.mean(),
        bundle.analysis.out_degree.max(),
        bundle.analysis.properties.in_bytes().mean()
    );
    Ok(())
}

fn generate(args: &Args) -> Result<()> {
    args.expect_only(&[
        "seed-graph",
        "algorithm",
        "size",
        "out",
        "fraction",
        "seed",
        "trace-out",
        "metrics-out",
        "checkpoint-dir",
        "checkpoint-every",
        "resume",
        "kill-after-chunks",
        "shards",
        "codec",
        "obs-listen",
        "obs-linger-ms",
        "progress",
        "job-id",
    ])?;
    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");
    let obs_listen = args.get("obs-listen");
    let progress: bool = args.get_or("progress", false)?;
    let obs_linger_ms: u64 = args.get_or("obs-linger-ms", 0)?;
    let telemetry =
        trace_out.is_some() || metrics_out.is_some() || obs_listen.is_some() || progress;
    // Instrumentation is collected only when an export, the live endpoint,
    // or the progress ticker was requested; the disabled path costs two
    // relaxed atomic loads per probe. Telemetry never touches generator RNG
    // streams, so --out bytes are identical with or without these flags.
    if telemetry {
        csb_obs::reset();
        csb_obs::enable();
    }
    let server = match obs_listen {
        Some(addr) => {
            let srv = csb_obs::ObsServer::serve(addr, csb_obs::recorder::current())
                .map_err(|e| arg_err(format!("--obs-listen {addr}: {e}")))?;
            // Machine-parseable: CI and scripts read the bound (possibly
            // ephemeral) port from this line.
            println!("obs: serving http://{}", srv.addr());
            use std::io::Write as _;
            std::io::stdout().flush().ok();
            Some(srv)
        }
        None => None,
    };
    let sampler = telemetry.then(|| {
        csb_obs::Sampler::start(csb_obs::recorder::current(), std::time::Duration::from_millis(500))
    });
    let ticker = progress.then(start_progress_ticker);
    let bundle = load_seed(args.require("seed-graph")?)?;
    let size: u64 = args.require_parsed("size")?;
    let out = args.require("out")?;
    let rng_seed: u64 = args.get_or("seed", 42)?;
    let mut job = match args.require("algorithm")? {
        "pgpba" => {
            let fraction: f64 = args.get_or("fraction", 0.1)?;
            GenJob::pgpba(&bundle, PgpbaConfig { desired_size: size, fraction, seed: rng_seed })
        }
        "pgsk" => GenJob::pgsk(&bundle, PgskConfig { seed: rng_seed, ..PgskConfig::new(size) }),
        other => return Err(arg_err(format!("unknown algorithm {other}"))),
    };
    if let Some(id) = args.get("job-id") {
        job = job.job_id(id);
    }
    let shards: usize = args.get_or("shards", 1)?;
    let codec = match args.get("codec") {
        None => Compression::None,
        Some(s) => Compression::parse(s)
            .ok_or_else(|| arg_err(format!("flag --codec: expected raw|columnar, got {s}")))?,
    };
    let graph = match args.get("checkpoint-dir") {
        // Checkpointed runs write the binary store format directly (the text
        // writer has no durable barriers to resume from).
        Some(dir) => {
            let mut job = job.store(out).checkpoint(dir).shards(shards).compression(codec);
            job = job.checkpoint_every(args.get_or("checkpoint-every", 8)?);
            if args.get_or("resume", false)? {
                job = job.resume();
            }
            if let Some(n) = args.get("kill-after-chunks") {
                let n: u64 =
                    n.parse().map_err(|_| arg_err("flag --kill-after-chunks: not a number"))?;
                // The CLI kill hook exists for crash-recovery smoke tests: it
                // takes the whole process down, exactly like a real crash.
                job = job.kill_after_chunks(n, true);
            }
            let run = job.run()?;
            println!(
                "generated {out}: {} edges (csb-store format, target {size}; \
                 checkpoints in {dir})",
                run.edges
            );
            None
        }
        // --shards / --codec imply the binary store format too: the text
        // writer has neither shard files nor column codecs.
        None if shards > 1 || args.get("codec").is_some() => {
            let run = job.store(out).shards(shards).compression(codec).run()?;
            println!(
                "generated {out}: {} edges (csb-store format, target {size}; {} shard(s), \
                 {} codec)",
                run.edges,
                shards.max(1),
                codec.name()
            );
            None
        }
        None => {
            let run = job.run()?;
            let graph = run.graph.expect("memory runs hold the graph");
            write_graph(File::create(out)?, &graph)?;
            Some(graph)
        }
    };
    if let Some((stop, handle)) = ticker {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        handle.join().ok();
        // One final line so short runs still show their end state.
        eprintln!("{}", csb_obs::recorder::current().status().snapshot().ticker_line());
    }
    if let Some(s) = sampler {
        let series = s.stop();
        if telemetry && !series.is_empty() {
            let peak = csb_obs::sampler::peak_rss_bytes(&series);
            if peak > 0 {
                csb_obs::obs_info!(
                    "peak RSS {:.1} MiB over {} samples",
                    peak as f64 / (1 << 20) as f64,
                    series.len()
                );
            }
        }
    }
    if let Some(srv) = server {
        // Give scrapers a window to read the final /metrics and /status.
        if obs_linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(obs_linger_ms));
        }
        srv.shutdown();
    }
    if telemetry {
        csb_obs::disable();
        // Instrumentation export is best-effort: a full disk at --trace-out
        // must not discard the generated graph that was already written.
        if let Some(path) = trace_out {
            match csb_obs::export::write_chrome_trace(path) {
                Ok(()) => {
                    println!("wrote Chrome trace to {path} (load at https://ui.perfetto.dev)")
                }
                Err(e) => eprintln!("warning: could not write Chrome trace to {path}: {e}"),
            }
        }
        if let Some(path) = metrics_out {
            match csb_obs::export::write_metrics_summary(path) {
                Ok(()) => println!("wrote metrics summary to {path}"),
                Err(e) => eprintln!("warning: could not write metrics summary to {path}: {e}"),
            }
        }
    }
    if let Some(graph) = graph {
        println!(
            "generated {out}: {} vertices, {} edges (target {size})",
            graph.vertex_count(),
            graph.edge_count()
        );
    }
    Ok(())
}

/// Spawns the `--progress` stderr ticker: a half-second heartbeat printing
/// the current recorder's status line. Returns the stop flag and the handle.
fn start_progress_ticker(
) -> (std::sync::Arc<std::sync::atomic::AtomicBool>, std::thread::JoinHandle<()>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_in = Arc::clone(&stop);
    let board = csb_obs::recorder::current().status();
    let handle = std::thread::Builder::new()
        .name("csb-progress".into())
        .spawn(move || {
            while !stop_in.load(Ordering::Relaxed) {
                // Sleep in slices so the final line lands promptly.
                for _ in 0..25 {
                    if stop_in.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                eprintln!("{}", board.snapshot().ticker_line());
            }
        })
        .expect("spawn progress ticker");
    (stop, handle)
}

/// `csb obs report TRACE [--top N] [--metrics FILE]`: folds a span trace
/// (Chrome trace-event JSON from `--trace-out`, or the events JSONL format)
/// into a per-phase self-time table, optionally followed by the top counters
/// of a `--metrics-out` summary.
fn obs_report(args: &Args) -> Result<()> {
    args.expect_only(&["trace", "top", "metrics"])?;
    let path = args.require("trace")?;
    let top: usize = args.get_or("top", 20)?;
    let text = std::fs::read_to_string(path)?;
    let spans = csb_obs::profile::parse_trace(&text)
        .map_err(|e| arg_err(format!("{path}: not a trace file: {e}")))?;
    let profile = csb_obs::profile::profile(&spans);
    print!("{}", csb_obs::profile::render_report(&profile, top));
    if let Some(mpath) = args.get("metrics") {
        let mtext = std::fs::read_to_string(mpath)?;
        let rows = csb_obs::profile::top_counters_from_summary(&mtext, 10)
            .map_err(|e| arg_err(format!("{mpath}: {e}")))?;
        print!("{}", csb_obs::profile::render_top_counters(&rows));
    }
    Ok(())
}

/// Everything `csb veracity` accepts, parsed up front into one struct: the
/// in-memory and the store mode then flow through the same [`VeracityJob`].
pub(crate) struct VeracityCliConfig {
    pub(crate) metrics: Vec<Metric>,
    pub(crate) pagerank: PageRankConfig,
    pub(crate) scan_cache_mb: Option<u64>,
    json_out: Option<String>,
}

impl VeracityCliConfig {
    /// Parses the flags shared by `veracity` and `compare`: `--metrics`, the
    /// PageRank knobs, and `--scan-cache-mb`.
    pub(crate) fn parse(args: &Args) -> Result<Self> {
        let defaults = PageRankConfig::default();
        Ok(VeracityCliConfig {
            metrics: match args.get("metrics") {
                Some(spec) => Metric::parse_list(spec)?,
                None => Metric::DEFAULT.to_vec(),
            },
            pagerank: PageRankConfig {
                damping: args.get_or("damping", defaults.damping)?,
                max_iters: args.get_or("max-iters", defaults.max_iters)?,
                tolerance: args.get_or("tolerance", defaults.tolerance)?,
            },
            scan_cache_mb: match args.get("scan-cache-mb") {
                Some(_) => Some(args.require_parsed("scan-cache-mb")?),
                None => None,
            },
            json_out: args.get("json-out").map(str::to_string),
        })
    }

    /// A [`VeracityJob`] with the parsed metric set and knobs applied; the
    /// caller attaches the two inputs.
    pub(crate) fn job<'a>(&self) -> VeracityJob<'a> {
        let mut job =
            VeracityJob::new().metrics(self.metrics.iter().copied()).pagerank_config(self.pagerank);
        if let Some(mb) = self.scan_cache_mb {
            job = job.scan_cache_mb(mb);
        }
        job
    }
}

fn veracity_cmd(args: &Args) -> Result<()> {
    args.expect_only(&[
        "seed-graph",
        "synthetic",
        "store",
        "json-out",
        "metrics",
        "damping",
        "max-iters",
        "tolerance",
        "scan-cache-mb",
    ])?;
    let cfg = VeracityCliConfig::parse(args)?;
    let stores = args.get_all("store");
    let (report, seed_label, synth_label) = if stores.is_empty() {
        let seed_path = args.require("seed-graph")?;
        let synth_path = args.require("synthetic")?;
        let seed = load_graph(seed_path)?;
        let synth = load_graph(synth_path)?;
        println!(
            "seed {}v/{}e vs synthetic {}v/{}e",
            seed.vertex_count(),
            seed.edge_count(),
            synth.vertex_count(),
            synth.edge_count()
        );
        let report = cfg.job().seed_graph(&seed).synthetic_graph(&synth).run()?;
        (report, seed_path.to_string(), synth_path.to_string())
    } else {
        // Out-of-core: score two graph store files without materializing
        // either graph (`csb veracity --store seed.csb synth.csb`).
        if args.get("seed-graph").is_some() || args.get("synthetic").is_some() {
            return Err(arg_err("--store replaces --seed-graph/--synthetic"));
        }
        let [seed_path, synth_path] = stores else {
            return Err(arg_err(format!(
                "--store takes exactly two files (seed, synthetic), got {}",
                stores.len()
            )));
        };
        for path in [seed_path, synth_path] {
            // The scan dispatches on magic: plain store file or sharded set.
            use csb_graph::ooc::EdgeScan;
            let mut scan = csb_store::ShardedScan::open(path)?;
            println!("store {path}: {}v/{}e", scan.vertex_count()?, scan.edge_count()?);
        }
        let report = cfg.job().seed_store(seed_path).synthetic_store(synth_path).run()?;
        (report, seed_path.clone(), synth_path.clone())
    };
    for s in &report.scores {
        // The pad keeps the score column aligned through "pagerank veracity:".
        println!("{:<18} {:.6e}", format!("{} veracity:", s.metric), s.score);
    }
    if let Some(path) = &cfg.json_out {
        // `{:e}` is the shortest round-trip form, so consumers recover the
        // exact f64 scores by parsing. Keys are the metric names.
        let mut obj = csb_obs::json::JsonObject::new();
        obj.str("seed", &seed_label);
        obj.str("synthetic", &synth_label);
        for s in &report.scores {
            obj.raw(s.metric, &format!("{:e}", s.score));
        }
        std::fs::write(path, obj.finish() + "\n")?;
        println!("wrote veracity scores to {path}");
    }
    Ok(())
}

fn detect_cmd(args: &Args) -> Result<()> {
    args.expect_only(&["pcap", "train", "filter"])?;
    let mut packets = read_pcap(File::open(args.require("pcap")?)?)?;
    if let Some(expr) = args.get("filter") {
        packets = csb_net::Filter::parse(expr)?.apply(&packets);
    }
    let flows = FlowAssembler::assemble(&packets);
    let thresholds = match args.get("train") {
        Some(train_path) => {
            let train_packets = read_pcap(File::open(train_path)?)?;
            train_thresholds(&FlowAssembler::assemble(&train_packets))
        }
        None => train_thresholds(&flows),
    };
    let detections = detect(&flows, &thresholds);
    println!("{} flows analyzed, {} alarms:", flows.len(), detections.len());
    for d in &detections {
        println!("  {:>12} at {}", d.kind.to_string(), fmt_ip(d.ip));
    }
    // If the capture itself was produced by `csb simulate --attacks true`
    // there are no labels in the pcap; evaluation is only meaningful with
    // labels, so report detections only.
    let _ = evaluate(&detections, &[]);
    Ok(())
}

fn workload_cmd(args: &Args) -> Result<()> {
    args.expect_only(&["graph", "node", "edge", "path", "subgraph", "seed"])?;
    let graph = load_graph(args.require("graph")?)?;
    let spec = csb_workloads::WorkloadSpec {
        node_queries: args.get_or("node", 200)?,
        edge_queries: args.get_or("edge", 50)?,
        path_queries: args.get_or("path", 50)?,
        subgraph_queries: args.get_or("subgraph", 10)?,
        seed: args.get_or("seed", 0xB5)?,
    };
    let report = csb_workloads::run_workload(&graph, &spec);
    println!(
        "dataset: {} vertices / {} edges; {} queries in {:.3} s ({:.0} q/s)",
        graph.vertex_count(),
        graph.edge_count(),
        report.total_queries(),
        report.total_secs,
        report.qps()
    );
    for f in &report.families {
        println!(
            "  {:>8}: {:>6} queries, mean {:>9.1} us, max {:>9.1} us",
            f.family,
            f.latency_micros.count(),
            f.latency_micros.mean(),
            f.latency_micros.max()
        );
    }
    Ok(())
}

fn export_cmd(args: &Args) -> Result<()> {
    args.expect_only(&["graph", "flows", "out", "duration", "seed", "format"])?;
    let out = args.require("out")?;
    // `--format kdd` reads a labeled flow store (`--flows`), not a graph:
    // feature rows need the per-flow ground-truth labels a graph cannot carry.
    if args.get("format") == Some("kdd") {
        let flows_path = args.require("flows").map_err(|_| {
            arg_err(
                "--format kdd exports a labeled flow store: use --flows FILE (a store \
                     written by `csb campaign` or `save_labeled_flows`)",
            )
        })?;
        let flows = csb_store::load_labeled_flows(flows_path)?;
        std::fs::write(out, csb_net::kdd::kdd_csv(&flows))?;
        let labeled = flows.iter().filter(|f| f.label.is_attack()).count();
        println!(
            "exported {} KDD feature rows ({labeled} attack-labeled) from {flows_path} to {out}",
            flows.len()
        );
        return Ok(());
    }
    if args.get("flows").is_some() {
        return Err(arg_err("--flows applies only to --format kdd"));
    }
    let graph = load_graph(args.require("graph")?)?;
    let duration: f64 = args.get_or("duration", 60.0)?;
    let seed: u64 = args.get_or("seed", 1)?;
    match args.get("format").unwrap_or("nf5") {
        "nf5" => {
            let flows = csb_workloads::replay_flows(&graph, duration, seed);
            csb_net::netflow_v5::write_netflow_v5(File::create(out)?, &flows)?;
            println!(
                "exported {} flows over a {duration:.0} s replay window to {out} (NetFlow v5)",
                flows.len()
            );
        }
        "store" => {
            csb_store::save_graph(out, &graph)?;
            println!(
                "exported {} vertices, {} edges to {out} (csb-store graph)",
                graph.vertex_count(),
                graph.edge_count()
            );
        }
        "store-flows" => {
            let flows = csb_workloads::replay_flows(&graph, duration, seed);
            csb_store::save_flows(out, &flows)?;
            println!(
                "exported {} flows over a {duration:.0} s replay window to {out} (csb-store)",
                flows.len()
            );
        }
        other => {
            return Err(arg_err(format!(
                "unknown export format `{other}` (expected nf5, store, store-flows, or kdd)"
            )))
        }
    }
    Ok(())
}

fn import_cmd(args: &Args) -> Result<()> {
    args.expect_only(&["store", "out", "expect"])?;
    let store_path = args.require("store")?;
    let out = args.require("out")?;
    let graph = csb_store::load_graph(store_path)?;
    if let Some(expect_path) = args.get("expect") {
        let expected = load_graph(expect_path)?;
        let same = expected.vertex_data() == graph.vertex_data()
            && expected.edge_sources() == graph.edge_sources()
            && expected.edge_targets() == graph.edge_targets()
            && expected.edge_data() == graph.edge_data();
        if !same {
            return Err(CsbError::Mismatch(format!(
                "store {store_path} does not match {expect_path}"
            )));
        }
        println!("store matches {expect_path}");
    }
    write_graph(File::create(out)?, &graph)?;
    println!(
        "imported {} vertices, {} edges from {store_path} to {out}",
        graph.vertex_count(),
        graph.edge_count()
    );
    Ok(())
}

fn cluster_sim(args: &Args) -> Result<()> {
    args.expect_only(&["algorithm", "edges", "nodes", "fraction", "seed-edges"])?;
    let edges: u64 = args.require_parsed("edges")?;
    let nodes: usize = args.get_or("nodes", 60)?;
    let seed_edges: u64 = args.get_or("seed-edges", 1_940_814)?;
    let algorithm = match args.require("algorithm")? {
        "pgpba" => GenAlgorithm::Pgpba { fraction: args.get_or("fraction", 2.0)? },
        "pgsk" => GenAlgorithm::Pgsk,
        other => return Err(arg_err(format!("unknown algorithm {other}"))),
    };
    let sim = SimCluster::new(ClusterConfig::shadow_ii(nodes), CostModel::default());
    let r = sim.simulate(&SimGenJob { algorithm, edges, seed_edges, with_properties: true });
    println!("cluster: {nodes} Shadow II nodes (12 executor cores each)");
    println!(
        "total {:.1} s = compute {:.1} + shuffle {:.1} + barriers {:.1} (+{:.0} s job overhead)",
        r.total_secs,
        r.compute_secs,
        r.shuffle_secs,
        r.barrier_secs,
        sim.model().job_overhead_secs
    );
    println!(
        "throughput {:.2e} edges/s | {:.1} GB/node | {} iterations",
        r.throughput_eps, r.memory_per_node_gb, r.iterations
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("parse")
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&args(&["frobnicate"])).expect_err("unknown");
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn edgeless_seed_graph_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("csb-cli-edgeless-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let out = dir.join("synth.graph").to_string_lossy().into_owned();
        std::fs::write(&seed_path, "# csb-graph v1\nv\t0\t167772161\nv\t1\t167772162\n")
            .expect("write seed");
        let err = run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "pgsk",
            "--size",
            "100",
            "--out",
            &out,
        ]))
        .expect_err("a seed without edges cannot be grown");
        assert!(err.to_string().contains("no edges"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_cli_pipeline_over_temp_files() {
        let dir = std::env::temp_dir().join(format!("csb-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let synth_path = dir.join("synth.graph").to_string_lossy().into_owned();

        run(&args(&["simulate", "--out", &pcap, "--duration", "10", "--rate", "20"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path, "--filter", "tcp or udp"]))
            .expect("seed");
        run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "pgpba",
            "--size",
            "2000",
            "--out",
            &synth_path,
        ]))
        .expect("generate");
        run(&args(&["veracity", "--seed-graph", &seed_path, "--synthetic", &synth_path]))
            .expect("veracity");
        run(&args(&["detect", "--pcap", &pcap])).expect("detect");
        run(&args(&[
            "workload",
            "--graph",
            &synth_path,
            "--node",
            "20",
            "--edge",
            "5",
            "--path",
            "5",
            "--subgraph",
            "2",
        ]))
        .expect("workload");
        let nf_path = dir.join("flows.nf5").to_string_lossy().into_owned();
        run(&args(&["export", "--graph", &synth_path, "--out", &nf_path, "--duration", "10"]))
            .expect("export");
        let nf_flows =
            csb_net::netflow_v5::read_netflow_v5(std::fs::File::open(&nf_path).expect("open"))
                .expect("nf5 read");
        assert!(!nf_flows.is_empty());
        run(&args(&["cluster-sim", "--algorithm", "pgsk", "--edges", "1000000000"]))
            .expect("cluster-sim");

        // Generated artifacts exist and round-trip.
        let g = load_graph(&synth_path).expect("load synth");
        assert!(g.edge_count() >= 2000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_writes_trace_and_metrics() {
        let _guard = csb_obs::span::test_lock();
        let dir = std::env::temp_dir().join(format!("csb-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let synth_path = dir.join("synth.graph").to_string_lossy().into_owned();
        let trace_path = dir.join("trace.json").to_string_lossy().into_owned();
        let metrics_path = dir.join("metrics.json").to_string_lossy().into_owned();

        run(&args(&["simulate", "--out", &pcap, "--duration", "8", "--rate", "15"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "pgpba",
            "--size",
            "2000",
            "--out",
            &synth_path,
            "--trace-out",
            &trace_path,
            "--metrics-out",
            &metrics_path,
        ]))
        .expect("generate with exports");

        let trace = std::fs::read_to_string(&trace_path).expect("trace written");
        csb_obs::json::validate_json(&trace).expect("trace is valid JSON");
        assert!(trace.contains("\"name\":\"pgpba.grow\""), "grow span present");
        assert!(trace.contains("\"name\":\"attach\""), "attach span present");
        assert!(trace.contains("\"name\":\"attach.chunk\""), "per-worker spans present");
        let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
        csb_obs::json::validate_json(&metrics).expect("metrics are valid JSON");
        assert!(metrics.contains("\"attach.edges\""), "attach counter exported");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_report_folds_a_generated_trace() {
        let _guard = csb_obs::span::test_lock();
        let dir = std::env::temp_dir().join(format!("csb-cli-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let synth_path = dir.join("synth.graph").to_string_lossy().into_owned();
        let trace_path = dir.join("trace.json").to_string_lossy().into_owned();
        let metrics_path = dir.join("metrics.json").to_string_lossy().into_owned();

        run(&args(&["simulate", "--out", &pcap, "--duration", "8", "--rate", "15"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "pgpba",
            "--size",
            "2000",
            "--out",
            &synth_path,
            "--trace-out",
            &trace_path,
            "--metrics-out",
            &metrics_path,
            "--job-id",
            "report-test",
        ]))
        .expect("generate with exports");

        // The report command parses and folds the trace it just wrote, with
        // and without the optional counters.
        run(&args(&["obs-report", "--trace", &trace_path, "--top", "5"])).expect("report");
        run(&args(&["obs-report", "--trace", &trace_path, "--metrics", &metrics_path]))
            .expect("report with counters");
        let err = run(&args(&["obs-report", "--trace", &seed_path])).expect_err("not a trace");
        assert!(err.to_string().contains("trace"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_store_import_round_trips() {
        let dir = std::env::temp_dir().join(format!("csb-cli-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let store_path = dir.join("seed.csbstore").to_string_lossy().into_owned();
        let back_path = dir.join("back.graph").to_string_lossy().into_owned();

        run(&args(&["simulate", "--out", &pcap, "--duration", "6", "--rate", "12"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        run(&args(&["export", "--graph", &seed_path, "--out", &store_path, "--format", "store"]))
            .expect("export store");
        // Import verifies equality against the original and writes it back
        // as a text graph; the text graphs must then be identical files.
        run(&args(&[
            "import",
            "--store",
            &store_path,
            "--out",
            &back_path,
            "--expect",
            &seed_path,
        ]))
        .expect("import");
        let original = std::fs::read_to_string(&seed_path).expect("read original");
        let back = std::fs::read_to_string(&back_path).expect("read imported");
        assert_eq!(original, back, "store round trip must preserve the text graph");

        // Flow-store export round-trips through the reader too.
        let flows_path = dir.join("flows.csbstore").to_string_lossy().into_owned();
        run(&args(&[
            "export",
            "--graph",
            &seed_path,
            "--out",
            &flows_path,
            "--format",
            "store-flows",
            "--duration",
            "5",
        ]))
        .expect("export store-flows");
        let flows = csb_store::load_flows(&flows_path).expect("load flows");
        assert!(!flows.is_empty());

        // Mismatched --expect is an error.
        let err = run(&args(&[
            "import",
            "--store",
            &store_path,
            "--out",
            &back_path,
            "--expect",
            &back_path,
        ]));
        assert!(err.is_ok(), "identical graph under a different name still matches");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_writes_store_kdd_and_report() {
        let dir = std::env::temp_dir().join(format!("csb-cli-camp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store = dir.join("flows.csbstore").to_string_lossy().into_owned();
        let kdd = dir.join("rows.csv").to_string_lossy().into_owned();
        let report = dir.join("report.json").to_string_lossy().into_owned();

        run(&args(&[
            "campaign",
            "--out",
            &store,
            "--kdd",
            &kdd,
            "--report",
            &report,
            "--duration",
            "30",
            "--rate",
            "10",
            "--seed",
            "5",
            "--workers",
            "3",
            "--codec",
            "columnar",
        ]))
        .expect("campaign");

        let flows = csb_store::load_labeled_flows(&store).expect("load labeled store");
        let labeled = flows.iter().filter(|f| f.label.is_attack()).count();
        assert!(labeled > 0, "campaign must label flows");
        assert!(flows.len() > labeled, "benign flows must be present too");

        let csv = std::fs::read_to_string(&kdd).expect("kdd written");
        let mut lines = csv.lines();
        assert_eq!(lines.next().expect("header"), csb_net::kdd::kdd_header());
        assert_eq!(lines.count(), flows.len(), "one row per flow");

        let json = std::fs::read_to_string(&report).expect("report written");
        csb_obs::json::validate_json(&json).expect("report is valid JSON");
        for key in ["\"report\":\"campaign\"", "\"precision\":", "\"recall\":", "\"stages\":"] {
            assert!(json.contains(key), "report missing {key}: {json}");
        }

        // `csb export --format kdd` over the store reproduces the same rows.
        let kdd2 = dir.join("rows2.csv").to_string_lossy().into_owned();
        run(&args(&["export", "--flows", &store, "--out", &kdd2, "--format", "kdd"]))
            .expect("export kdd");
        assert_eq!(csv, std::fs::read_to_string(&kdd2).expect("read rows2"));

        // kdd without --flows is a usage error that explains the flag.
        let err = run(&args(&["export", "--out", &kdd2, "--format", "kdd"]))
            .expect_err("missing --flows");
        assert!(err.to_string().contains("--flows"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_is_worker_and_shard_invariant() {
        let dir = std::env::temp_dir().join(format!("csb-cli-campinv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let single = dir.join("a.csbstore").to_string_lossy().into_owned();
        let sharded = dir.join("b.csbset").to_string_lossy().into_owned();
        let base = |out: &str, extra: &[&str]| {
            let mut argv =
                vec!["campaign", "--out", out, "--duration", "20", "--rate", "8", "--seed", "9"];
            argv.extend_from_slice(extra);
            run(&args(&argv)).expect("campaign");
        };
        base(&single, &["--workers", "1"]);
        base(&sharded, &["--workers", "4", "--shards", "3", "--codec", "columnar"]);
        let a = csb_store::load_labeled_flows(&single).expect("load single");
        let b = csb_store::load_labeled_flows(&sharded).expect("load sharded");
        assert_eq!(a, b, "worker count and shard layout must not change the stream");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_rejects_unknown_format() {
        let err = run(&args(&[
            "export",
            "--graph",
            "/nonexistent",
            "--out",
            "/dev/null",
            "--format",
            "parquet",
        ]))
        .expect_err("bad format or missing file");
        let msg = err.to_string();
        assert!(msg.contains("parquet") || msg.contains("No such file"), "got: {msg}");
    }

    #[test]
    fn generate_rejects_bad_algorithm() {
        let dir = std::env::temp_dir().join(format!("csb-cli-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        run(&args(&["simulate", "--out", &pcap, "--duration", "5", "--rate", "10"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        let err = run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "magic",
            "--size",
            "10",
            "--out",
            "/dev/null",
        ]))
        .expect_err("bad algorithm");
        assert!(err.to_string().contains("magic"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_size_zero_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("csb-cli-size0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        run(&args(&["simulate", "--out", &pcap, "--duration", "5", "--rate", "10"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        for algorithm in ["pgpba", "pgsk"] {
            let err = run(&args(&[
                "generate",
                "--seed-graph",
                &seed_path,
                "--algorithm",
                algorithm,
                "--size",
                "0",
                "--out",
                "/dev/null",
            ]))
            .expect_err("zero size");
            assert!(err.to_string().contains("desired_size"), "{algorithm}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn typo_flags_are_rejected() {
        let err = run(&args(&["simulate", "--otu", "x"])).expect_err("typo");
        assert!(err.to_string().contains("--otu"));
    }

    #[test]
    fn checkpointed_generate_matches_plain_store_export() {
        let dir = std::env::temp_dir().join(format!("csb-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let synth_path = dir.join("synth.graph").to_string_lossy().into_owned();
        let plain_store = dir.join("plain.csbstore").to_string_lossy().into_owned();
        let ckpt_store = dir.join("ckpt.csbstore").to_string_lossy().into_owned();
        let ckpt_dir = dir.join("ckpt").to_string_lossy().into_owned();

        run(&args(&["simulate", "--out", &pcap, "--duration", "8", "--rate", "15"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        // Reference bytes: in-memory generate, then export as a store file.
        run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "pgpba",
            "--size",
            "3000",
            "--out",
            &synth_path,
        ]))
        .expect("generate");
        run(&args(&["export", "--graph", &synth_path, "--out", &plain_store, "--format", "store"]))
            .expect("export store");
        // Checkpointed generate writes the store format directly.
        run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "pgpba",
            "--size",
            "3000",
            "--out",
            &ckpt_store,
            "--checkpoint-dir",
            &ckpt_dir,
            "--checkpoint-every",
            "1",
        ]))
        .expect("checkpointed generate");
        assert_eq!(
            std::fs::read(&plain_store).expect("read plain"),
            std::fs::read(&ckpt_store).expect("read checkpointed"),
            "checkpointed store bytes must match the export path"
        );
        // A completed run leaves no manifest, so --resume falls back to a
        // fresh (and therefore identical) run.
        run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "pgpba",
            "--size",
            "3000",
            "--out",
            &ckpt_store,
            "--checkpoint-dir",
            &ckpt_dir,
            "--resume",
            "true",
        ]))
        .expect("resume without a manifest");
        assert_eq!(
            std::fs::read(&plain_store).expect("read plain"),
            std::fs::read(&ckpt_store).expect("read re-run"),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_columnar_generate_scores_identically_to_single_file() {
        let dir = std::env::temp_dir().join(format!("csb-cli-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let single = dir.join("single.csbstore").to_string_lossy().into_owned();
        let sharded = dir.join("sharded.csbshards").to_string_lossy().into_owned();

        run(&args(&["simulate", "--out", &pcap, "--duration", "8", "--rate", "15"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        let generate = |out: &str, extra: &[&str]| {
            let mut argv = vec![
                "generate",
                "--seed-graph",
                &seed_path,
                "--algorithm",
                "pgpba",
                "--size",
                "3000",
                "--out",
                out,
            ];
            argv.extend_from_slice(extra);
            run(&args(&argv)).expect("generate");
        };
        // --codec alone (even "raw") opts into the store format.
        generate(&single, &["--codec", "raw"]);
        generate(&sharded, &["--shards", "3", "--codec", "columnar"]);
        for i in 0..3 {
            assert!(dir.join(format!("sharded.csbshards.s{i}")).is_file(), "shard {i} missing");
        }

        // Same logical graph, and the compressed shard set is smaller.
        let a = csb_store::load_graph(&single).expect("load single");
        let b = csb_store::load_graph(&sharded).expect("load sharded");
        assert_eq!(a.edge_sources(), b.edge_sources());
        assert_eq!(a.edge_targets(), b.edge_targets());
        assert_eq!(a.edge_data(), b.edge_data());
        let single_bytes = std::fs::metadata(&single).expect("meta").len();
        let shard_bytes: u64 = (0..3)
            .map(|i| {
                std::fs::metadata(dir.join(format!("sharded.csbshards.s{i}"))).expect("meta").len()
            })
            .sum();
        assert!(
            shard_bytes * 2 < single_bytes,
            "columnar shards ({shard_bytes} B) should be well under half the raw store \
             ({single_bytes} B)"
        );

        // veracity --store accepts either layout and scores bit-identically.
        run(&args(&["veracity", "--store", &single, &sharded])).expect("veracity mixed layouts");
        let score = |seed: &str, synth: &str| {
            csb_core::VeracityJob::new()
                .seed_store(seed)
                .synthetic_store(synth)
                .run()
                .expect("store veracity")
        };
        let v1 = score(&single, &single);
        let v2 = score(&single, &sharded);
        for metric in ["degree", "pagerank"] {
            assert_eq!(
                v1.score(metric).expect("scored").to_bits(),
                v2.score(metric).expect("scored").to_bits(),
                "{metric} must be layout-independent"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn veracity_store_mode_matches_in_memory_scores() {
        let dir = std::env::temp_dir().join(format!("csb-cli-vstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let store_a = dir.join("a.csbstore").to_string_lossy().into_owned();
        let store_b = dir.join("b.csbstore").to_string_lossy().into_owned();
        let json_path = dir.join("scores.json").to_string_lossy().into_owned();

        run(&args(&["simulate", "--out", &pcap, "--duration", "8", "--rate", "15"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        // Two small PGPBA runs with different RNG seeds, straight to the
        // store format (the checkpointed path writes .csbstore).
        for (store, rng_seed) in [(&store_a, "42"), (&store_b, "43")] {
            let ckpt = dir.join(format!("ckpt-{rng_seed}")).to_string_lossy().into_owned();
            run(&args(&[
                "generate",
                "--seed-graph",
                &seed_path,
                "--algorithm",
                "pgpba",
                "--size",
                "2000",
                "--seed",
                rng_seed,
                "--out",
                store,
                "--checkpoint-dir",
                &ckpt,
            ]))
            .expect("generate to store");
        }
        run(&args(&["veracity", "--store", &store_a, &store_b, "--json-out", &json_path]))
            .expect("veracity --store");

        // The JSON output parses and carries the exact scores: `{:e}` is the
        // shortest round-trip form, so parsing recovers the same bits the
        // in-memory veracity computes on the loaded graphs.
        let json = std::fs::read_to_string(&json_path).expect("json written");
        csb_obs::json::validate_json(&json).expect("scores are valid JSON");
        let field = |name: &str| -> f64 {
            let at = json.find(&format!("\"{name}\":")).expect("field present") + name.len() + 3;
            json[at..].split([',', '}']).next().expect("value").parse().expect("score parses")
        };
        let ga = csb_store::load_graph(&store_a).expect("load a");
        let gb = csb_store::load_graph(&store_b).expect("load b");
        let mem = csb_core::VeracityJob::new()
            .seed_graph(&ga)
            .synthetic_graph(&gb)
            .run()
            .expect("in-memory veracity");
        assert_eq!(field("degree").to_bits(), mem.score("degree").expect("scored").to_bits());
        assert_eq!(field("pagerank").to_bits(), mem.score("pagerank").expect("scored").to_bits());

        // Wrong arity and mixed modes are usage errors.
        let err = run(&args(&["veracity", "--store", &store_a])).expect_err("one file");
        assert!(err.to_string().contains("two files"), "got: {err}");
        let err =
            run(&args(&["veracity", "--store", &store_a, &store_b, "--seed-graph", &seed_path]))
                .expect_err("mixed modes");
        assert!(err.to_string().contains("--store replaces"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn veracity_honors_pagerank_flags() {
        let dir = std::env::temp_dir().join(format!("csb-cli-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let synth_path = dir.join("synth.graph").to_string_lossy().into_owned();
        run(&args(&["simulate", "--out", &pcap, "--duration", "8", "--rate", "15"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "pgpba",
            "--size",
            "2000",
            "--out",
            &synth_path,
        ]))
        .expect("generate");
        run(&args(&[
            "veracity",
            "--seed-graph",
            &seed_path,
            "--synthetic",
            &synth_path,
            "--damping",
            "0.5",
            "--max-iters",
            "40",
            "--tolerance",
            "1e-7",
        ]))
        .expect("veracity with PageRank flags");
        let err = run(&args(&[
            "veracity",
            "--seed-graph",
            &seed_path,
            "--synthetic",
            &synth_path,
            "--damping",
            "not-a-number",
        ]))
        .expect_err("bad damping");
        assert!(err.to_string().contains("damping"), "got: {err}");
        // `nan` parses as an f64; it must be refused, not panic mid-score.
        let err = run(&args(&[
            "veracity",
            "--seed-graph",
            &seed_path,
            "--synthetic",
            &synth_path,
            "--damping",
            "nan",
        ]))
        .expect_err("NaN damping");
        assert!(err.to_string().contains("damping"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn veracity_metrics_and_cache_flags() {
        let dir = std::env::temp_dir().join(format!("csb-cli-vmet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pcap = dir.join("t.pcap").to_string_lossy().into_owned();
        let seed_path = dir.join("seed.graph").to_string_lossy().into_owned();
        let synth_path = dir.join("synth.graph").to_string_lossy().into_owned();
        let json_path = dir.join("scores.json").to_string_lossy().into_owned();
        run(&args(&["simulate", "--out", &pcap, "--duration", "6", "--rate", "12"]))
            .expect("simulate");
        run(&args(&["seed", "--pcap", &pcap, "--out", &seed_path])).expect("seed");
        run(&args(&[
            "generate",
            "--seed-graph",
            &seed_path,
            "--algorithm",
            "pgpba",
            "--size",
            "1500",
            "--out",
            &synth_path,
        ]))
        .expect("generate");

        // The full metric suite lands in the JSON report, one key per metric.
        run(&args(&[
            "veracity",
            "--seed-graph",
            &seed_path,
            "--synthetic",
            &synth_path,
            "--metrics",
            "all",
            "--json-out",
            &json_path,
        ]))
        .expect("veracity --metrics all");
        let json = std::fs::read_to_string(&json_path).expect("json written");
        csb_obs::json::validate_json(&json).expect("scores are valid JSON");
        for m in csb_core::Metric::ALL {
            assert!(json.contains(&format!("\"{}\":", m.name())), "missing {}", m.name());
        }

        // Store mode accepts a metric subset and an explicit scan cache.
        let store_a = dir.join("a.csbstore").to_string_lossy().into_owned();
        let store_b = dir.join("b.csbstore").to_string_lossy().into_owned();
        let seed_graph = load_graph(&seed_path).expect("load seed");
        let synth_graph = load_graph(&synth_path).expect("load synth");
        csb_store::save_graph(&store_a, &seed_graph).expect("save a");
        csb_store::save_graph(&store_b, &synth_graph).expect("save b");
        run(&args(&[
            "veracity",
            "--store",
            &store_a,
            &store_b,
            "--metrics",
            "degree,clustering",
            "--scan-cache-mb",
            "8",
            "--json-out",
            &json_path,
        ]))
        .expect("veracity --store with subset");
        let json = std::fs::read_to_string(&json_path).expect("json written");
        assert!(json.contains("\"degree\":") && json.contains("\"clustering\":"));
        assert!(!json.contains("\"pagerank\":"), "unrequested metric leaked: {json}");

        // Unknown metrics and malformed cache sizes are usage errors.
        let err = run(&args(&[
            "veracity",
            "--seed-graph",
            &seed_path,
            "--synthetic",
            &synth_path,
            "--metrics",
            "degree,bogus",
        ]))
        .expect_err("unknown metric");
        assert!(err.to_string().contains("bogus"), "got: {err}");
        let err = run(&args(&[
            "veracity",
            "--seed-graph",
            &seed_path,
            "--synthetic",
            &synth_path,
            "--scan-cache-mb",
            "lots",
        ]))
        .expect_err("bad cache size");
        assert!(err.to_string().contains("scan-cache-mb"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
