//! Set-up: everything built before the measured section — the seed trace and
//! its analysis, the seed store, the inputs of the veracity stage and of the
//! served jobs. `setup_s` times one pass through [`build`]; a run does
//! several, each from a seed trace simulated under its own seed, and reports
//! the median. The stages use what the last pass built.

use crate::plan::{sim_config, Plan, Seeds, STORE_SHARDS};
use crate::probe::call;
use crate::Res;
use csb_core::analysis::SeedAnalysis;
use csb_core::{GenJob, PgpbaConfig, SeedBundle};
use csb_graph::{graph_from_flows, NetflowGraph};
use csb_net::assembler::FlowAssembler;
use csb_net::flow::FlowRecord;
use csb_net::traffic::sim::TrafficSim;
use csb_stats::rng::derive_seed;
use csb_store::Compression;
use std::path::{Path, PathBuf};

/// PGPBA growth fraction of every generation the benchmark configures.
pub const FRACTION: f64 = 1.0;

pub struct Inputs {
    pub seed: SeedBundle,
    /// The seed bundles of every set-up repetition, each simulated under its
    /// own seed. PGSK's rate depends on the seed graph it fits (by a fifth
    /// between two seeds of one size), so its repetitions take these in turn
    /// and the run's median is not one seed graph's.
    pub pgsk_seeds: Vec<SeedBundle>,
    /// The flows the seed graph was built from.
    pub seed_flows: Vec<FlowRecord>,
    pub seed_store: PathBuf,
    /// Text graph the served generation jobs grow from.
    pub serve_seed_graph: PathBuf,
    pub serve_seed_edges: u64,
    /// Store the served veracity jobs score against `seed_store`.
    pub serve_veracity_store: PathBuf,
    /// The veracity stage's synthetic graph, in memory and as a shard set.
    pub veracity_graph: NetflowGraph,
    pub veracity_store: PathBuf,
}

/// A sharded columnar PGPBA store run, as every stage configures it.
pub fn store_job<'a>(
    seed: &'a SeedBundle,
    edges: u64,
    generator_seed: u64,
    path: &Path,
) -> GenJob<'a, 'static> {
    GenJob::pgpba(
        seed,
        PgpbaConfig { desired_size: edges, fraction: FRACTION, seed: generator_seed },
    )
    .store(path)
    .shards(STORE_SHARDS)
    .compression(Compression::Columnar)
}

/// Builds every input under `dir` (emptied first). `earlier` holds the seed
/// bundles of the repetitions before this one; this one simulates its seed
/// trace under its own seed and adds its bundle.
pub fn build(plan: &Plan, seeds: &Seeds, dir: &Path, mut earlier: Vec<SeedBundle>) -> Res<Inputs> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir)?;
    let fixed = &plan.fixed;

    let sim = sim_config(
        derive_seed(seeds.seed_trace, earlier.len() as u64),
        fixed.seed_duration_secs,
        fixed.seed_sessions_per_sec,
    );
    let (trace, _) = call("bench.net.traffic_generate", || TrafficSim::new(sim).generate());
    let (seed_flows, _) = call("bench.net.assemble", || FlowAssembler::assemble(&trace.packets));
    if seed_flows.len() < fixed.serve_seed_flows {
        return Err(format!("seed trace gave only {} flows", seed_flows.len()).into());
    }
    let (graph, _) = call("bench.graph.from_flows", || graph_from_flows(&seed_flows));
    let (analysis, _) = call("bench.core.seed_analysis", || SeedAnalysis::of(&graph));
    let seed = SeedBundle { graph, analysis };

    let seed_store = dir.join("seed.csbstore");
    call("bench.store.save_graph", || csb_store::save_graph(&seed_store, &seed.graph)).0?;

    let serve_seed = graph_from_flows(&seed_flows[..fixed.serve_seed_flows]);
    let serve_seed_graph = dir.join("serve-seed.graph");
    csb_graph::io::write_graph(std::fs::File::create(&serve_seed_graph)?, &serve_seed)?;
    let serve_veracity_store = dir.join("serve-veracity.csbshards");
    call("bench.core.genjob_store", || {
        store_job(&seed, fixed.serve_veracity_edges, seeds.serve, &serve_veracity_store).run()
    })
    .0?;

    let veracity_cfg =
        PgpbaConfig { desired_size: plan.veracity.edges, fraction: FRACTION, seed: seeds.veracity };
    let (run, _) = call("bench.core.genjob_pgpba", || GenJob::pgpba(&seed, veracity_cfg).run());
    let veracity_graph = run?.graph.ok_or("in-memory run returned no graph")?;
    let veracity_store = dir.join("veracity.csbshards");
    call("bench.core.genjob_store", || {
        store_job(&seed, plan.veracity.edges, seeds.veracity, &veracity_store).run()
    })
    .0?;

    earlier.push(seed.clone());
    Ok(Inputs {
        pgsk_seeds: earlier,
        seed,
        seed_flows,
        seed_store,
        serve_seed_graph,
        serve_seed_edges: serve_seed.edge_count() as u64,
        serve_veracity_store,
        veracity_graph,
        veracity_store,
    })
}
