//! The measured section: the five stages every run drives, each call into a
//! layer's public function timed from outside and its outputs checked.
//!
//! The section runs in rounds; each stage does at most one repetition a
//! round (see `plan`), so a stage's repetitions sample the whole run.

use crate::check::Checks;
use crate::inputs::{store_job, Inputs, FRACTION};
use crate::plan::{campaign_configs, sim_config, Plan, Seeds, STORE_SHARDS};
use crate::probe::{call, graph_hash};
use crate::serve::{self, ServeObs};
use crate::stats::median;
use crate::Res;
use csb_core::{CampaignJob, GenJob, Metric, PgpbaConfig, PgskConfig, PhaseTimings, VeracityJob};
use csb_ids::FlowEvalReport;
use csb_net::flow::FlowRecord;
use csb_stats::rng::derive_seed;
use csb_store::shard::ShardSetManifest;
use csb_store::Compression;
use std::path::Path;
use std::time::Instant;

/// A perf change that silently degrades output shows as a veracity score
/// over these ceilings. PGPBA's degree and PageRank distances to its seed
/// are below 1e-5 at every size and seed the benchmark runs (README,
/// "Output checks").
pub const DEGREE_SCORE_CEILING: f64 = 1e-3;
pub const PAGERANK_SCORE_CEILING: f64 = 1e-3;

/// PGPBA grows until it reaches the requested size; its last batch of
/// heavy-tailed degree draws may overshoot, more so on small graphs.
pub fn pgpba_size_ok(requested: u64, got: u64) -> bool {
    got >= requested && got <= requested + requested / 2
}

/// PGSK's size is a statistical target (KronFit + re-inflation).
pub fn pgsk_size_ok(requested: u64, got: u64) -> bool {
    got >= requested / 2 && got <= requested * 2
}

/// Work done and seconds taken, one entry per repetition.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    pub work: Vec<f64>,
    pub wall: Vec<f64>,
}

impl Timed {
    fn push(&mut self, work: f64, wall: f64) {
        self.work.push(work);
        self.wall.push(wall);
    }

    /// Work per second of each repetition.
    pub fn rates(&self) -> Vec<f64> {
        self.work.iter().zip(&self.wall).map(|(w, s)| w / s).collect()
    }
}

#[derive(Default)]
pub struct GenMemObs {
    /// Edges out, per `GenJob::run`.
    pub pgpba: Timed,
    pub pgpba_timings: Vec<PhaseTimings>,
    pub pgsk: Timed,
    pub pgsk_timings: Vec<PhaseTimings>,
    pgpba_hashes: Vec<u64>,
}

#[derive(Default)]
pub struct GenStoreObs {
    /// Edges durable, per `GenJob::run` to a sealed shard set.
    pub runs: Timed,
    /// Shard files plus manifest of one run.
    pub bytes: u64,
    /// Hash of the same seed generated to memory.
    reference: Option<u64>,
}

#[derive(Default)]
pub struct VeracityObs {
    pub mem_wall: Vec<f64>,
    pub ooc_wall: Vec<f64>,
}

#[derive(Default)]
pub struct CampaignObs {
    /// Packets, per `CampaignJob::run` including the store write.
    pub runs: Timed,
    /// Flows, per load -> train -> detect -> evaluate pass.
    pub ids: Timed,
    pub train_s: Vec<f64>,
    pub detect_s: Vec<f64>,
    pub evaluate_s: Vec<f64>,
    /// Detections and evaluation of each campaign (its first detector pass).
    pub evals: Vec<(usize, FlowEvalReport)>,
}

pub struct SectionObs {
    pub wall_s: f64,
    /// `rayon::current_num_threads()` as seen inside each stage.
    pub widths: Vec<(&'static str, usize)>,
    pub gen_mem: GenMemObs,
    pub gen_store: GenStoreObs,
    pub veracity: VeracityObs,
    pub campaign: CampaignObs,
    pub serve: ServeObs,
}

impl SectionObs {
    /// The section's timed work with each call's repetitions counted at
    /// their median: what the section's wall would be had no repetition been
    /// unusually slow. The first section a process runs grows the heap and
    /// the second does not, so comparing two sections by their walls would
    /// charge that to whichever ran first.
    pub fn steady_s(&self) -> f64 {
        let at_median = |wall: &[f64]| median(wall) * wall.len() as f64;
        at_median(&self.gen_mem.pgpba.wall)
            + at_median(&self.gen_mem.pgsk.wall)
            + at_median(&self.gen_store.runs.wall)
            + at_median(&self.veracity.mem_wall)
            + at_median(&self.veracity.ooc_wall)
            + at_median(&self.campaign.runs.wall)
            + at_median(&self.campaign.ids.wall)
            + self.serve.wall_s
    }
}

pub fn run(
    plan: &Plan,
    seeds: &Seeds,
    inputs: &Inputs,
    work: &Path,
    checks: &mut Checks,
) -> Res<SectionObs> {
    let start = Instant::now();
    let mut widths = Vec::new();
    let (mut gen_mem, mut gen_store) = (GenMemObs::default(), GenStoreObs::default());
    let (mut veracity, mut campaign) = (VeracityObs::default(), CampaignObs::default());
    let mut session = serve::Session::start(plan, seeds, work)?;
    for round in 0..plan.rounds {
        let mut stage = |name: &'static str| {
            if round == 0 {
                widths.push((name, rayon::current_num_threads()));
            }
        };
        stage("gen_mem");
        for _ in 0..plan.due(round, plan.gen_mem.pgpba_reps) {
            pgpba_to_memory(plan, seeds, inputs, &mut gen_mem, checks)?;
        }
        for _ in 0..plan.due(round, plan.gen_mem.pgsk_reps) {
            pgsk_to_memory(plan, seeds, inputs, round, &mut gen_mem, checks)?;
        }
        stage("gen_store");
        for _ in 0..plan.due(round, plan.gen_store.reps) {
            pgpba_to_store(plan, seeds, inputs, work, &mut gen_store, checks)?;
        }
        stage("veracity_scan");
        for _ in 0..plan.due(round, plan.veracity.reps) {
            veracity_both_ways(inputs, &mut veracity, checks)?;
        }
        stage("campaign_ids");
        for _ in 0..plan.due(round, plan.campaign.reps) {
            campaign_to_detector(plan, seeds, round, work, &mut campaign, checks)?;
        }
        stage("serve_mixed");
        session.batch(round, plan, inputs)?;
    }
    let serve = session.finish(plan, inputs, checks)?;
    checks.check(gen_mem.pgpba_hashes.windows(2).all(|w| w[0] == w[1]), || {
        "gen_mem: pgpba repetitions of one seed differ".into()
    });
    Ok(SectionObs {
        wall_s: start.elapsed().as_secs_f64(),
        widths,
        gen_mem,
        gen_store,
        veracity,
        campaign,
        serve,
    })
}

fn pgpba_to_memory(
    plan: &Plan,
    seeds: &Seeds,
    inputs: &Inputs,
    obs: &mut GenMemObs,
    checks: &mut Checks,
) -> Res<()> {
    let edges = plan.gen_mem.edges;
    let cfg = PgpbaConfig { desired_size: edges, fraction: FRACTION, seed: seeds.pgpba };
    let (run, secs) =
        call("bench.core.genjob_pgpba", || GenJob::pgpba(&inputs.seed, cfg).timed().run());
    let run = run?;
    let _check = csb_obs::span_cat("bench.check.gen_mem", "bench");
    obs.pgpba.push(run.edges as f64, secs);
    obs.pgpba_timings.push(run.timings.ok_or("timed run returned no timings")?);
    obs.pgpba_hashes.push(graph_hash(run.graph.as_ref().ok_or("in-memory run returned no graph")?));
    checks.check(pgpba_size_ok(edges, run.edges), || {
        format!("gen_mem: pgpba asked for {edges} edges, made {}", run.edges)
    });
    checks.passed(1);
    Ok(())
}

/// Each repetition fits and expands under its own generator seed: KronFit's
/// cost depends on where it converges, and one seed would make the run's
/// number that seed's.
fn pgsk_to_memory(
    plan: &Plan,
    seeds: &Seeds,
    inputs: &Inputs,
    round: usize,
    obs: &mut GenMemObs,
    checks: &mut Checks,
) -> Res<()> {
    let edges = plan.gen_mem.edges;
    let cfg = PgskConfig { seed: derive_seed(seeds.pgsk, round as u64), ..PgskConfig::new(edges) };
    let seed = &inputs.pgsk_seeds[obs.pgsk.wall.len() % inputs.pgsk_seeds.len()];
    let (run, secs) = call("bench.core.genjob_pgsk", || GenJob::pgsk(seed, cfg).timed().run());
    let run = run?;
    let _check = csb_obs::span_cat("bench.check.gen_mem", "bench");
    obs.pgsk.push(run.edges as f64, secs);
    obs.pgsk_timings.push(run.timings.ok_or("timed run returned no timings")?);
    checks.check(pgsk_size_ok(edges, run.edges), || {
        format!("gen_mem: pgsk asked for {edges} edges, made {}", run.edges)
    });
    checks.passed(1);
    Ok(())
}

/// Bytes of a shard set: its manifest and every shard file.
pub fn shard_set_bytes(manifest: &Path) -> Res<u64> {
    let mut bytes = std::fs::metadata(manifest)?.len();
    for shard in ShardSetManifest::load(manifest)?.shard_paths(manifest) {
        bytes += std::fs::metadata(shard)?.len();
    }
    Ok(bytes)
}

pub fn remove_shard_set(manifest: &Path) {
    if let Ok(set) = ShardSetManifest::load(manifest) {
        for shard in set.shard_paths(manifest) {
            std::fs::remove_file(shard).ok();
        }
    }
    std::fs::remove_file(manifest).ok();
}

fn pgpba_to_store(
    plan: &Plan,
    seeds: &Seeds,
    inputs: &Inputs,
    work: &Path,
    obs: &mut GenStoreObs,
    checks: &mut Checks,
) -> Res<()> {
    let edges = plan.gen_store.edges;
    let want = match obs.reference {
        Some(hash) => hash,
        None => {
            // The same seed to memory: what every repetition's store must hold.
            let (reference, _) = call("bench.check.gen_store_reference", || {
                let cfg =
                    PgpbaConfig { desired_size: edges, fraction: FRACTION, seed: seeds.store };
                GenJob::pgpba(&inputs.seed, cfg).run()
            });
            let hash =
                graph_hash(reference?.graph.as_ref().ok_or("in-memory run returned no graph")?);
            *obs.reference.insert(hash)
        }
    };
    let path = work.join("gen-store.csbshards");
    let (run, secs) = call("bench.core.genjob_store", || {
        store_job(&inputs.seed, edges, seeds.store, &path).run()
    });
    let run = run?;
    let _check = csb_obs::span_cat("bench.check.gen_store", "bench");
    obs.runs.push(run.edges as f64, secs);
    obs.bytes = shard_set_bytes(&path)?;
    checks.check(pgpba_size_ok(edges, run.edges), || {
        format!("gen_store: asked for {edges} edges, made {}", run.edges)
    });
    let reloaded = csb_store::load_graph_sharded(&path)?;
    checks
        .check(reloaded.edge_count() as u64 == run.edges && graph_hash(&reloaded) == want, || {
            "gen_store: the shard set reloads to a graph unlike the in-memory run".into()
        });
    checks.passed(1);
    remove_shard_set(&path);
    Ok(())
}

fn veracity_both_ways(inputs: &Inputs, obs: &mut VeracityObs, checks: &mut Checks) -> Res<()> {
    let (mem, secs) = call("bench.core.veracity_mem", || {
        VeracityJob::new()
            .seed_graph(&inputs.seed.graph)
            .synthetic_graph(&inputs.veracity_graph)
            .metrics(Metric::ALL)
            .run()
    });
    let mem = mem?;
    obs.mem_wall.push(secs);
    // Stores are opened inside the timed region.
    let (ooc, secs) = call("bench.core.veracity_ooc", || {
        VeracityJob::new()
            .seed_store(&inputs.seed_store)
            .synthetic_store(&inputs.veracity_store)
            .metrics(Metric::ALL)
            .run()
    });
    let ooc = ooc?;
    obs.ooc_wall.push(secs);
    for m in Metric::ALL {
        let (a, b) = (mem.score(m.name()), ooc.score(m.name()));
        checks.check(a.is_some() && a.map(f64::to_bits) == b.map(f64::to_bits), || {
            format!("veracity: {} scores {a:?} in memory, {b:?} out of core", m.name())
        });
    }
    for (metric, ceiling) in
        [("degree", DEGREE_SCORE_CEILING), ("pagerank", PAGERANK_SCORE_CEILING)]
    {
        let score = mem.score(metric);
        checks.check(score.is_some_and(|s| s < ceiling), || {
            format!("veracity: {metric} score {score:?} is not under {ceiling:e}")
        });
    }
    checks.passed(2);
    Ok(())
}

/// Splits labeled flows the way the reference evaluation does: thresholds
/// are trained on the benign slice, the detector sees everything.
pub fn benign_and_all(flows: &[csb_net::LabeledFlow]) -> (Vec<FlowRecord>, Vec<FlowRecord>) {
    let benign = flows.iter().filter(|f| !f.label.is_attack()).map(|f| f.flow).collect();
    let all = flows.iter().map(|f| f.flow).collect();
    (benign, all)
}

/// One campaign to its labeled-flow store, then the detector over that
/// store. Each repetition simulates under its own seed, so the run's number
/// is not one capture's.
fn campaign_to_detector(
    plan: &Plan,
    seeds: &Seeds,
    round: usize,
    work: &Path,
    obs: &mut CampaignObs,
    checks: &mut Checks,
) -> Res<()> {
    let size = plan.campaign;
    let seed = derive_seed(seeds.campaign, round as u64);
    let path = work.join("campaign.csbshards");
    let mut job = CampaignJob::new()
        .sim(sim_config(seed, size.duration_secs, size.sessions_per_sec))
        .workers(plan.threads)
        .store(&path)
        .shards(STORE_SHARDS)
        .compression(Compression::Columnar);
    for cfg in campaign_configs(seed, size.duration_secs) {
        job = job.campaign(cfg);
    }
    let (outcome, secs) = call("bench.core.campaign_job", || job.run());
    let outcome = outcome?;
    obs.runs.push(outcome.packets as f64, secs);
    let actions: usize = outcome.runs.iter().map(|r| r.actions.len()).sum();
    checks.check(outcome.labeled_flows == actions && actions > 0, || {
        format!("campaign: {} labeled flows for {actions} actions", outcome.labeled_flows)
    });

    for pass in 0..size.ids_per_rep {
        let (flows, load_s) =
            call("bench.store.load_labeled_flows", || csb_store::load_labeled_flows(&path));
        let flows = flows?;
        let ((benign, all), split_s) = call("bench.check.split_flows", || benign_and_all(&flows));
        let (thresholds, train_s) = call("bench.ids.train", || csb_ids::train_thresholds(&benign));
        let (detections, detect_s) =
            call("bench.ids.detect", || csb_ids::detect(&all, &thresholds));
        let (eval, evaluate_s) =
            call("bench.ids.evaluate", || csb_ids::evaluate_flows(&flows, &detections));
        obs.ids.push(flows.len() as f64, load_s + split_s + train_s + detect_s + evaluate_s);
        obs.train_s.push(train_s);
        obs.detect_s.push(detect_s);
        obs.evaluate_s.push(evaluate_s);
        if pass == 0 {
            checks.check(flows == outcome.flows, || {
                "campaign: the store loads back to other flows than the job returned".into()
            });
            obs.evals.push((detections.len(), eval));
        }
    }
    checks.passed(1 + size.ids_per_rep as u64);
    remove_shard_set(&path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_rules() {
        assert!(pgpba_size_ok(1000, 1000) && pgpba_size_ok(1000, 1500));
        assert!(!pgpba_size_ok(1000, 999) && !pgpba_size_ok(1000, 1501));
        assert!(pgsk_size_ok(1000, 500) && pgsk_size_ok(1000, 2000));
        assert!(!pgsk_size_ok(1000, 499) && !pgsk_size_ok(1000, 2001));
    }

    #[test]
    fn rates_are_per_repetition() {
        let mut t = Timed::default();
        t.push(10.0, 2.0);
        t.push(9.0, 3.0);
        assert_eq!(t.rates(), [5.0, 3.0]);
    }
}
