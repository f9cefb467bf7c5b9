//! What one run does: the five workloads, the frozen sizes, and the inputs
//! derived from the workload seed.
//!
//! The driver's contract has every run print every end-to-end metric, so
//! every run drives all five stages of the pipeline; the workload decides
//! which stage runs at its full (`Main`) size, and the other four run at a
//! reduced (`Side`) size (README, "Every run drives all five stages, at two
//! sizes", says why two and not one). The section is a sequence of rounds, and a stage's
//! repetitions are spread evenly over them, at most one a round for most
//! stages. The sandbox's speed shifts by a tenth or more for a second or two
//! at a time; repetitions run back to back would sample one such phase, and
//! repetitions a round apart each sample their own, so the median over them
//! is the run's, not a phase's. Sizes and repetition counts are constants:
//! they depend on `--seconds` (which scales rounds and repetitions
//! proportionally) and never on how fast the machine is.

use csb_net::traffic::campaign::{CampaignConfig, StageKind, StageParams};
use csb_net::traffic::sim::TrafficSimConfig;
use csb_stats::rng::derive_seed;

/// `run_seconds` of `BENCHMARK.json`: the repetition counts below are tuned
/// so the measured section of each workload takes about this long at pool
/// width 2 (11 to 15 s on the sandbox this was written in, a few more with
/// set-up and on a busy host).
pub const RUN_SECONDS: u64 = 14;

/// Rounds of the measured section at [`RUN_SECONDS`]; about a second each.
pub const ROUNDS: usize = 14;

/// Pool width is `min(nproc, MAX_THREADS)`; clients and connections never
/// exceed it.
pub const MAX_THREADS: usize = 4;

/// Shards and codec of every sharded store the benchmark writes.
pub const STORE_SHARDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GenMem,
    GenStore,
    VeracityScan,
    CampaignIds,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::GenMem,
        Workload::GenStore,
        Workload::VeracityScan,
        Workload::CampaignIds,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GenMem => "gen_mem",
            Workload::GenStore => "gen_store",
            Workload::VeracityScan => "veracity_scan",
            Workload::CampaignIds => "campaign_ids",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which frozen size table a stage uses in this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Main,
    Side,
    Smoke,
}

#[derive(Debug, Clone, Copy)]
pub struct GenMemSize {
    pub edges: u64,
    pub pgpba_reps: usize,
    pub pgsk_reps: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct GenStoreSize {
    pub edges: u64,
    pub reps: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct VeracitySize {
    pub edges: u64,
    pub reps: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct CampaignSize {
    pub duration_secs: f64,
    pub sessions_per_sec: f64,
    pub reps: usize,
    /// Passes of load -> train -> detect -> evaluate over each campaign's store.
    pub ids_per_rep: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct ServeSize {
    pub jobs: usize,
}

impl GenMemSize {
    const fn at(scale: Scale) -> Self {
        match scale {
            Scale::Main => GenMemSize { edges: 1_000_000, pgpba_reps: 14, pgsk_reps: 9 },
            Scale::Side => GenMemSize { edges: 250_000, pgpba_reps: 14, pgsk_reps: 9 },
            Scale::Smoke => GenMemSize { edges: 20_000, pgpba_reps: 2, pgsk_reps: 2 },
        }
    }
}

impl GenStoreSize {
    const fn at(scale: Scale) -> Self {
        match scale {
            Scale::Main => GenStoreSize { edges: 500_000, reps: 8 },
            Scale::Side => GenStoreSize { edges: 100_000, reps: 9 },
            Scale::Smoke => GenStoreSize { edges: 20_000, reps: 2 },
        }
    }
}

impl VeracitySize {
    const fn at(scale: Scale) -> Self {
        match scale {
            Scale::Main => VeracitySize { edges: 300_000, reps: 7 },
            Scale::Side => VeracitySize { edges: 100_000, reps: 14 },
            Scale::Smoke => VeracitySize { edges: 20_000, reps: 1 },
        }
    }
}

impl CampaignSize {
    const fn at(scale: Scale) -> Self {
        match scale {
            Scale::Main => CampaignSize {
                duration_secs: 300.0,
                sessions_per_sec: 100.0,
                reps: 14,
                ids_per_rep: 2,
            },
            Scale::Side => CampaignSize {
                duration_secs: 200.0,
                sessions_per_sec: 50.0,
                reps: 14,
                ids_per_rep: 3,
            },
            Scale::Smoke => CampaignSize {
                duration_secs: 60.0,
                sessions_per_sec: 20.0,
                reps: 1,
                ids_per_rep: 2,
            },
        }
    }
}

impl ServeSize {
    const fn at(scale: Scale) -> Self {
        match scale {
            Scale::Main => ServeSize { jobs: 400 },
            Scale::Side => ServeSize { jobs: 126 },
            Scale::Smoke => ServeSize { jobs: 20 },
        }
    }
}

/// Sizes of the inputs every run sets up, and of the traced pass's probes.
#[derive(Debug, Clone, Copy)]
pub struct FixedSizes {
    /// Seed trace: simulated seconds and session rate.
    pub seed_duration_secs: f64,
    pub seed_sessions_per_sec: f64,
    /// Flows of the seed trace that make the (smaller) seed graph served
    /// jobs grow from, so a 2k-edge job still generates.
    pub serve_seed_flows: usize,
    /// Edges of the store the served veracity jobs score.
    pub serve_veracity_edges: u64,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Edges of the single-layer probes of the traced pass, and how often
    /// each probe is repeated (it reports the median).
    pub probe_edges: u64,
    pub probe_reps: usize,
    /// `PropertyModel::sample` draws of `stats.property_sample_ns`.
    pub sample_draws: usize,
    /// Round trips of `serve.ping_rtt_us_p50`.
    pub pings: usize,
}

impl FixedSizes {
    const fn at(smoke: bool) -> Self {
        if smoke {
            FixedSizes {
                seed_duration_secs: 20.0,
                seed_sessions_per_sec: 30.0,
                serve_seed_flows: 300,
                serve_veracity_edges: 5_000,
                setup_reps: 2,
                probe_edges: 20_000,
                probe_reps: 2,
                sample_draws: 50_000,
                pings: 20,
            }
        } else {
            FixedSizes {
                seed_duration_secs: 60.0,
                seed_sessions_per_sec: 60.0,
                serve_seed_flows: 1000,
                serve_veracity_edges: 50_000,
                setup_reps: 5,
                probe_edges: 200_000,
                probe_reps: 3,
                sample_draws: 1_000_000,
                pings: 200,
            }
        }
    }
}

/// Everything one process needs to know about its run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub traced: bool,
    pub threads: usize,
    /// Rounds of the measured section; no stage repeats more often.
    pub rounds: usize,
    pub gen_mem: GenMemSize,
    pub gen_store: GenStoreSize,
    pub veracity: VeracitySize,
    pub campaign: CampaignSize,
    pub serve: ServeSize,
    pub fixed: FixedSizes,
}

/// A count at `--seconds`, relative to the frozen count at [`RUN_SECONDS`].
/// The traced pass does a third: its numbers carry no bound, and it runs the
/// section twice (once untraced, for `obs.overhead`).
fn scaled(count: usize, seconds: u64, traced: bool, floor: usize) -> usize {
    let mut n = count as f64 * seconds as f64 / RUN_SECONDS as f64;
    if traced {
        n /= 3.0;
    }
    (n.round() as usize).max(floor)
}

impl Plan {
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: u64,
        smoke: bool,
        traced: bool,
        threads: usize,
    ) -> Plan {
        let scale_of = |stage: Workload| match (smoke, stage == workload) {
            (true, _) => Scale::Smoke,
            (false, true) => Scale::Main,
            (false, false) => Scale::Side,
        };
        let reps = |count: usize| scaled(count, seconds, traced, 1);
        let gen_mem = GenMemSize::at(scale_of(Workload::GenMem));
        let gen_store = GenStoreSize::at(scale_of(Workload::GenStore));
        let veracity = VeracitySize::at(scale_of(Workload::VeracityScan));
        let campaign = CampaignSize::at(scale_of(Workload::CampaignIds));
        let serve = ServeSize::at(scale_of(Workload::ServeMixed));
        let gen_mem = GenMemSize {
            pgpba_reps: reps(gen_mem.pgpba_reps),
            pgsk_reps: reps(gen_mem.pgsk_reps),
            ..gen_mem
        };
        let gen_store = GenStoreSize { reps: reps(gen_store.reps), ..gen_store };
        let veracity = VeracitySize { reps: reps(veracity.reps), ..veracity };
        let campaign = CampaignSize { reps: reps(campaign.reps), ..campaign };
        // Enough jobs that the job mix keeps one of every class.
        let serve = ServeSize { jobs: scaled(serve.jobs, seconds, traced, 20) };
        let rounds = reps(if smoke { 2 } else { ROUNDS });
        Plan {
            workload,
            seed,
            seconds,
            smoke,
            traced,
            threads,
            rounds,
            gen_mem,
            gen_store,
            veracity,
            campaign,
            serve,
            fixed: FixedSizes::at(smoke),
        }
    }

    /// How many of a stage's `reps` repetitions run in `round`: they are
    /// spread evenly over the rounds.
    pub fn due(&self, round: usize, reps: usize) -> usize {
        (round + 1) * reps / self.rounds - round * reps / self.rounds
    }

    /// `max(1, threads / 2)` daemon workers, so the `threads` closed-loop
    /// clients outnumber them and queue wait is visible.
    pub fn serve_workers(&self) -> usize {
        (self.threads / 2).max(1)
    }
}

/// The streams the workload seed is split into; the program under test sees
/// only what these produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub seed_trace: u64,
    pub pgpba: u64,
    pub pgsk: u64,
    pub store: u64,
    pub veracity: u64,
    pub campaign: u64,
    pub serve: u64,
    pub probe: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        Seeds {
            seed_trace: derive_seed(seed, 1),
            pgpba: derive_seed(seed, 2),
            pgsk: derive_seed(seed, 3),
            store: derive_seed(seed, 4),
            veracity: derive_seed(seed, 5),
            campaign: derive_seed(seed, 6),
            serve: derive_seed(seed, 7),
            probe: derive_seed(seed, 8),
        }
    }
}

/// The benign-traffic simulator configuration behind a trace.
pub fn sim_config(seed: u64, duration_secs: f64, sessions_per_sec: f64) -> TrafficSimConfig {
    TrafficSimConfig { duration_secs, sessions_per_sec, seed, ..TrafficSimConfig::default() }
}

/// The two kill chains of the campaign stage: a loud one (stealth 0,
/// intensity 6) starting a tenth into the capture, and one at the default
/// stealth starting halfway.
pub fn campaign_configs(seed: u64, duration_secs: f64) -> Vec<CampaignConfig> {
    let loud = StageKind::ALL
        .iter()
        .map(|&kind| StageParams { intensity: 6.0, stealth: 0.0, ..StageParams::nominal(kind) })
        .collect();
    vec![
        CampaignConfig {
            id: 1,
            seed: derive_seed(seed, 0xCA01),
            start_secs: duration_secs * 0.1,
            stages: loud,
        },
        CampaignConfig::kill_chain(2, derive_seed(seed, 0xCA02), duration_secs * 0.5),
    ]
}

/// One class of served job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JobClass {
    /// 2k-edge generation, single raw file.
    Small,
    /// 20k-edge generation, single raw file.
    Medium,
    /// 100k-edge generation, 4 columnar shards.
    Large,
    /// Degree + PageRank veracity of a fixed store against the seed store.
    Veracity,
}

impl JobClass {
    /// Shares of the mix, in percent.
    pub const MIX: [(JobClass, usize); 4] = [
        (JobClass::Small, 65),
        (JobClass::Medium, 20),
        (JobClass::Large, 5),
        (JobClass::Veracity, 10),
    ];

    pub fn name(self) -> &'static str {
        match self {
            JobClass::Small => "small",
            JobClass::Medium => "medium",
            JobClass::Large => "large",
            JobClass::Veracity => "veracity",
        }
    }

    /// Requested edges of a generation job; `None` for veracity.
    pub fn edges(self, smoke: bool) -> Option<u64> {
        let full = match self {
            JobClass::Small => 2_000,
            JobClass::Medium => 20_000,
            JobClass::Large => 100_000,
            JobClass::Veracity => return None,
        };
        Some(if smoke { full / 10 } else { full })
    }
}

/// One job of the serve stage: its class and the generator seed it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobDraw {
    pub class: JobClass,
    pub seed: u64,
}

/// The serve stage's job list. The class counts are the exact shares of
/// [`JobClass::MIX`] (remainder to `Small`) and the classes are interleaved
/// evenly, the same way for every seed: every batch of a run and every seed
/// send the same sequence of classes, so which job queues behind which does
/// not change with the seed. The seed gives each job its generator seed.
pub fn job_mix(seed: u64, jobs: usize) -> Vec<JobDraw> {
    let mut left: Vec<(JobClass, usize)> = JobClass::MIX
        .into_iter()
        .skip(1)
        .map(|(class, percent)| (class, (jobs * percent / 100).max(1)))
        .collect();
    let others: usize = left.iter().map(|(_, n)| n).sum();
    left.insert(0, (JobClass::Small, jobs.saturating_sub(others)));
    let totals: Vec<usize> = left.iter().map(|(_, n)| *n).collect();
    (0..jobs)
        .map(|i| {
            // The class furthest behind its even share of the first i + 1 jobs.
            let (slot, _) = left
                .iter()
                .enumerate()
                .filter(|(_, (_, n))| *n > 0)
                .map(|(slot, (_, n))| {
                    let sent = totals[slot] - n;
                    (slot, (i + 1) as f64 * totals[slot] as f64 / jobs as f64 - sent as f64)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("class counts add up to the job count");
            left[slot].1 -= 1;
            JobDraw { class: left[slot].0, seed: derive_seed(seed, 0x10_0000 + i as u64) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_a_pure_function_of_the_seed() {
        let a = job_mix(11, 400);
        assert_eq!(a, job_mix(11, 400));
        let b = job_mix(12, 400);
        assert!(a.iter().zip(&b).all(|(x, y)| x.class == y.class && x.seed != y.seed));
        let count = |mix: &[JobDraw], c| mix.iter().filter(|j| j.class == c).count();
        for mix in [&a, &job_mix(12, 400)] {
            assert_eq!(mix.len(), 400);
            assert_eq!(count(mix, JobClass::Small), 260);
            assert_eq!(count(mix, JobClass::Medium), 80);
            assert_eq!(count(mix, JobClass::Large), 20);
            assert_eq!(count(mix, JobClass::Veracity), 40);
        }
    }

    #[test]
    fn classes_are_interleaved_evenly() {
        let mix = job_mix(1, 400);
        // 5 % large: one in every stretch of twenty.
        for stretch in mix.chunks(20) {
            assert_eq!(stretch.iter().filter(|j| j.class == JobClass::Large).count(), 1);
            assert_eq!(stretch.iter().filter(|j| j.class == JobClass::Small).count(), 13);
        }
    }

    #[test]
    fn small_mixes_keep_every_class() {
        let mix = job_mix(3, 20);
        for (class, _) in JobClass::MIX {
            assert!(mix.iter().any(|j| j.class == class), "{class:?} missing");
        }
    }

    #[test]
    fn campaign_and_sim_configs_are_pure_functions_of_the_seed() {
        let key = |cfgs: &[CampaignConfig]| {
            cfgs.iter()
                .map(|c| (c.id, c.seed, c.start_secs.to_bits(), c.stages.len()))
                .collect::<Vec<_>>()
        };
        let a = campaign_configs(5, 600.0);
        assert_eq!(key(&a), key(&campaign_configs(5, 600.0)));
        assert_ne!(key(&a), key(&campaign_configs(6, 600.0)));
        assert_eq!(a.len(), 2);
        assert!(a[0].stages.iter().all(|s| s.stealth == 0.0 && s.intensity == 6.0));
        let nominal = StageParams::nominal(StageKind::Recon);
        assert_eq!(a[1].stages[0].stealth, nominal.stealth);
        assert_eq!(sim_config(9, 60.0, 50.0).seed, 9);
        assert_eq!(Seeds::derive(4), Seeds::derive(4));
        assert_ne!(Seeds::derive(4), Seeds::derive(5));
    }

    #[test]
    fn repetitions_scale_with_seconds_and_never_reach_zero() {
        let full = Plan::new(Workload::GenMem, 1, RUN_SECONDS, false, false, 2);
        assert_eq!(full.rounds, ROUNDS);
        assert_eq!(full.gen_mem.pgpba_reps, GenMemSize::at(Scale::Main).pgpba_reps);
        assert_eq!(full.gen_store.edges, GenStoreSize::at(Scale::Side).edges);
        let half = Plan::new(Workload::GenMem, 1, RUN_SECONDS / 2, false, false, 2);
        assert_eq!(half.gen_mem.pgpba_reps, full.gen_mem.pgpba_reps / 2);
        assert_eq!(half.gen_mem.edges, full.gen_mem.edges, "edges never scale");
        let tiny = Plan::new(Workload::ServeMixed, 1, 1, false, true, 2);
        assert!(tiny.gen_store.reps >= 1 && tiny.veracity.reps >= 1 && tiny.serve.jobs >= 20);
        assert!(tiny.rounds >= 1);
    }

    #[test]
    fn repetitions_are_spread_over_the_rounds() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 1, RUN_SECONDS, false, false, 2);
            for reps in [plan.gen_mem.pgpba_reps, plan.gen_store.reps, plan.veracity.reps, 1] {
                let ran: usize = (0..plan.rounds).map(|r| plan.due(r, reps)).sum();
                assert_eq!(ran, reps, "{reps} repetitions over {} rounds", plan.rounds);
            }
        }
        let plan = Plan::new(Workload::GenStore, 1, RUN_SECONDS, false, false, 2);
        let due = |reps| (0..ROUNDS).map(|r| plan.due(r, reps)).collect::<Vec<_>>();
        assert_eq!(due(ROUNDS), [1; ROUNDS]);
        assert_eq!(due(ROUNDS / 2)[..4], [0, 1, 0, 1], "every other round, not the first half");
        assert_eq!(due(2 * ROUNDS), [2; ROUNDS]);
    }
}
