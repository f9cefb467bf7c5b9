//! Instrumentation must be a pure observer: collecting spans/counters may
//! never perturb generator output (the probes touch no RNG stream), and a
//! disabled collector must cost no more than a relaxed atomic load per site.

use csb_core::{
    pgpba, pgsk, seed_from_trace, CampaignJob, GenJob, Metric, PgpbaConfig, PgskConfig, SeedBundle,
    VeracityJob,
};
use csb_graph::algo::SpectralConfig;
use csb_graph::NetflowGraph;
use csb_net::traffic::campaign::CampaignConfig;
use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
use std::time::{Duration, Instant};

fn small_seed() -> SeedBundle {
    let trace = TrafficSim::new(TrafficSimConfig {
        duration_secs: 12.0,
        sessions_per_sec: 18.0,
        seed: 2024,
        ..TrafficSimConfig::default()
    })
    .generate();
    seed_from_trace(&trace)
}

fn pgpba_cfg() -> PgpbaConfig {
    PgpbaConfig { desired_size: 4_000, fraction: 0.5, seed: 97 }
}

/// FNV-1a over vertices, endpoints, and every property field.
fn fingerprint(g: &NetflowGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(g.vertex_count() as u64);
    for &ip in g.vertex_data() {
        mix(ip as u64);
    }
    for (_, s, d, p) in g.edges() {
        mix(s.0 as u64);
        mix(d.0 as u64);
        mix(p.src_port as u64);
        mix(p.dst_port as u64);
        mix(p.out_bytes);
        mix(p.in_bytes);
        mix(p.duration_ms);
    }
    h
}

#[test]
fn instrumented_output_is_bit_identical_to_uninstrumented() {
    let _guard = csb_obs::span::test_lock();
    let seed = small_seed();
    let pgsk_cfg = PgskConfig {
        desired_size: 3_000,
        seed: 11,
        kronfit_iterations: 8,
        kronfit_permutation_samples: 200,
    };

    csb_obs::reset();
    csb_obs::disable();
    let off = (fingerprint(&pgpba(&seed, &pgpba_cfg())), fingerprint(&pgsk(&seed, &pgsk_cfg)));
    assert!(csb_obs::flush_spans().is_empty(), "disabled collector must record nothing");

    csb_obs::enable();
    let on = (fingerprint(&pgpba(&seed, &pgpba_cfg())), fingerprint(&pgsk(&seed, &pgsk_cfg)));
    let spans = csb_obs::flush_spans();
    csb_obs::disable();
    csb_obs::reset();

    assert_eq!(off, on, "collector state must not change generator output");
    assert!(spans.iter().any(|s| s.name == "pgpba.grow"), "grow span collected");
    assert!(spans.iter().any(|s| s.name == "attach"), "attach span collected");
    assert!(spans.iter().any(|s| s.name == "attach.chunk"), "per-worker spans collected");
}

#[test]
fn disabled_collector_overhead_smoke() {
    let _guard = csb_obs::span::test_lock();
    let seed = small_seed();
    let cfg = pgpba_cfg();
    let best_of = |runs: usize, f: &dyn Fn()| {
        let mut best = Duration::MAX;
        for _ in 0..runs {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed());
        }
        best
    };

    csb_obs::reset();
    csb_obs::disable();
    let disabled = best_of(3, &|| {
        let run = GenJob::pgpba(&seed, cfg).timed().run().expect("run");
        assert!(run.edges >= 4_000);
        assert!(run.timings.expect("timings").total() > Duration::ZERO);
    });
    assert!(csb_obs::flush_spans().is_empty());

    csb_obs::enable();
    let enabled = best_of(3, &|| {
        let run = GenJob::pgpba(&seed, cfg).timed().run().expect("run");
        assert!(run.edges >= 4_000);
    });
    csb_obs::disable();
    csb_obs::reset();

    // Smoke bound, deliberately loose for CI noise: the disabled path (one
    // relaxed load per probe) must not be meaningfully slower than the
    // enabled path, which does strictly more work.
    assert!(
        disabled < enabled * 2 + Duration::from_millis(250),
        "disabled collector should be at least as fast: disabled {disabled:?} vs enabled {enabled:?}"
    );
}

/// Spans say what ran: an in-memory veracity job does no out-of-core work,
/// so it records nothing under the `ooc` category; the same job over two
/// stores records the streaming sketch once a side and counts every edge
/// scan its power iteration made.
#[test]
fn veracity_job_records_ooc_spans_only_over_stores() {
    let seed = small_seed();
    let synth = pgpba(&seed, &pgpba_cfg());

    let rec = csb_obs::Recorder::new();
    VeracityJob::new()
        .seed_graph(&seed.graph)
        .synthetic_graph(&synth)
        .metrics(Metric::ALL)
        .recorder(rec.clone())
        .run()
        .expect("in-memory job");
    let spans = rec.flush_spans();
    assert!(spans.iter().any(|s| s.name == "veracity.metric.spectral"), "the job was recorded");
    let ooc: Vec<&str> = spans.iter().filter(|s| s.cat == "ooc").map(|s| s.name).collect();
    assert!(ooc.is_empty(), "in-memory job recorded out-of-core spans: {ooc:?}");
    assert_eq!(rec.snapshot_metrics().counter("ooc.spectral_matvecs").unwrap_or(0), 0);

    let dir = std::env::temp_dir().join(format!("csb-obs-veracity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (a, b) = (dir.join("seed.csb"), dir.join("synth.csb"));
    csb_store::save_graph(&a, &seed.graph).expect("save seed");
    csb_store::save_graph(&b, &synth).expect("save synth");
    let rec = csb_obs::Recorder::new();
    VeracityJob::new()
        .seed_store(&a)
        .synthetic_store(&b)
        .metrics(Metric::ALL)
        .recorder(rec.clone())
        .run()
        .expect("store job");
    std::fs::remove_dir_all(&dir).ok();
    let sketches = rec.flush_spans().iter().filter(|s| s.name == "ooc.spectral").count();
    assert_eq!(sketches, 2, "one streaming sketch a side");
    let cfg = SpectralConfig::default();
    let matvecs =
        |g: &NetflowGraph| (cfg.eigenvalues.min(g.vertex_count()) * (cfg.iterations + 1)) as u64;
    assert_eq!(
        rec.snapshot_metrics().counter("ooc.spectral_matvecs"),
        Some(matvecs(&seed.graph) + matvecs(&synth))
    );
}

/// A campaign job's telemetry says the same thing however its assembly is
/// partitioned: the partition tasks run on pool threads, re-install the job's
/// recorder there, and add up to the sequential counts.
#[test]
fn campaign_job_counts_the_same_at_every_worker_count() {
    let _guard = csb_obs::span::test_lock();
    csb_obs::disable();
    csb_obs::reset();
    let record = |workers: usize| {
        let rec = csb_obs::Recorder::new();
        let job = CampaignJob::new()
            .duration_secs(20.0)
            .sessions_per_sec(12.0)
            .seed(5)
            .campaign(CampaignConfig::kill_chain(1, 5, 2.0))
            .workers(workers)
            .recorder(rec.clone());
        // Published rayon moves `install`'s closure to a pool thread, so the
        // job must carry its recorder there itself.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
        let out = pool.install(|| job.run()).expect("run");
        let spans = rec.flush_spans();
        for name in ["traffic.generate", "campaignjob.run"] {
            let times = spans.iter().filter(|s| s.name == name).count();
            assert_eq!(times, 1, "{name} at workers={workers}");
        }
        let snap = rec.snapshot_metrics();
        let counts = [
            "traffic.sessions",
            "traffic.packets",
            "assembler.flows",
            "campaign.job.flows",
            "campaign.labeled_flows",
        ]
        .map(|name| snap.counter(name).unwrap_or_else(|| panic!("{name} not counted")));
        assert_eq!(counts[1], out.packets as u64 - out.runs[0].trace.len() as u64);
        assert_eq!(counts[2..4], [out.flows.len() as u64; 2]);
        assert_eq!(counts[4], out.labeled_flows as u64);
        counts
    };
    assert_eq!(record(1), record(4));
    assert!(csb_obs::flush_spans().is_empty(), "global recorder caught scoped spans");
    assert!(csb_obs::snapshot_metrics().counters.is_empty(), "global recorder caught metrics");
}
