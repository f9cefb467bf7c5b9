//! Scoped-recorder contract at the GenJob level: concurrent jobs handed
//! separate recorders must produce disjoint telemetry (no cross-job
//! contamination, nothing leaking onto the global recorder), and scoping
//! telemetry must never change the bytes a store run writes.

use csb_core::{seed_from_trace, DistConfig, GenJob, PgpbaConfig, SeedBundle};
use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
use std::path::PathBuf;

fn small_seed(sim_seed: u64) -> SeedBundle {
    let trace = TrafficSim::new(TrafficSimConfig {
        duration_secs: 10.0,
        sessions_per_sec: 15.0,
        seed: sim_seed,
        ..TrafficSimConfig::default()
    })
    .generate();
    seed_from_trace(&trace)
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("csb-rec-iso-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

#[test]
fn concurrent_jobs_on_separate_recorders_stay_disjoint() {
    let _guard = csb_obs::span::test_lock();
    csb_obs::disable();
    csb_obs::reset();

    let rec_a = csb_obs::Recorder::new();
    let rec_b = csb_obs::Recorder::new();
    let (ra, rb) = (rec_a.clone(), rec_b.clone());
    let (edges_a, edges_b) = std::thread::scope(|s| {
        let a = s.spawn(move || {
            let seed = small_seed(31);
            GenJob::pgpba(&seed, PgpbaConfig { desired_size: 3_000, fraction: 0.5, seed: 5 })
                .recorder(ra)
                .job_id("job-a")
                .run()
                .expect("job a")
                .edges
        });
        let b = s.spawn(move || {
            let seed = small_seed(32);
            GenJob::pgpba(&seed, PgpbaConfig { desired_size: 5_000, fraction: 0.5, seed: 6 })
                .recorder(rb)
                .job_id("job-b")
                .run()
                .expect("job b")
                .edges
        });
        (a.join().expect("thread a"), b.join().expect("thread b"))
    });

    // Each recorder saw exactly its own job's edges...
    let snap_a = rec_a.snapshot_metrics();
    let snap_b = rec_b.snapshot_metrics();
    assert_eq!(snap_a.counter("attach.edges"), Some(edges_a));
    assert_eq!(snap_b.counter("attach.edges"), Some(edges_b));
    assert_ne!(edges_a, edges_b, "jobs were sized apart on purpose");

    // ...its own spans (including per-chunk spans from rayon workers)...
    let spans_a = rec_a.flush_spans();
    let spans_b = rec_b.flush_spans();
    for (label, spans) in [("a", &spans_a), ("b", &spans_b)] {
        assert!(spans.iter().any(|s| s.name == "genjob.run"), "job {label} run span");
        assert!(spans.iter().any(|s| s.name == "attach.chunk"), "job {label} chunk spans");
    }

    // ...and its own status board, finished with its own identity.
    let st_a = rec_a.status().snapshot();
    let st_b = rec_b.status().snapshot();
    assert_eq!(st_a.job_id, "job-a");
    assert_eq!(st_b.job_id, "job-b");
    assert!(st_a.done && st_b.done);
    assert_eq!(st_a.edges_done, edges_a);
    assert_eq!(st_b.edges_done, edges_b);
    assert_eq!(st_a.phase, "done");

    // Nothing leaked onto the (disabled) global recorder.
    assert!(csb_obs::flush_spans().is_empty(), "global recorder caught scoped spans");
    assert!(csb_obs::snapshot_metrics().counters.is_empty(), "global recorder caught metrics");
}

/// The engine path crosses two thread boundaries — the per-run pool's
/// `install` and the per-partition tasks inside it — and re-installs the
/// job's recorder at both. Under the sandbox's stand-in rayon `install` stays
/// on the calling thread, so the first boundary only bites against the
/// published crate, i.e. in CI.
#[test]
fn distributed_job_lands_engine_spans_on_its_recorder() {
    let _guard = csb_obs::span::test_lock();
    csb_obs::disable();
    csb_obs::reset();
    let seed = small_seed(35);
    let rec = csb_obs::Recorder::new();
    let cfg = PgpbaConfig { desired_size: seed.edge_count() as u64 * 2, fraction: 0.5, seed: 8 };
    GenJob::pgpba(&seed, cfg)
        .distributed(DistConfig::default())
        .recorder(rec.clone())
        .run()
        .expect("distributed run");

    let spans = rec.flush_spans();
    for name in ["pgpba.distributed", "engine.partition"] {
        assert!(spans.iter().any(|s| s.name == name), "{name} missing from the job's recorder");
    }
    assert!(rec.snapshot_metrics().counter("engine.ops").is_some_and(|n| n > 0));
    assert!(csb_obs::flush_spans().is_empty(), "global recorder caught scoped spans");
    assert!(csb_obs::snapshot_metrics().counters.is_empty(), "global recorder caught metrics");
}

#[test]
fn scoped_telemetry_store_run_is_bit_identical_to_telemetry_off() {
    let _guard = csb_obs::span::test_lock();
    csb_obs::disable();
    csb_obs::reset();
    let seed = small_seed(33);
    let cfg = PgpbaConfig { desired_size: 4_000, fraction: 0.5, seed: 9 };
    let dir = temp_dir("bytes");
    let off_path = dir.join("off.csbstore");
    let on_path = dir.join("on.csbstore");

    GenJob::pgpba(&seed, cfg).store(&off_path).shards(3).run().expect("telemetry off");

    let rec = csb_obs::Recorder::new();
    let run = GenJob::pgpba(&seed, cfg)
        .store(&on_path)
        .shards(3)
        .recorder(rec.clone())
        .run()
        .expect("telemetry scoped");

    // The scoped run actually recorded (it went through the sharded writer
    // threads and the status board)...
    let snap = rec.snapshot_metrics();
    assert_eq!(snap.counter("store.edge_records_written"), Some(run.edges));
    let st = rec.status().snapshot();
    assert!(st.chunks_closed > 0, "chunk closes reach the scoped board");
    assert!(st.done);

    // ...and every shard byte matches the silent run (extends the PR 2
    // on-vs-off guarantee to the scoped path).
    for i in 0..3 {
        let off_shard = dir.join(format!("off.csbstore.s{i}"));
        let on_shard = dir.join(format!("on.csbstore.s{i}"));
        assert_eq!(
            std::fs::read(&off_shard).expect("read off shard"),
            std::fs::read(&on_shard).expect("read on shard"),
            "telemetry changed shard {i} bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_job_reports_progress_on_its_recorder() {
    let _guard = csb_obs::span::test_lock();
    csb_obs::disable();
    csb_obs::reset();
    let seed = small_seed(34);
    let dir = temp_dir("ckpt");
    let rec = csb_obs::Recorder::new();
    let run = GenJob::pgpba(&seed, PgpbaConfig { desired_size: 3_000, fraction: 0.5, seed: 4 })
        .store(dir.join("g.csbstore"))
        .checkpoint(dir.join("ckpt"))
        .checkpoint_every(1)
        .recorder(rec.clone())
        .run()
        .expect("checkpointed run");

    let st = rec.status().snapshot();
    assert!(st.done);
    assert_eq!(st.edges_done, run.edges);
    assert!(st.chunks_closed > 0);
    assert!(st.barriers >= 1, "checkpoint barriers reach the scoped board");
    assert!(st.chunks_durable > 0);
    assert!(st.started_micros.is_some());
    // The board renders as valid JSON for GET /status.
    csb_obs::json::validate_json(&st.to_json()).expect("status JSON");
    assert!(csb_obs::flush_spans().is_empty(), "global recorder stayed clean");
    std::fs::remove_dir_all(&dir).ok();
}
