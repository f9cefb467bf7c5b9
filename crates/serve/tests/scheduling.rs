//! End-to-end scheduling semantics through the wire protocol: admission
//! rejection under a zero budget, FIFO within a class, exactly-once
//! accounting under a client fleet far wider than the worker pool,
//! preempt-and-resume byte-identity, and kill-the-daemon-and-restart
//! recovery.

use csb_core::analysis::SeedAnalysis;
use csb_core::{GenJob, PgpbaConfig, SeedBundle};
use csb_graph::io::read_graph;
use csb_serve::{Algorithm, Client, JobSpec, Priority, ServeConfig, Server, ShutdownMode};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("csb-sched-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn write_seed_graph(path: &Path) {
    let mut s = String::from("# csb-graph v1\n");
    for i in 0..32u32 {
        s.push_str(&format!("v\t{i}\t{}\n", 0x0A00_0001 + i));
    }
    for i in 0..96u32 {
        let a = (i * 7) % 32;
        let b = (i * 11 + 1) % 32;
        s.push_str(&format!(
            "e\t{a}\t{b}\t6\t{}\t443\t{}\t{}\t{}\t3\t5\t2\n",
            40_000 + i,
            10 + i,
            100 + i * 3,
            200 + i * 5
        ));
    }
    std::fs::write(path, s).expect("write seed graph");
}

fn gen_spec(seed_graph: &Path, size: u64, rng_seed: u64, chunk_records: usize) -> JobSpec {
    JobSpec::Generate {
        algorithm: Algorithm::Pgpba,
        seed_graph: seed_graph.to_path_buf(),
        size,
        fraction: 0.1,
        seed: rng_seed,
        shards: 0,
        columnar: false,
        chunk_records: Some(chunk_records),
    }
}

/// Runs the same job directly (no daemon, uninterrupted) and returns the
/// store bytes — the byte-identity reference.
fn reference_bytes(
    seed_graph: &Path,
    size: u64,
    rng_seed: u64,
    chunk_records: usize,
    scratch: &Path,
) -> Vec<u8> {
    let graph = read_graph(std::fs::File::open(seed_graph).expect("open seed")).expect("read seed");
    let analysis = SeedAnalysis::of(&graph);
    let bundle = SeedBundle { graph, analysis };
    let out = scratch.join("reference.csbstore");
    GenJob::pgpba(&bundle, PgpbaConfig { desired_size: size, fraction: 0.1, seed: rng_seed })
        .store(&out)
        .checkpoint(scratch.join("reference-ckpt"))
        .resume()
        .chunk_records(chunk_records)
        .checkpoint_every(1)
        .run()
        .expect("reference run");
    std::fs::read(&out).expect("read reference bytes")
}

fn wait_for_state(client: &mut Client, job: &str, state: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let v = client.status(job).expect("status");
        let got = v.get("state").and_then(|s| s.as_str()).unwrap_or("?").to_string();
        if got == state {
            return;
        }
        assert!(
            !matches!(got.as_str(), "done" | "failed" | "canceled"),
            "job {job} went terminal ({got}) while waiting for `{state}`"
        );
        assert!(Instant::now() < deadline, "job {job} never reached `{state}` (last: {got})");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn zero_budget_rejects_all_submissions() {
    let root = temp_dir("budget0");
    let seed = root.join("seed.graph");
    write_seed_graph(&seed);
    let mut cfg = ServeConfig::new(root.join("spool"));
    cfg.workers = 1;
    cfg.mem_budget_gb = 0.0;
    let server = Server::start(cfg).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client
        .submit(&gen_spec(&seed, 4000, 1, 512), Priority::High)
        .expect_err("generate must be rejected");
    assert!(err.to_string().contains("exceeds"), "{err}");
    let veracity = JobSpec::Veracity {
        seed_store: root.join("a.csbstore"),
        synth_store: root.join("b.csbstore"),
    };
    let err = client.submit(&veracity, Priority::Normal).expect_err("veracity too");
    assert!(err.to_string().contains("exceeds"), "{err}");
    client.shutdown(true).expect("shutdown");
    server.wait();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn fifo_within_a_class_on_one_worker() {
    let root = temp_dir("fifo");
    let seed = root.join("seed.graph");
    write_seed_graph(&seed);
    let mut cfg = ServeConfig::new(root.join("spool"));
    cfg.workers = 1;
    let server = Server::start(cfg).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let ids: Vec<String> = (0..3)
        .map(|i| {
            client.submit(&gen_spec(&seed, 3000, 10 + i, 512), Priority::Normal).expect("submit")
        })
        .collect();
    let mut seqs = Vec::new();
    for id in &ids {
        let v = client.result_wait(id, Duration::from_secs(180)).expect("finishes");
        assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("done"), "{v:?}");
        seqs.push(v.get("done_seq").and_then(|s| s.as_u64()).expect("done_seq"));
    }
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "completion order {seqs:?} is not FIFO");
    client.shutdown(true).expect("shutdown");
    server.wait();
    std::fs::remove_dir_all(&root).ok();
}

/// Clients far outnumber workers (12 connections, 2 slots): every submitted
/// job is accounted for exactly once — none rejected, lost or failed, no job
/// id and no completion sequence number handed out twice — and the burst
/// really did queue.
#[test]
fn a_fleet_wider_than_the_workers_completes_every_job_exactly_once() {
    const CLIENTS: usize = 12;
    const JOBS_PER_CLIENT: usize = 2;
    let root = temp_dir("fleet");
    let seed = root.join("seed.graph");
    write_seed_graph(&seed);
    let mut cfg = ServeConfig::new(root.join("spool"));
    cfg.workers = 2;
    // The queue holds the whole burst: rejection is load shedding, and the
    // contract here is zero lost jobs.
    cfg.max_queue = CLIENTS * JOBS_PER_CLIENT;
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();

    // Every client connects, then all submit at once; each submits both jobs
    // before waiting on either and reads the queue depth in between.
    let start = std::sync::Barrier::new(CLIENTS);
    let max_depth = AtomicUsize::new(0);
    let replies: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (seed, start, server, max_depth) = (&seed, &start, &server, &max_depth);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    start.wait();
                    let ids: Vec<String> = (0..JOBS_PER_CLIENT)
                        .map(|j| {
                            let spec = gen_spec(seed, 2000, (c * 1000 + j + 1) as u64, 512);
                            client.submit(&spec, Priority::Normal).expect("nothing rejected")
                        })
                        .collect();
                    max_depth.fetch_max(server.scheduler().snapshot().1, Ordering::Relaxed);
                    let wait = Duration::from_secs(300);
                    ids.iter()
                        .map(|id| client.result_wait(id, wait).expect("reaches a terminal state"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    assert!(max_depth.load(Ordering::Relaxed) > 0, "24 jobs on 2 workers never queued");
    assert_eq!(replies.len(), CLIENTS * JOBS_PER_CLIENT, "every submission accounted for");
    let (mut ids, mut seqs) = (HashSet::new(), HashSet::new());
    for v in &replies {
        assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("done"), "{v:?}");
        let id = v.get("job").and_then(|s| s.as_str()).expect("job id");
        assert!(ids.insert(id.to_string()), "job id {id} handed out twice");
        let seq = v.get("done_seq").and_then(|s| s.as_u64()).expect("done_seq");
        assert!(seqs.insert(seq), "done_seq {seq} seen twice");
    }

    Client::connect(addr).expect("connect").shutdown(true).expect("drain");
    server.wait();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn preempted_job_resumes_byte_identical() {
    let root = temp_dir("preempt");
    let seed = root.join("seed.graph");
    write_seed_graph(&seed);
    let reference = reference_bytes(&seed, 200_000, 5, 256, &root);

    let mut cfg = ServeConfig::new(root.join("spool"));
    cfg.workers = 1;
    let server = Server::start(cfg).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A low-priority job occupies the only worker...
    let low = client.submit(&gen_spec(&seed, 200_000, 5, 256), Priority::Low).expect("submit low");
    wait_for_state(&mut client, &low, "running", Duration::from_secs(60));
    // ...then a high-priority job preempts it.
    let high = client.submit(&gen_spec(&seed, 3000, 6, 256), Priority::High).expect("submit high");
    let vh = client.result_wait(&high, Duration::from_secs(180)).expect("high finishes");
    assert_eq!(vh.get("state").and_then(|s| s.as_str()), Some("done"), "{vh:?}");
    let vl = client.result_wait(&low, Duration::from_secs(300)).expect("low finishes");
    assert_eq!(vl.get("state").and_then(|s| s.as_str()), Some("done"), "{vl:?}");
    let preemptions = vl.get("preemptions").and_then(|s| s.as_u64()).unwrap_or(0);
    assert!(preemptions >= 1, "low job was never preempted: {vl:?}");
    // The high job finished strictly before the preempted low job.
    let sh = vh.get("done_seq").and_then(|s| s.as_u64()).expect("high seq");
    let sl = vl.get("done_seq").and_then(|s| s.as_u64()).expect("low seq");
    assert!(sh < sl, "high ({sh}) must complete before the preempted low ({sl})");

    let out = vl.get("out").and_then(|s| s.as_str()).expect("out path").to_string();
    let bytes = std::fs::read(&out).expect("read preempted output");
    assert_eq!(bytes, reference, "preempt-and-resume output differs from the uninterrupted run");
    client.shutdown(true).expect("shutdown");
    server.wait();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn shutdown_now_parks_and_the_next_boot_resumes_byte_identical() {
    let root = temp_dir("restart");
    let seed = root.join("seed.graph");
    write_seed_graph(&seed);
    let reference = reference_bytes(&seed, 400_000, 9, 256, &root);
    let spool = root.join("spool");

    // Boot 1: start the job, then pull the plug mid-run.
    let mut cfg = ServeConfig::new(&spool);
    cfg.workers = 1;
    let server = Server::start(cfg.clone()).expect("boot 1");
    let mut client = Client::connect(server.addr()).expect("connect");
    let job = client.submit(&gen_spec(&seed, 400_000, 9, 256), Priority::Normal).expect("submit");
    wait_for_state(&mut client, &job, "running", Duration::from_secs(60));
    std::thread::sleep(Duration::from_millis(150));
    drop(client);
    server.shutdown(ShutdownMode::Now);
    assert!(
        !spool.join(format!("jobs/{job}.result.json")).exists(),
        "a parked job must not have a terminal result on disk"
    );

    // Boot 2 on the same spool: recovery re-admits the job with resume.
    let server = Server::start(cfg).expect("boot 2");
    let mut client = Client::connect(server.addr()).expect("reconnect");
    let v = client.result_wait(&job, Duration::from_secs(300)).expect("resumed job finishes");
    assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("done"), "{v:?}");
    assert_eq!(v.get("job").and_then(|s| s.as_str()), Some(job.as_str()), "id must survive");
    let out = v.get("out").and_then(|s| s.as_str()).expect("out path").to_string();
    let bytes = std::fs::read(&out).expect("read resumed output");
    assert_eq!(bytes, reference, "kill-and-restart output differs from the uninterrupted run");
    assert!(
        spool.join(format!("jobs/{job}.result.json")).exists(),
        "terminal result must be persisted after completion"
    );
    client.shutdown(true).expect("shutdown");
    server.wait();
    std::fs::remove_dir_all(&root).ok();
}
