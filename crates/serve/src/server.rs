//! The daemon: TCP accept loop speaking the line protocol, N worker threads
//! running jobs off the [`Scheduler`](crate::queue::Scheduler), spool
//! recovery at boot, and an optional csb-obs HTTP endpoint with `/metrics`,
//! `/status`, and a `/jobs` table.
//!
//! Every connection gets its own thread, so a slow, hung, or malicious
//! client can never wedge a worker slot — workers only ever touch the
//! scheduler, never a socket. Shutdown is deterministic end to end: drain
//! (or preempt) the workers, stop the accept loop with a self-connect wake,
//! join every connection thread, drop the obs endpoint (which joins its own
//! accept thread).

use crate::proto::{
    error_reply, ok_reply, parse_request, Algorithm, JobSpec, Request, MAX_LINE_BYTES,
    PROTO_VERSION,
};
use crate::queue::{FinishDisposition, JobRecord, Scheduler};
use crate::spool::Spool;
use csb_core::{GenJob, PgpbaConfig, PgskConfig, SeedBundle, VeracityJob};
use csb_engine::CostModel;
use csb_graph::io::read_graph;
use csb_obs::json::JsonObject;
use csb_obs::{ObsServer, Recorder, Router};
use csb_store::{Compression, CsbError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a [`Server::shutdown`] stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Finish queued and running work, then exit.
    Drain,
    /// Preempt running jobs to their checkpoints and exit; queued work is
    /// parked in the spool for the next boot.
    Now,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Protocol listen address (`127.0.0.1:0` = ephemeral port).
    pub listen: String,
    /// Worker slots.
    pub workers: usize,
    /// Spool directory (jobs, outputs, checkpoints).
    pub spool: PathBuf,
    /// Optional csb-obs HTTP endpoint address.
    pub obs_listen: Option<String>,
    /// Admission memory budget, GB.
    pub mem_budget_gb: f64,
    /// Bounded queue length.
    pub max_queue: usize,
    /// Cost model: its memory constants drive admission and placement, its
    /// compute constants a job's informational `predicted_secs`.
    pub model: CostModel,
}

impl ServeConfig {
    /// Local defaults: ephemeral port, 2 workers, 4 GB budget, queue of
    /// 256, the paper-shaped default cost model, no obs endpoint.
    pub fn new(spool: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            workers: 2,
            spool: spool.into(),
            obs_listen: None,
            mem_budget_gb: 4.0,
            max_queue: 256,
            model: CostModel::default(),
        }
    }
}

struct Shared {
    sched: Scheduler,
    spool: Spool,
    rec: Recorder,
    workers: usize,
    stop_conns: AtomicBool,
}

/// A running daemon. Dropping the handle aborts hard (threads detach);
/// prefer [`Server::shutdown`] or a protocol `shutdown` + [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    obs_addr: Option<SocketAddr>,
    obs: Option<ObsServer>,
    accept_stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("obs_addr", &self.obs_addr)
            .finish()
    }
}

impl Server {
    /// Boots the daemon: opens the spool, re-admits unfinished jobs (with
    /// resume), binds the listener, starts workers, the accept loop, and
    /// the obs endpoint if configured.
    pub fn start(cfg: ServeConfig) -> Result<Server, CsbError> {
        let spool = Spool::open(&cfg.spool)?;
        let rec = Recorder::new();
        let sched =
            Scheduler::new(cfg.workers, cfg.max_queue, cfg.mem_budget_gb, cfg.model, rec.clone());
        let shared = Arc::new(Shared {
            sched,
            spool,
            rec: rec.clone(),
            workers: cfg.workers.max(1),
            stop_conns: AtomicBool::new(false),
        });

        // Recovery: every spec without a result is unfinished — re-admit it
        // resumable, in id (submission) order. Jobs the current budget can
        // no longer admit fail with a persisted result instead of vanishing.
        for job in shared.spool.recover()? {
            match shared.sched.admit(job.spec, job.priority, Some(job.id.clone()), true) {
                Ok(_) => {
                    rec.counter("serve.resumed_jobs").add(1);
                }
                Err(reject) => {
                    let mut o = ok_reply();
                    o.str("job", &job.id).str("state", "failed").str(
                        "error",
                        &format!("not re-admitted on recovery: {}", reject.message()),
                    );
                    shared.spool.save_result(&job.id, &o.finish())?;
                }
            }
        }

        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;

        let mut workers = Vec::new();
        for idx in 0..cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{idx}"))
                    .spawn(move || worker_loop(&sh, idx))?,
            );
        }

        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let sh = Arc::clone(&shared);
            let stop = Arc::clone(&accept_stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new().name("serve-accept".into()).spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let sh2 = Arc::clone(&sh);
                        if let Ok(h) = std::thread::Builder::new()
                            .name("serve-conn".into())
                            .spawn(move || handle_client(stream, &sh2))
                        {
                            let mut held = conns.lock().unwrap();
                            held.retain(|h| !h.is_finished());
                            held.push(h);
                        }
                    }
                }
            })?
        };

        let (obs, obs_addr) = match &cfg.obs_listen {
            Some(addr) => {
                let sh = Arc::clone(&shared);
                let router = Router::telemetry(rec).route("/jobs", "job table JSON", move || {
                    csb_obs::HttpResponse::json(jobs_json(&sh))
                });
                let server = ObsServer::serve_router(addr, router)?;
                let a = server.addr();
                (Some(server), Some(a))
            }
            None => (None, None),
        };

        Ok(Server {
            shared,
            addr,
            obs_addr,
            obs,
            accept_stop,
            accept: Some(accept),
            workers,
            conns,
        })
    }

    /// The protocol address (real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The obs HTTP address, when configured.
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.obs_addr
    }

    /// The daemon's spool.
    pub fn spool(&self) -> &Spool {
        &self.shared.spool
    }

    /// Direct scheduler access (tests and the repo benchmark).
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.sched
    }

    /// Blocks until the daemon stops (a protocol `shutdown`, or
    /// [`Server::shutdown`] from another thread), then tears everything
    /// down deterministically.
    pub fn wait(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers are done (drain finished or stop ordered): now stop the
        // accept loop and every connection thread.
        self.shared.stop_conns.store(true, Ordering::Relaxed);
        self.accept_stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let held = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in held {
            let _ = h.join();
        }
        if let Some(obs) = self.obs.take() {
            obs.shutdown();
        }
    }

    /// Stops the daemon from the owning thread and waits for teardown.
    pub fn shutdown(self, mode: ShutdownMode) {
        self.shared.sched.begin_shutdown(mode == ShutdownMode::Drain);
        self.wait();
    }
}

/// One worker: take a job, run it, classify the outcome, persist terminal
/// results.
fn worker_loop(shared: &Shared, idx: usize) {
    while let Some(id) = shared.sched.next_job(idx) {
        let record = match shared.sched.get(&id) {
            Some(r) => r,
            None => continue,
        };
        let t0 = Instant::now();
        let outcome = run_job(shared, &record);
        let disposition = shared.sched.finish_job(&id, t0.elapsed().as_secs_f64(), outcome);
        if disposition == FinishDisposition::Terminal {
            if let Some(rec) = shared.sched.get(&id) {
                let _ = shared.spool.save_result(&id, &result_json(&rec));
            }
        }
    }
}

type RunOutcome = Result<(u64, Option<(f64, f64)>, Option<PathBuf>), (String, bool)>;

fn run_job(shared: &Shared, record: &JobRecord) -> RunOutcome {
    if record.cancel.load(Ordering::Relaxed) {
        // Canceled (or drained) between dequeue and start.
        return Err(("stopped before start".into(), true));
    }
    match &record.spec {
        JobSpec::Generate {
            algorithm,
            seed_graph,
            size,
            fraction,
            seed,
            shards,
            columnar,
            chunk_records,
        } => {
            let fail = |e: CsbError| (e.to_string(), e.is_transient());
            let graph = std::fs::File::open(seed_graph)
                .map_err(|e| (format!("seed graph {}: {e}", seed_graph.display()), false))
                .and_then(|f| {
                    read_graph(f)
                        .map_err(|e| (format!("seed graph {}: {e}", seed_graph.display()), false))
                })?;
            let bundle = SeedBundle::from_graph(graph).map_err(fail)?;
            let out = shared.spool.out_path(&record.id);
            let ckpt = shared.spool.ckpt_dir(&record.id);
            let job_rec = Recorder::new();
            let mut job = match algorithm {
                Algorithm::Pgpba => GenJob::pgpba(
                    &bundle,
                    PgpbaConfig { desired_size: *size, fraction: *fraction, seed: *seed },
                ),
                Algorithm::Pgsk => {
                    let mut c = PgskConfig::new(*size);
                    c.seed = *seed;
                    GenJob::pgsk(&bundle, c)
                }
            }
            .recorder(job_rec)
            .job_id(record.id.clone())
            .store(&out)
            .checkpoint(&ckpt)
            .resume()
            .cancel_flag(Arc::clone(&record.cancel));
            if *shards >= 2 {
                job = job.shards(*shards);
            }
            if *columnar {
                job = job.compression(Compression::Columnar);
            }
            if let Some(n) = chunk_records {
                job = job.chunk_records(*n).checkpoint_every(1);
            }
            let run = job.run().map_err(fail)?;
            Ok((run.edges, None, Some(out)))
        }
        JobSpec::Veracity { seed_store, synth_store } => {
            let report = VeracityJob::new()
                .seed_store(seed_store)
                .synthetic_store(synth_store)
                .run()
                .map_err(|e| (e.to_string(), e.is_transient()))?;
            let score = |m| report.score(m).expect("default metrics scored");
            Ok((0, Some((score("degree"), score("pagerank"))), None))
        }
    }
}

/// Serializes a record's public fields into `o`.
fn record_fields(o: &mut JsonObject, j: &JobRecord) {
    o.str("job", &j.id)
        .str("kind", j.spec.kind())
        .str("priority", j.priority.as_str())
        .str("state", j.state.as_str())
        .u64("restarts", u64::from(j.restarts))
        .u64("preemptions", u64::from(j.preemptions))
        .f64("predicted_gb", j.predicted_gb, 6)
        .f64("predicted_secs", j.predicted_secs, 3)
        .f64("wait_secs", j.wait_secs, 3)
        .f64("run_secs", j.run_secs, 3)
        .u64("edges", j.edges);
    if let Some((degree, pagerank)) = j.scores {
        o.f64("degree", degree, 6).f64("pagerank", pagerank, 6);
    }
    if let Some(out) = &j.out {
        o.str("out", &out.display().to_string());
    }
    if let Some(err) = &j.error {
        o.str("error", err);
    }
    if let Some(seq) = j.done_seq {
        o.u64("done_seq", seq);
    }
}

fn result_json(j: &JobRecord) -> String {
    let mut o = ok_reply();
    record_fields(&mut o, j);
    o.finish()
}

fn jobs_json(shared: &Shared) -> String {
    let (jobs, queued, running, draining) = shared.sched.snapshot();
    let items = jobs.iter().map(|j| {
        let mut o = JsonObject::new();
        record_fields(&mut o, j);
        o.finish()
    });
    let mut o = JsonObject::new();
    o.u64("queue_depth", queued as u64)
        .u64("running", running as u64)
        .u64("workers", shared.workers as u64)
        .bool("draining", draining)
        .raw("jobs", &csb_obs::json::array_of(items.collect::<Vec<_>>()));
    o.finish()
}

/// One connection: newline-framed request/reply until EOF, an oversized
/// line, or shutdown.
fn handle_client(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Drain complete lines already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let reply = match parse_request(text) {
                Ok(req) => {
                    let (reply, close) = dispatch(shared, req);
                    if close {
                        let _ = write_line(&mut stream, &reply);
                        return;
                    }
                    reply
                }
                Err(e) => {
                    shared.rec.counter("serve.proto_errors").add(1);
                    error_reply(&e)
                }
            };
            if write_line(&mut stream, &reply).is_err() {
                return;
            }
        }
        if buf.len() > MAX_LINE_BYTES {
            // Unframed garbage: reply once, then close — the stream can no
            // longer be trusted to be line-aligned.
            shared.rec.counter("serve.proto_errors").add(1);
            let _ = write_line(
                &mut stream,
                &error_reply(&format!("request line exceeds {MAX_LINE_BYTES} bytes")),
            );
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // clean close (mid-line leftovers are dropped)
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stop_conns.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn write_line(stream: &mut TcpStream, reply: &str) -> std::io::Result<()> {
    stream.write_all(reply.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Executes one request; returns (reply, close-after-reply).
fn dispatch(shared: &Shared, req: Request) -> (String, bool) {
    match req {
        Request::Ping => {
            let mut o = ok_reply();
            o.bool("pong", true).u64("version", u64::from(PROTO_VERSION));
            (o.finish(), false)
        }
        Request::Submit { spec, priority } => {
            if let JobSpec::Generate { seed_graph, .. } = &spec {
                // Catch bad paths at submit, not minutes later on a worker.
                if !seed_graph.is_file() {
                    return (
                        error_reply(&format!(
                            "rejected: seed graph {} is not a file",
                            seed_graph.display()
                        )),
                        false,
                    );
                }
            }
            match shared.sched.admit(spec, priority, None, false) {
                Ok(record) => {
                    if let Err(e) =
                        shared.spool.save_spec(&record.id, &record.spec, record.priority)
                    {
                        // A spec that can't be persisted would vanish on a
                        // crash; fail the submit instead.
                        let _ = shared.sched.cancel(&record.id);
                        return (error_reply(&format!("spool write failed: {e}")), false);
                    }
                    let mut o = ok_reply();
                    o.str("job", &record.id)
                        .str("state", "queued")
                        .f64("predicted_gb", record.predicted_gb, 6)
                        .f64("predicted_secs", record.predicted_secs, 3);
                    (o.finish(), false)
                }
                Err(reject) => (error_reply(&reject.message()), false),
            }
        }
        Request::Status { job } => match shared.sched.get(&job) {
            Some(j) => {
                let mut o = ok_reply();
                record_fields(&mut o, &j);
                (o.finish(), false)
            }
            None => (error_reply(&format!("unknown job `{job}`")), false),
        },
        Request::Result { job, wait_ms } => {
            let wait = Duration::from_millis(wait_ms.min(30_000));
            match shared.sched.wait_terminal(&job, wait) {
                Some(j) => {
                    let mut o = ok_reply();
                    record_fields(&mut o, &j);
                    (o.finish(), false)
                }
                None => (error_reply(&format!("unknown job `{job}`")), false),
            }
        }
        Request::Cancel { job } => match shared.sched.cancel(&job) {
            Ok(done) => {
                let mut o = ok_reply();
                o.str("job", &job).str("state", if done { "canceled" } else { "cancel_requested" });
                (o.finish(), false)
            }
            Err(e) => (error_reply(&e), false),
        },
        Request::List => (jobs_json_reply(shared), false),
        Request::Shutdown { drain } => {
            shared.sched.begin_shutdown(drain);
            let mut o = ok_reply();
            o.bool("draining", true).str("mode", if drain { "drain" } else { "now" });
            (o.finish(), false)
        }
    }
}

fn jobs_json_reply(shared: &Shared) -> String {
    let mut o = ok_reply();
    o.raw("snapshot", &jobs_json(shared));
    o.finish()
}
