//! The serve stage: an in-process daemon under a closed loop of clients, each
//! submitting a job and waiting for its result before the next. The daemon
//! lives for the whole section; every round sends it one batch of the job
//! mix.

use crate::check::Checks;
use crate::inputs::{Inputs, FRACTION};
use crate::plan::{job_mix, JobClass, JobDraw, Plan, Seeds, STORE_SHARDS};
use crate::probe::call;
use crate::section::pgpba_size_ok;
use crate::Res;
use csb_obs::json::JsonValue;
use csb_serve::{Algorithm, Client, JobSpec, Priority, ServeConfig, Server};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a client waits for one job before the run is abandoned.
const RESULT_TIMEOUT: Duration = Duration::from_secs(120);
/// Period of the queue-depth poller.
const DEPTH_POLL: Duration = Duration::from_millis(20);

/// One job as its client saw it.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub class: JobClass,
    pub id: String,
    pub done: bool,
    pub done_seq: Option<u64>,
    pub edges: u64,
    /// Submit -> terminal reply.
    pub latency_ms: f64,
    /// The submit round trip alone.
    pub submit_ms: f64,
    /// `wait_secs` and `run_secs` of the result reply.
    pub wait_ms: f64,
    pub run_ms: f64,
}

pub struct ServeObs {
    /// First submit -> last result, summed over the batches.
    pub wall_s: f64,
    pub jobs: Vec<JobOutcome>,
    pub rejected: u64,
    pub ping_us: Vec<f64>,
    pub max_queue_depth: u64,
    pub drain_s: f64,
}

fn spec_of(job: JobDraw, plan: &Plan, inputs: &Inputs) -> JobSpec {
    match job.class.edges(plan.smoke) {
        Some(size) => {
            let sharded = job.class == JobClass::Large;
            JobSpec::Generate {
                algorithm: Algorithm::Pgpba,
                seed_graph: inputs.serve_seed_graph.clone(),
                size,
                fraction: FRACTION,
                seed: job.seed,
                shards: if sharded { STORE_SHARDS } else { 0 },
                columnar: sharded,
                chunk_records: None,
            }
        }
        None => JobSpec::Veracity {
            seed_store: inputs.seed_store.clone(),
            synth_store: inputs.serve_veracity_store.clone(),
        },
    }
}

fn millis(reply: &JsonValue, field: &str) -> f64 {
    reply.get(field).and_then(JsonValue::as_f64).unwrap_or(0.0) * 1e3
}

/// One client's closed loop over its share of a batch.
fn client_loop(
    addr: SocketAddr,
    jobs: &[JobDraw],
    plan: &Plan,
    inputs: &Inputs,
    rejected: &AtomicU64,
) -> Res<Vec<JobOutcome>> {
    let mut client = Client::connect(addr)?;
    let mut out = Vec::with_capacity(jobs.len());
    for &job in jobs {
        let spec = spec_of(job, plan, inputs);
        let start = Instant::now();
        let id = match client.submit(&spec, Priority::Normal) {
            Ok(id) => id,
            Err(_) => {
                rejected.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let submit_ms = start.elapsed().as_secs_f64() * 1e3;
        let reply = client.result_wait(&id, RESULT_TIMEOUT)?;
        out.push(JobOutcome {
            class: job.class,
            id,
            done: reply.get("state").and_then(JsonValue::as_str) == Some("done"),
            done_seq: reply.get("done_seq").and_then(JsonValue::as_u64),
            edges: reply.get("edges").and_then(JsonValue::as_u64).unwrap_or(0),
            latency_ms: start.elapsed().as_secs_f64() * 1e3,
            submit_ms,
            wait_ms: millis(&reply, "wait_secs"),
            run_ms: millis(&reply, "run_secs"),
        });
    }
    Ok(out)
}

/// The daemon and what its clients have seen so far.
pub struct Session {
    server: Server,
    addr: SocketAddr,
    spool: PathBuf,
    mix: Vec<JobDraw>,
    obs: ServeObs,
}

impl Session {
    pub fn start(plan: &Plan, seeds: &Seeds, work: &Path) -> Res<Session> {
        let spool = work.join("spool");
        std::fs::remove_dir_all(&spool).ok();
        let mix = job_mix(seeds.serve, plan.serve.jobs);
        let mut cfg = ServeConfig::new(&spool);
        cfg.workers = plan.serve_workers();
        // The queue holds a whole batch: a rejection is a failed operation.
        cfg.max_queue = mix.len() + 16;
        let (server, _) = call("bench.serve.start", || Server::start(cfg));
        let server = server?;
        let addr = server.addr();
        let (ping_us, _) = call("bench.serve.ping", || -> Res<Vec<f64>> {
            let mut client = Client::connect(addr)?;
            (0..plan.fixed.pings)
                .map(|_| {
                    let start = Instant::now();
                    client.ping()?;
                    Ok(start.elapsed().as_secs_f64() * 1e6)
                })
                .collect()
        });
        let obs = ServeObs {
            wall_s: 0.0,
            jobs: Vec::with_capacity(mix.len()),
            rejected: 0,
            ping_us: ping_us?,
            max_queue_depth: 0,
            drain_s: 0.0,
        };
        Ok(Session { server, addr, spool, mix, obs })
    }

    /// Sends this round's share of the mix through `threads` closed-loop
    /// clients and waits for every result.
    pub fn batch(&mut self, round: usize, plan: &Plan, inputs: &Inputs) -> Res<()> {
        let share = |r: usize| r * self.mix.len() / plan.rounds;
        let batch = &self.mix[share(round)..share(round + 1)];
        if batch.is_empty() {
            return Ok(());
        }
        let clients = plan.threads.min(batch.len());
        let (server, addr) = (&self.server, self.addr);
        let stop_poll = AtomicBool::new(false);
        let max_depth = AtomicU64::new(0);
        let rejected = AtomicU64::new(0);
        let (results, wall_s) = call("bench.serve.closed_loop", || {
            std::thread::scope(|scope| {
                let poller = scope.spawn(|| {
                    while !stop_poll.load(Ordering::Relaxed) {
                        let (_, queued, _, _) = server.scheduler().snapshot();
                        max_depth.fetch_max(queued as u64, Ordering::Relaxed);
                        std::thread::sleep(DEPTH_POLL);
                    }
                });
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let jobs: Vec<JobDraw> =
                            batch.iter().copied().skip(c).step_by(clients).collect();
                        let rejected = &rejected;
                        scope.spawn(move || {
                            client_loop(addr, &jobs, plan, inputs, rejected)
                                .map_err(|e| e.to_string())
                        })
                    })
                    .collect();
                let results: Vec<_> = handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
                    .collect();
                stop_poll.store(true, Ordering::Relaxed);
                poller.join().ok();
                results
            })
        });
        for result in results {
            self.obs.jobs.extend(result?);
        }
        self.obs.wall_s += wall_s;
        self.obs.rejected += rejected.load(Ordering::Relaxed);
        self.obs.max_queue_depth = self.obs.max_queue_depth.max(max_depth.load(Ordering::Relaxed));
        Ok(())
    }

    /// Drains the daemon and checks the account of every job.
    pub fn finish(self, plan: &Plan, inputs: &Inputs, checks: &mut Checks) -> Res<ServeObs> {
        let Session { server, addr, spool, mix, mut obs } = self;
        let (drained, drain_s) = call("bench.serve.drain", || -> Res<()> {
            let mut client = Client::connect(addr)?;
            client.shutdown(true)?;
            drop(client);
            server.wait();
            Ok(())
        });
        drained?;
        obs.drain_s = drain_s;

        let _check = csb_obs::span_cat("bench.check.serve", "bench");
        let (jobs, rejected) = (&obs.jobs, obs.rejected);
        checks.check(rejected == 0, || format!("serve: {rejected} submissions refused"));
        checks.check(jobs.len() as u64 + rejected == mix.len() as u64, || {
            format!("serve: {} of {} jobs accounted for", jobs.len() as u64 + rejected, mix.len())
        });
        let ids: HashSet<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        let seqs: HashSet<u64> = jobs.iter().filter_map(|j| j.done_seq).collect();
        checks.check(ids.len() == jobs.len(), || "serve: a job id was handed out twice".into());
        checks.check(seqs.len() == jobs.iter().filter(|j| j.done).count(), || {
            "serve: a done_seq is missing or repeated".into()
        });
        for job in jobs {
            let size_ok = match job.class.edges(plan.smoke) {
                // A job smaller than its seed graph returns the seed.
                Some(size) => pgpba_size_ok(size.max(inputs.serve_seed_edges), job.edges),
                None => true,
            };
            checks.check(job.done && size_ok, || {
                format!(
                    "serve: {} job {} ended done={} with {} edges",
                    job.class.name(),
                    job.id,
                    job.done,
                    job.edges
                )
            });
        }
        std::fs::remove_dir_all(&spool).ok();
        Ok(obs)
    }
}
