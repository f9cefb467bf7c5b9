//! The job table and scheduler: a bounded queue with three priority
//! classes (FIFO within a class), cost-model admission control, memory-aware
//! worker placement, and preempt-and-requeue of running checkpointed jobs
//! when a higher class is waiting.
//!
//! ## Admission
//!
//! A `submit` is **rejected** (never queued) when the cost model predicts
//! its resident memory above the configured budget, or when the queue is
//! full. Everything admitted eventually runs — rejection is the only form
//! of load shedding, so clients can tell "try later" from "never".
//!
//! ## Placement
//!
//! Workers take the head of the highest non-empty class whose predicted
//! memory fits in the remaining budget (budget minus the running jobs'
//! predictions). Heads are never overtaken within their class: a head that
//! does not fit blocks its class (FIFO is part of the contract), but lower
//! classes may still be served.
//!
//! ## Preemption
//!
//! When a job queues in a class strictly higher than some running
//! checkpointed generate job and no worker is free, the weakest running job
//! is preempted: its cancel flag is set, the sink takes a durable barrier at
//! the next chunk boundary and surfaces a transient error, and the job is
//! requeued at the *front* of its class with `resume` set. Resume replays
//! from the manifest, so the final store bytes are identical to an
//! uninterrupted run.

use crate::proto::{JobSpec, Priority};
use csb_engine::CostModel;
use csb_obs::Recorder;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle of a job. `Done`/`Failed`/`Canceled` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker (also after a preemption requeue).
    Queued,
    /// On a worker now.
    Running,
    /// Finished successfully.
    Done,
    /// Finished with an error (admission-on-recovery failures included).
    Failed,
    /// Canceled by request.
    Canceled,
}

impl JobState {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// Whether the state is final.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Canceled)
    }
}

/// Why a running job's cancel flag was set — decides how the resulting
/// transient error is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Not stopped.
    None,
    /// Client `cancel` — terminal.
    Cancel,
    /// Higher-priority job waiting — requeue at the front of the class.
    Preempt,
    /// `shutdown now` — leave queued+resumable for the next boot.
    Drain,
}

/// Everything the scheduler knows about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// `j-NNNNNN`.
    pub id: String,
    /// What to run.
    pub spec: JobSpec,
    /// Scheduling class.
    pub priority: Priority,
    /// Current lifecycle state.
    pub state: JobState,
    /// Resume from the checkpoint manifest when (re)started.
    pub resume: bool,
    /// Times the job left a worker non-terminally and was requeued.
    pub restarts: u32,
    /// How many of those were scheduler preemptions.
    pub preemptions: u32,
    /// Cooperative stop flag shared with the running `GenJob`.
    pub cancel: Arc<AtomicBool>,
    /// Why the flag was last set.
    pub stop_reason: StopReason,
    /// Terminal error text, if failed.
    pub error: Option<String>,
    /// Edges produced (generate jobs).
    pub edges: u64,
    /// Veracity scores (veracity jobs).
    pub scores: Option<(f64, f64)>,
    /// Output path (generate jobs).
    pub out: Option<std::path::PathBuf>,
    /// Predicted resident memory, GB (admission + placement).
    pub predicted_gb: f64,
    /// Predicted single-core compute, seconds.
    pub predicted_secs: f64,
    /// Submission instant.
    pub submitted: Instant,
    /// Seconds spent queued before the first start.
    pub wait_secs: f64,
    /// Seconds spent on workers (sum over restarts).
    pub run_secs: f64,
    /// Completion sequence number (terminal jobs, in finish order).
    pub done_seq: Option<u64>,
    /// Worker slot currently running the job.
    pub worker: Option<usize>,
}

/// Why a submission was turned away.
#[derive(Debug, Clone, PartialEq)]
pub enum Reject {
    /// Predicted memory exceeds the budget — resubmitting won't help.
    OverBudget {
        /// The prediction.
        predicted_gb: f64,
        /// The budget it exceeded.
        budget_gb: f64,
    },
    /// The bounded queue is full — try again later.
    QueueFull {
        /// The configured bound.
        max_queue: usize,
    },
    /// The daemon is shutting down.
    Draining,
    /// The spec can never run (e.g. columnar codec without sharding).
    BadSpec(String),
}

impl Reject {
    /// Human-readable reason for the error reply.
    pub fn message(&self) -> String {
        match self {
            Reject::OverBudget { predicted_gb, budget_gb } => format!(
                "rejected: predicted memory {predicted_gb:.3} GB exceeds the {budget_gb:.3} GB \
                 budget"
            ),
            Reject::QueueFull { max_queue } => {
                format!("rejected: queue full ({max_queue} jobs); try again later")
            }
            Reject::Draining => "rejected: daemon is draining".into(),
            Reject::BadSpec(m) => format!("rejected: {m}"),
        }
    }
}

/// What `finish_job` decided — tells the server whether to persist a
/// terminal result or expect the job to run again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishDisposition {
    /// Terminal: write the result file.
    Terminal,
    /// Requeued (preemption or transient fault): no result yet.
    Requeued,
    /// Parked for the next boot (`shutdown now`): no result, spec stays.
    Parked,
}

/// Cap on transient-fault requeues before a job is failed for good
/// (preemptions and drains do not count against it).
pub const MAX_JOB_RESTARTS: u32 = 5;

struct SchedState {
    jobs: BTreeMap<String, JobRecord>,
    /// Queued ids per class, FIFO.
    queues: [VecDeque<String>; 3],
    next_id: u64,
    draining: bool,
    stopping: bool,
    running: usize,
    done_seq: u64,
}

/// The scheduler: one mutex around the job table, one condvar shared by
/// workers (new work / shutdown) and clients (long-polling `result`).
pub struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    workers: usize,
    max_queue: usize,
    mem_budget_gb: f64,
    model: CostModel,
    rec: Recorder,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers)
            .field("max_queue", &self.max_queue)
            .field("mem_budget_gb", &self.mem_budget_gb)
            .finish()
    }
}

impl Scheduler {
    /// A scheduler for `workers` slots, queueing at most `max_queue` jobs,
    /// admitting against `mem_budget_gb` as predicted by `model`, reporting
    /// queue-level metrics into `rec`.
    pub fn new(
        workers: usize,
        max_queue: usize,
        mem_budget_gb: f64,
        model: CostModel,
        rec: Recorder,
    ) -> Scheduler {
        rec.gauge("serve.workers").set(workers as i64);
        Scheduler {
            state: Mutex::new(SchedState {
                jobs: BTreeMap::new(),
                queues: Default::default(),
                next_id: 1,
                draining: false,
                stopping: false,
                running: 0,
                done_seq: 0,
            }),
            cv: Condvar::new(),
            workers: workers.max(1),
            max_queue,
            mem_budget_gb,
            model,
            rec,
        }
    }

    /// Predicted resident memory for `spec`, GB.
    pub fn predict_gb(&self, spec: &JobSpec) -> f64 {
        match spec {
            JobSpec::Generate { size, .. } => *size as f64 * self.model.memory_bytes_per_edge / 1e9,
            // Veracity is out-of-core streaming: a small flat footprint.
            JobSpec::Veracity { .. } => 0.05,
        }
    }

    /// Predicted single-core compute for `spec`, seconds.
    pub fn predict_secs(&self, spec: &JobSpec) -> f64 {
        match spec {
            JobSpec::Generate { algorithm, size, .. } => {
                let gen_ns = match algorithm {
                    crate::proto::Algorithm::Pgpba => self.model.pgpba_ns_per_edge,
                    crate::proto::Algorithm::Pgsk => self.model.pgsk_ns_per_edge,
                };
                *size as f64 * (gen_ns + self.model.property_ns_per_edge) / 1e9
            }
            JobSpec::Veracity { .. } => 1.0,
        }
    }

    /// Admits or rejects a job. `id` pins a recovered job's identity (spool
    /// replay); fresh submissions pass `None` and get the next sequential
    /// id. `resume` marks the first run as a checkpoint resume.
    pub fn admit(
        &self,
        spec: JobSpec,
        priority: Priority,
        id: Option<String>,
        resume: bool,
    ) -> Result<JobRecord, Reject> {
        if let JobSpec::Generate { shards, columnar, .. } = &spec {
            if *columnar && *shards < 2 {
                return Err(Reject::BadSpec(
                    "columnar codec requires shards >= 2 on a checkpointed run".into(),
                ));
            }
            // At the door: a worker would open the files one by one until the
            // process ran out of descriptors.
            csb_store::check_shard_count(*shards).map_err(|e| Reject::BadSpec(e.to_string()))?;
        }
        let predicted_gb = self.predict_gb(&spec);
        let predicted_secs = self.predict_secs(&spec);
        let mut s = self.state.lock().unwrap();
        if s.draining {
            return Err(Reject::Draining);
        }
        if predicted_gb > self.mem_budget_gb {
            self.rec.counter("serve.rejected").add(1);
            return Err(Reject::OverBudget { predicted_gb, budget_gb: self.mem_budget_gb });
        }
        let queued: usize = s.queues.iter().map(VecDeque::len).sum();
        if queued >= self.max_queue {
            self.rec.counter("serve.rejected").add(1);
            return Err(Reject::QueueFull { max_queue: self.max_queue });
        }
        let id = match id {
            Some(id) => {
                // Recovered ids advance the counter past themselves so fresh
                // submissions never collide.
                if let Some(n) = id.strip_prefix("j-").and_then(|n| n.parse::<u64>().ok()) {
                    s.next_id = s.next_id.max(n + 1);
                }
                id
            }
            None => {
                let id = format!("j-{:06}", s.next_id);
                s.next_id += 1;
                id
            }
        };
        let record = JobRecord {
            id: id.clone(),
            spec,
            priority,
            state: JobState::Queued,
            resume,
            restarts: 0,
            preemptions: 0,
            cancel: Arc::new(AtomicBool::new(false)),
            stop_reason: StopReason::None,
            error: None,
            edges: 0,
            scores: None,
            out: None,
            predicted_gb,
            predicted_secs,
            submitted: Instant::now(),
            wait_secs: 0.0,
            run_secs: 0.0,
            done_seq: None,
            worker: None,
        };
        s.queues[priority.index()].push_back(id.clone());
        s.jobs.insert(id, record.clone());
        self.rec.counter("serve.submitted").add(1);
        self.update_gauges(&s);
        self.preempt_if_needed(&mut s);
        drop(s);
        self.cv.notify_all();
        Ok(record)
    }

    /// Blocks until there is a job for `worker` (returns its id, moved to
    /// `Running`) or the worker should exit (returns `None`: shutdown, or
    /// drain completed).
    pub fn next_job(&self, worker: usize) -> Option<String> {
        let mut s = self.state.lock().unwrap();
        loop {
            if s.stopping {
                return None;
            }
            let queued: usize = s.queues.iter().map(VecDeque::len).sum();
            if s.draining && queued == 0 && s.running == 0 {
                // Drain complete; wake the siblings so they exit too.
                self.cv.notify_all();
                return None;
            }
            // Memory in use by running jobs.
            let in_use: f64 = s
                .jobs
                .values()
                .filter(|j| j.state == JobState::Running)
                .map(|j| j.predicted_gb)
                .sum();
            let mut picked = None;
            for q in 0..3 {
                if let Some(head) = s.queues[q].front() {
                    let fits = s
                        .jobs
                        .get(head)
                        .map(|j| in_use + j.predicted_gb <= self.mem_budget_gb)
                        .unwrap_or(true);
                    // FIFO within the class: a head that doesn't fit blocks
                    // its class, but lower classes may still run.
                    if fits {
                        picked = Some(q);
                        break;
                    }
                }
            }
            if let Some(q) = picked {
                let id = s.queues[q].pop_front().expect("picked class is non-empty");
                let wait = {
                    let j = s.jobs.get_mut(&id).expect("queued job must exist");
                    j.state = JobState::Running;
                    j.worker = Some(worker);
                    if j.restarts == 0 {
                        j.wait_secs = j.submitted.elapsed().as_secs_f64();
                    }
                    j.wait_secs
                };
                s.running += 1;
                self.rec.histogram("serve.wait_ms").record((wait * 1e3) as u64);
                self.update_gauges(&s);
                return Some(id);
            }
            s = self.cv.wait_timeout(s, Duration::from_millis(200)).unwrap().0;
        }
    }

    /// A clone of `id`'s record (for the worker to run from, and for status
    /// replies).
    pub fn get(&self, id: &str) -> Option<JobRecord> {
        self.state.lock().unwrap().jobs.get(id).cloned()
    }

    /// Classifies a finished worker run. `outcome` is `Ok` with
    /// (edges, scores, out path) on success, `Err` with (message,
    /// is_transient) otherwise.
    #[allow(clippy::type_complexity)]
    pub fn finish_job(
        &self,
        id: &str,
        run_secs: f64,
        outcome: Result<(u64, Option<(f64, f64)>, Option<std::path::PathBuf>), (String, bool)>,
    ) -> FinishDisposition {
        let mut s = self.state.lock().unwrap();
        s.running = s.running.saturating_sub(1);
        let disposition;
        let mut requeue_class = None;
        let mut bump_seq = false;
        {
            let j = match s.jobs.get_mut(id) {
                Some(j) => j,
                None => return FinishDisposition::Terminal,
            };
            j.run_secs += run_secs;
            j.worker = None;
            let reason = j.stop_reason;
            match outcome {
                Ok((edges, scores, out)) => {
                    j.state = JobState::Done;
                    j.edges = edges;
                    j.scores = scores;
                    j.out = out;
                    self.rec.counter("serve.done").add(1);
                    disposition = FinishDisposition::Terminal;
                }
                Err((msg, transient)) => match reason {
                    StopReason::Preempt if transient => {
                        j.state = JobState::Queued;
                        j.resume = true;
                        j.restarts += 1;
                        j.preemptions += 1;
                        j.stop_reason = StopReason::None;
                        j.cancel.store(false, Ordering::Relaxed);
                        self.rec.counter("serve.preemptions").add(1);
                        disposition = FinishDisposition::Requeued;
                    }
                    StopReason::Drain if transient => {
                        // Parked: state stays Queued on disk via the spec
                        // file; the next boot recovers and resumes it.
                        j.state = JobState::Queued;
                        j.resume = true;
                        j.stop_reason = StopReason::None;
                        disposition = FinishDisposition::Parked;
                    }
                    StopReason::Cancel => {
                        j.state = JobState::Canceled;
                        j.error = Some("canceled".into());
                        self.rec.counter("serve.canceled").add(1);
                        disposition = FinishDisposition::Terminal;
                    }
                    _ if transient && j.restarts < MAX_JOB_RESTARTS => {
                        // Transient fault with no stop request: requeue for
                        // a checkpoint resume, bounded by MAX_JOB_RESTARTS.
                        j.state = JobState::Queued;
                        j.resume = true;
                        j.restarts += 1;
                        j.cancel.store(false, Ordering::Relaxed);
                        self.rec.counter("serve.fault_requeues").add(1);
                        disposition = FinishDisposition::Requeued;
                    }
                    _ => {
                        j.state = JobState::Failed;
                        j.error = Some(msg);
                        self.rec.counter("serve.failed").add(1);
                        disposition = FinishDisposition::Terminal;
                    }
                },
            }
            if j.state == JobState::Queued && disposition == FinishDisposition::Requeued {
                requeue_class = Some(j.priority.index());
            } else if j.state.is_terminal() {
                bump_seq = true;
                let total_ms = (j.submitted.elapsed().as_secs_f64() * 1e3) as u64;
                let run_ms = (j.run_secs * 1e3) as u64;
                self.rec.histogram("serve.total_ms").record(total_ms);
                self.rec.histogram("serve.run_ms").record(run_ms);
            }
        }
        if let Some(q) = requeue_class {
            // Requeued work goes to the *front* of its class: it was
            // admitted first and preemption must not also cost it its FIFO
            // position.
            s.queues[q].push_front(id.to_string());
        }
        if bump_seq {
            s.done_seq += 1;
            let seq = s.done_seq;
            if let Some(j) = s.jobs.get_mut(id) {
                j.done_seq = Some(seq);
            }
        }
        self.update_gauges(&s);
        drop(s);
        self.cv.notify_all();
        disposition
    }

    /// Cancels `id`. Queued jobs become terminal immediately (`Ok(true)`);
    /// running jobs get their flag set and finish asynchronously
    /// (`Ok(false)`); unknown ids error.
    pub fn cancel(&self, id: &str) -> Result<bool, String> {
        let mut s = self.state.lock().unwrap();
        let state = {
            let j = match s.jobs.get_mut(id) {
                Some(j) => j,
                None => return Err(format!("unknown job `{id}`")),
            };
            match j.state {
                JobState::Queued => {
                    j.state = JobState::Canceled;
                    j.error = Some("canceled".into());
                    self.rec.counter("serve.canceled").add(1);
                }
                JobState::Running => {
                    j.stop_reason = StopReason::Cancel;
                    j.cancel.store(true, Ordering::Relaxed);
                }
                terminal => return Ok(terminal == JobState::Canceled),
            }
            j.state
        };
        if state == JobState::Canceled {
            for q in &mut s.queues {
                q.retain(|qid| qid != id);
            }
            s.done_seq += 1;
            let seq = s.done_seq;
            if let Some(j) = s.jobs.get_mut(id) {
                j.done_seq = Some(seq);
            }
        }
        self.update_gauges(&s);
        drop(s);
        self.cv.notify_all();
        Ok(state == JobState::Canceled)
    }

    /// Starts a shutdown. `drain` finishes queued work first; otherwise all
    /// running jobs are preempted to their checkpoints and the queue is
    /// parked for the next boot.
    pub fn begin_shutdown(&self, drain: bool) {
        let mut s = self.state.lock().unwrap();
        s.draining = true;
        if !drain {
            s.stopping = true;
            for j in s.jobs.values_mut() {
                if j.state == JobState::Running {
                    j.stop_reason = StopReason::Drain;
                    j.cancel.store(true, Ordering::Relaxed);
                }
            }
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Whether a shutdown has started (drain or immediate).
    pub fn draining(&self) -> bool {
        self.state.lock().unwrap().draining
    }

    /// Whether workers should exit immediately.
    pub fn stopping(&self) -> bool {
        self.state.lock().unwrap().stopping
    }

    /// Blocks until `id` reaches a terminal state or `wait` elapses; returns
    /// the latest record either way (None for unknown ids).
    pub fn wait_terminal(&self, id: &str, wait: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + wait;
        let mut s = self.state.lock().unwrap();
        loop {
            match s.jobs.get(id) {
                None => return None,
                Some(j) if j.state.is_terminal() => return Some(j.clone()),
                Some(j) => {
                    let now = Instant::now();
                    if now >= deadline || s.stopping {
                        return Some(j.clone());
                    }
                    let step = (deadline - now).min(Duration::from_millis(100));
                    s = self.cv.wait_timeout(s, step).unwrap().0;
                }
            }
        }
    }

    /// A point-in-time copy of every record (id order) plus queue depth.
    pub fn snapshot(&self) -> (Vec<JobRecord>, usize, usize, bool) {
        let s = self.state.lock().unwrap();
        let queued: usize = s.queues.iter().map(VecDeque::len).sum();
        (s.jobs.values().cloned().collect(), queued, s.running, s.draining)
    }

    /// True once a drain has finished (or an immediate stop was ordered).
    pub fn idle_after_drain(&self) -> bool {
        let s = self.state.lock().unwrap();
        let queued: usize = s.queues.iter().map(VecDeque::len).sum();
        s.stopping || (s.draining && queued == 0 && s.running == 0)
    }

    /// Sets the cancel flag of the weakest running preemptible job when a
    /// strictly higher class is waiting with no free worker.
    fn preempt_if_needed(&self, s: &mut SchedState) {
        if s.running < self.workers {
            return; // A free slot will pick the new job up.
        }
        let best_waiting = match (0..3).find(|&q| !s.queues[q].is_empty()) {
            Some(q) => q,
            None => return,
        };
        // Weakest running job: highest class index, preemptible (generate
        // jobs checkpoint, veracity does not), not already stopping.
        let victim = s
            .jobs
            .values()
            .filter(|j| {
                j.state == JobState::Running
                    && j.stop_reason == StopReason::None
                    && matches!(j.spec, JobSpec::Generate { .. })
                    && j.priority.index() > best_waiting
            })
            .max_by_key(|j| j.priority.index())
            .map(|j| j.id.clone());
        if let Some(id) = victim {
            let j = s.jobs.get_mut(&id).expect("victim exists");
            j.stop_reason = StopReason::Preempt;
            j.cancel.store(true, Ordering::Relaxed);
        }
    }

    fn update_gauges(&self, s: &SchedState) {
        let queued: usize = s.queues.iter().map(VecDeque::len).sum();
        self.rec.gauge("serve.queue_depth").set(queued as i64);
        self.rec.gauge("serve.running").set(s.running as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Algorithm;
    use std::path::PathBuf;

    fn gen_spec(size: u64) -> JobSpec {
        JobSpec::Generate {
            algorithm: Algorithm::Pgpba,
            seed_graph: PathBuf::from("seed.txt"),
            size,
            fraction: 0.1,
            seed: 1,
            shards: 0,
            columnar: false,
            chunk_records: None,
        }
    }

    fn sched(workers: usize, max_queue: usize, budget: f64) -> Scheduler {
        Scheduler::new(workers, max_queue, budget, CostModel::default(), Recorder::new())
    }

    #[test]
    fn budget_zero_rejects_everything() {
        let s = sched(1, 100, 0.0);
        let r = s.admit(gen_spec(1000), Priority::Normal, None, false);
        assert!(matches!(r, Err(Reject::OverBudget { .. })), "{r:?}");
    }

    #[test]
    fn shard_count_above_the_cap_is_rejected_at_the_door() {
        let s = sched(1, 100, 100.0);
        let spec = |n| {
            let mut spec = gen_spec(10);
            if let JobSpec::Generate { shards, .. } = &mut spec {
                *shards = n;
            }
            spec
        };
        let r = s.admit(spec(100_000), Priority::Normal, None, false);
        let Err(Reject::BadSpec(msg)) = &r else { panic!("{r:?}") };
        assert!(msg.contains("cap of 256"), "{msg}");
        assert!(s.admit(spec(csb_store::MAX_SHARDS), Priority::Normal, None, false).is_ok());
    }

    #[test]
    fn queue_bound_rejects_overflow() {
        let s = sched(1, 2, 100.0);
        assert!(s.admit(gen_spec(10), Priority::Normal, None, false).is_ok());
        assert!(s.admit(gen_spec(10), Priority::Normal, None, false).is_ok());
        let r = s.admit(gen_spec(10), Priority::Normal, None, false);
        assert!(matches!(r, Err(Reject::QueueFull { .. })), "{r:?}");
    }

    #[test]
    fn fifo_within_class_and_priority_across() {
        let s = sched(1, 100, 100.0);
        let a = s.admit(gen_spec(10), Priority::Normal, None, false).unwrap().id;
        let b = s.admit(gen_spec(10), Priority::Normal, None, false).unwrap().id;
        let hi = s.admit(gen_spec(10), Priority::High, None, false).unwrap().id;
        let lo = s.admit(gen_spec(10), Priority::Low, None, false).unwrap().id;
        // High first, then the two normals in submit order, then low.
        for expect in [&hi, &a, &b, &lo] {
            let got = s.next_job(0).expect("job available");
            assert_eq!(&got, expect);
            s.finish_job(&got, 0.0, Ok((1, None, None)));
        }
    }

    #[test]
    fn preemption_targets_the_weakest_running_generate_job() {
        let s = sched(1, 100, 100.0);
        let low = s.admit(gen_spec(10), Priority::Low, None, false).unwrap().id;
        assert_eq!(s.next_job(0).as_deref(), Some(low.as_str()));
        // Submitting a high-priority job with no free slot flags the runner.
        let _hi = s.admit(gen_spec(10), Priority::High, None, false).unwrap().id;
        let rec = s.get(&low).unwrap();
        assert!(rec.cancel.load(Ordering::Relaxed), "victim flag must be set");
        assert_eq!(rec.stop_reason, StopReason::Preempt);
        // The preempted job is requeued at the front of its class, resumable.
        let d = s.finish_job(&low, 0.1, Err(("preempted".into(), true)));
        assert_eq!(d, FinishDisposition::Requeued);
        let rec = s.get(&low).unwrap();
        assert_eq!(rec.state, JobState::Queued);
        assert!(rec.resume);
        assert_eq!(rec.preemptions, 1);
        assert!(!rec.cancel.load(Ordering::Relaxed), "flag cleared for the rerun");
    }

    #[test]
    fn recovered_ids_advance_the_counter() {
        let s = sched(1, 100, 100.0);
        let r = s.admit(gen_spec(10), Priority::Normal, Some("j-000007".into()), true).unwrap();
        assert_eq!(r.id, "j-000007");
        assert!(r.resume);
        let fresh = s.admit(gen_spec(10), Priority::Normal, None, false).unwrap();
        assert_eq!(fresh.id, "j-000008");
    }

    #[test]
    fn cancel_queued_is_immediate_and_running_is_flagged() {
        let s = sched(1, 100, 100.0);
        let a = s.admit(gen_spec(10), Priority::Normal, None, false).unwrap().id;
        let b = s.admit(gen_spec(10), Priority::Normal, None, false).unwrap().id;
        assert_eq!(s.next_job(0).as_deref(), Some(a.as_str()));
        assert_eq!(s.cancel(&b), Ok(true), "queued cancel is terminal");
        assert_eq!(s.get(&b).unwrap().state, JobState::Canceled);
        assert_eq!(s.cancel(&a), Ok(false), "running cancel is async");
        assert!(s.get(&a).unwrap().cancel.load(Ordering::Relaxed));
        let d = s.finish_job(&a, 0.1, Err(("preempted".into(), true)));
        assert_eq!(d, FinishDisposition::Terminal);
        assert_eq!(s.get(&a).unwrap().state, JobState::Canceled);
        assert!(s.cancel("j-999999").is_err());
    }

    #[test]
    fn drain_shutdown_parks_running_jobs() {
        let s = sched(1, 100, 100.0);
        let a = s.admit(gen_spec(10), Priority::Normal, None, false).unwrap().id;
        assert_eq!(s.next_job(0).as_deref(), Some(a.as_str()));
        s.begin_shutdown(false);
        assert!(s.get(&a).unwrap().cancel.load(Ordering::Relaxed));
        let d = s.finish_job(&a, 0.1, Err(("preempted".into(), true)));
        assert_eq!(d, FinishDisposition::Parked);
        assert_eq!(s.get(&a).unwrap().state, JobState::Queued);
        assert!(s.get(&a).unwrap().resume);
        assert!(s.next_job(0).is_none(), "stopping worker exits");
    }

    #[test]
    fn memory_placement_blocks_a_class_head_without_overtaking() {
        // Budget fits the small job but the big head blocks its class.
        let model = CostModel::default();
        let budget = 20.0 * model.memory_bytes_per_edge * 1e6 / 1e9; // ~20M edges worth
        let s = Scheduler::new(2, 100, budget, model, Recorder::new());
        let big = s.admit(gen_spec(15_000_000), Priority::Normal, None, false).unwrap().id;
        let big2 = s.admit(gen_spec(15_000_000), Priority::Normal, None, false).unwrap().id;
        let small_low = s.admit(gen_spec(1_000_000), Priority::Low, None, false).unwrap().id;
        // Worker 0 takes the first big job; worker 1 cannot take the second
        // (won't fit) and must not overtake within the class — it takes the
        // low-priority small one instead.
        assert_eq!(s.next_job(0).as_deref(), Some(big.as_str()));
        assert_eq!(s.next_job(1).as_deref(), Some(small_low.as_str()));
        s.finish_job(&big, 0.1, Ok((1, None, None)));
        assert_eq!(s.next_job(0).as_deref(), Some(big2.as_str()));
    }

    #[test]
    fn wait_terminal_returns_on_completion() {
        let s = Arc::new(sched(1, 100, 100.0));
        let a = s.admit(gen_spec(10), Priority::Normal, None, false).unwrap().id;
        let s2 = Arc::clone(&s);
        let a2 = a.clone();
        let t = std::thread::spawn(move || {
            let id = s2.next_job(0).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            s2.finish_job(&id, 0.05, Ok((42, None, None)));
            a2
        });
        let rec = s.wait_terminal(&a, Duration::from_secs(5)).expect("known job");
        assert_eq!(rec.state, JobState::Done);
        assert_eq!(rec.edges, 42);
        t.join().unwrap();
        assert!(s.wait_terminal("j-404404", Duration::from_millis(1)).is_none());
    }
}
