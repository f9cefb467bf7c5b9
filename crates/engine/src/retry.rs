//! Task retry with deterministic backoff, plus fault injection.
//!
//! Spark's resilience story is per-task retry: a task that dies is re-run
//! (up to `spark.task.maxFailures`) without restarting the job. [`Pdd`]
//! operators get the same property through a [`TaskPolicy`] gate at the top
//! of every per-partition task: an injected (or observed-transient) failure
//! delays and re-runs the task instead of killing the job.
//!
//! Everything here is deterministic. Backoff delays and injected-fault
//! decisions derive from seeds via `csb_stats::rng::derive_seed`, and a
//! retried task re-runs the *same* pure computation — faults cost wall-clock
//! time, never change data. That is what lets the fault-injection smoke test
//! assert bit-equality between a clean run and a 10%-failure run.
//!
//! [`Pdd`]: crate::dataset::Pdd

use csb_stats::rng::derive_seed;
use csb_store::CsbError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often and how patiently a failed task is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (Spark's `maxFailures - 1`).
    pub max_retries: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on the exponential backoff, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, base_delay_ms: 10, max_delay_ms: 1_000 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, base_delay_ms: 0, max_delay_ms: 0 }
    }

    /// Backoff before retrying after failure number `attempt` (0-based):
    /// exponential `base * 2^attempt` capped at `max_delay_ms`, with
    /// deterministic jitter in `[delay/2, delay]` derived from `task_seed`
    /// — same task, same attempt, same delay, every run.
    pub fn backoff_ms(&self, attempt: u32, task_seed: u64) -> u64 {
        let exp = self.base_delay_ms.saturating_mul(1u64 << attempt.min(20)).min(self.max_delay_ms);
        if exp == 0 {
            return 0;
        }
        let jitter = derive_seed(task_seed, 0xB0FF ^ u64::from(attempt));
        exp / 2 + jitter % (exp / 2 + 1)
    }

    /// Runs `f` (passed the 0-based attempt number) until it succeeds, fails
    /// fatally, or exhausts the retry budget. Only errors whose
    /// [`CsbError::is_transient`] is true are retried; a fatal error aborts
    /// immediately and exhaustion returns [`CsbError::RetryExhausted`].
    pub fn run<T>(
        &self,
        task_seed: u64,
        mut f: impl FnMut(u32) -> Result<T, CsbError>,
    ) -> Result<T, CsbError> {
        let mut attempt = 0u32;
        loop {
            match f(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => {
                    csb_obs::counter_add("engine.task_failures", 1);
                    if attempt >= self.max_retries {
                        return Err(CsbError::RetryExhausted {
                            attempts: attempt + 1,
                            last: Box::new(e),
                        });
                    }
                    let delay = self.backoff_ms(attempt, task_seed);
                    if delay > 0 {
                        std::thread::sleep(Duration::from_millis(delay));
                    }
                    csb_obs::counter_add("engine.task_retries", 1);
                    attempt += 1;
                }
            }
        }
    }
}

/// Injects failures into engine tasks for resilience testing: each task
/// attempt independently fails with `failure_probability`, decided
/// deterministically from `(seed, task, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that any single task attempt fails.
    pub failure_probability: f64,
    /// Seed of the fault stream (independent of the generator's data seed).
    pub seed: u64,
}

impl FaultConfig {
    /// True when attempt `attempt` of the task identified by `task_seed`
    /// should fail. Pure: the same triple always decides the same way.
    pub fn should_fail(&self, task_seed: u64, attempt: u32) -> bool {
        let h = derive_seed(self.seed, derive_seed(task_seed, u64::from(attempt)));
        // Top 53 bits to a uniform f64 in [0, 1).
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.failure_probability
    }
}

/// Per-task policy carried by every [`Pdd`]: a retry budget plus an optional
/// fault injector. Cloning shares the operation counter, so datasets derived
/// from one another number their operators globally.
///
/// [`Pdd`]: crate::dataset::Pdd
#[derive(Debug, Clone, Default)]
pub struct TaskPolicy {
    /// Retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// Fault injector; `None` (the default) makes [`TaskPolicy::gate`] free.
    pub fault: Option<FaultConfig>,
    op_counter: Arc<AtomicU64>,
}

impl TaskPolicy {
    /// A policy with the given retry budget and no fault injection.
    pub fn new(retry: RetryPolicy) -> Self {
        TaskPolicy { retry, fault: None, op_counter: Arc::new(AtomicU64::new(0)) }
    }

    /// Adds a fault injector.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Allocates the next operator id (one per `Pdd` operator invocation, so
    /// each (operator, partition) task has a distinct fault/backoff stream).
    pub fn next_op(&self) -> u64 {
        self.op_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Task gate: called at the top of a per-partition task. With no fault
    /// injector this returns immediately. With one, the task "fails" with
    /// the configured probability and is retried under the retry policy —
    /// delaying, never changing data.
    ///
    /// # Panics
    /// Panics when the retry budget is exhausted — inside the infallible
    /// `Pdd` operators there is no error channel.
    pub fn gate(&self, op: u64, partition: usize) {
        let Some(fault) = self.fault else { return };
        let task_seed = derive_seed(fault.seed, (op << 20) | partition as u64);
        self.retry
            .run(task_seed, |attempt| {
                if fault.should_fail(task_seed, attempt) {
                    Err(CsbError::Transient(format!(
                        "injected fault: op {op}, partition {partition}, attempt {attempt}"
                    )))
                } else {
                    Ok(())
                }
            })
            .unwrap_or_else(|e| {
                panic!("engine task (op {op}, partition {partition}) gave up: {e}")
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy { max_retries: 10, base_delay_ms: 8, max_delay_ms: 100 };
        for attempt in 0..6 {
            let a = p.backoff_ms(attempt, 42);
            let b = p.backoff_ms(attempt, 42);
            assert_eq!(a, b, "same (attempt, seed) must give the same delay");
            let exp = (8u64 << attempt).min(100);
            assert!(
                a >= exp / 2 && a <= exp,
                "attempt {attempt}: {a} outside [{}, {exp}]",
                exp / 2
            );
        }
        // The cap holds for absurd attempt numbers without overflow.
        assert!(p.backoff_ms(63, 1) <= 100);
        // Different task seeds jitter differently (for at least one attempt).
        assert!((0..6).any(|a| p.backoff_ms(a, 1) != p.backoff_ms(a, 2)));
    }

    #[test]
    fn zero_base_delay_never_sleeps() {
        let p = RetryPolicy { max_retries: 3, base_delay_ms: 0, max_delay_ms: 50 };
        for attempt in 0..4 {
            assert_eq!(p.backoff_ms(attempt, 7), 0);
        }
    }

    #[test]
    fn run_retries_transient_until_success() {
        let p = RetryPolicy { max_retries: 5, base_delay_ms: 0, max_delay_ms: 0 };
        let mut calls = 0u32;
        let out = p.run(1, |attempt| {
            calls += 1;
            if attempt < 3 {
                Err(CsbError::Transient("flaky".into()))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 3);
        assert_eq!(calls, 4, "three failures then success");
    }

    #[test]
    fn run_classifies_exhaustion_and_fatal_errors() {
        let p = RetryPolicy { max_retries: 2, base_delay_ms: 0, max_delay_ms: 0 };
        // Always-transient exhausts the budget: 1 try + 2 retries.
        let err = p.run(1, |_| Err::<(), _>(CsbError::Transient("still down".into()))).unwrap_err();
        match err {
            CsbError::RetryExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(last.is_transient());
            }
            other => panic!("expected RetryExhausted, got {other}"),
        }
        // A fatal error aborts on the first attempt — no retries.
        let mut calls = 0u32;
        let err = p
            .run(1, |_| {
                calls += 1;
                Err::<(), _>(CsbError::Config("bad flag".into()))
            })
            .unwrap_err();
        assert!(matches!(err, CsbError::Config(_)));
        assert_eq!(calls, 1, "fatal errors must not be retried");
    }

    #[test]
    fn fault_decisions_are_deterministic_and_roughly_calibrated() {
        let f = FaultConfig { failure_probability: 0.1, seed: 99 };
        let fails: usize = (0..10_000).filter(|&t| f.should_fail(t, 0)).count();
        assert!((700..1300).contains(&fails), "10% of 10k tasks, got {fails}");
        for t in 0..100 {
            assert_eq!(f.should_fail(t, 0), f.should_fail(t, 0));
        }
        assert!((0..10_000u64)
            .all(|t| !FaultConfig { failure_probability: 0.0, seed: 1 }.should_fail(t, 0)));
        assert!((0..100u64)
            .all(|t| FaultConfig { failure_probability: 1.0, seed: 1 }.should_fail(t, 0)));
    }

    #[test]
    fn gate_without_faults_is_free_and_with_faults_recovers() {
        let clean = TaskPolicy::default();
        clean.gate(clean.next_op(), 0); // must not panic or sleep

        let flaky =
            TaskPolicy::new(RetryPolicy { max_retries: 60, base_delay_ms: 0, max_delay_ms: 0 })
                .with_fault(FaultConfig { failure_probability: 0.3, seed: 7 });
        // With a generous budget every task eventually passes the gate.
        for partition in 0..64 {
            flaky.gate(flaky.next_op(), partition);
        }
    }

    #[test]
    #[should_panic(expected = "gave up")]
    fn gate_panics_when_exhausted() {
        let doomed = TaskPolicy::new(RetryPolicy::none())
            .with_fault(FaultConfig { failure_probability: 1.0, seed: 1 });
        doomed.gate(doomed.next_op(), 0);
    }

    #[test]
    fn cloned_policies_share_the_op_counter() {
        let a = TaskPolicy::default();
        let b = a.clone();
        assert_eq!(a.next_op(), 0);
        assert_eq!(b.next_op(), 1);
        assert_eq!(a.next_op(), 2);
    }
}
