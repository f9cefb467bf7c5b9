//! Offline stand-in for `rayon`: the data-parallel iterator subset the
//! csb-* crates call, run on real threads. Built only where cargo cannot
//! resolve the published crate without the network (`../../cargo.sh`); a
//! result says which of the two it was measured with.
//!
//! A parallel iterator here is a splittable producer. A terminal operation
//! cuts it into a few contiguous parts per thread, runs the parts on
//! `current_num_threads()` threads (the caller and helpers parked in one
//! process-wide pool) that claim parts from a shared counter, and reassembles
//! the per-part results in input order — so output order, and any
//! order-sensitive reduction the callers do per fixed-size chunk, is
//! independent of the pool width.
//!
//! Differences from the published crate that callers may notice:
//! - parts are claimed from a counter, not stolen from deques;
//! - `ThreadPool::install` runs its closure on the calling thread with the
//!   pool's width in force, instead of moving it to a pool thread, and every
//!   `ThreadPool` shares the one set of helper threads;
//! - a parallel call made from inside a worker runs sequentially on that
//!   worker.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod iter;
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

/// Parts cut per thread, so uneven parts still balance.
const PARTS_PER_THREAD: usize = 4;

/// Width of the global pool; 0 until first use or `build_global`.
static GLOBAL_WIDTH: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Width installed on this thread by `ThreadPool::install` or inherited
    /// by a worker; 0 means "use the global pool".
    static INSTALLED_WIDTH: Cell<usize> = const { Cell::new(0) };
    /// Set while this thread runs parts of a parallel operation.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn global_width() -> usize {
    match GLOBAL_WIDTH.load(Ordering::Relaxed) {
        0 => {
            let n = std::env::var("RAYON_NUM_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            // First caller wins; a concurrent `build_global` may have set it.
            match GLOBAL_WIDTH.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => n,
                Err(current) => current,
            }
        }
        n => n,
    }
}

/// Number of threads a parallel operation started on this thread uses.
pub fn current_num_threads() -> usize {
    match INSTALLED_WIDTH.with(Cell::get) {
        0 => global_width(),
        n => n,
    }
}

#[derive(Debug)]
pub struct ThreadPoolBuildError(&'static str);

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// 0 keeps the default (`RAYON_NUM_THREADS`, else the CPU count).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = if self.num_threads == 0 { global_width() } else { self.num_threads };
        Ok(ThreadPool { width })
    }

    /// Fixes the global pool's width; fails once the global pool exists.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        if self.num_threads == 0 {
            global_width();
            return Ok(());
        }
        GLOBAL_WIDTH
            .compare_exchange(0, self.num_threads, Ordering::Relaxed, Ordering::Relaxed)
            .map(|_| ())
            .map_err(|_| {
                ThreadPoolBuildError("the global thread pool has already been initialized")
            })
    }
}

#[derive(Debug)]
pub struct ThreadPool {
    width: usize,
}

/// Restores a thread-local cell on drop, so a panic in the scoped closure
/// does not leave the override behind.
struct Restore<T: Copy + 'static> {
    cell: &'static std::thread::LocalKey<Cell<T>>,
    previous: T,
}

impl<T: Copy + 'static> Restore<T> {
    fn set(cell: &'static std::thread::LocalKey<Cell<T>>, value: T) -> Self {
        Restore { cell, previous: cell.with(|c| c.replace(value)) }
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.cell.with(|c| c.set(self.previous));
    }
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.width
    }

    /// Runs `op` with this pool's width in force for every parallel
    /// operation it starts.
    pub fn install<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        let _width = Restore::set(&INSTALLED_WIDTH, self.width);
        let _top_level = Restore::set(&IN_WORKER, false);
        op()
    }
}

/// Times an idle thread yields the processor, checking for work after each,
/// before it blocks: the published crate's idle loop (`rayon-core`'s
/// `ROUNDS_UNTIL_SLEEPY`), so a helper is still awake when an iterative
/// kernel starts its next operation and asleep soon after the last one.
const ROUNDS_UNTIL_SLEEPY: u32 = 32;

/// Yields up to [`ROUNDS_UNTIL_SLEEPY`] times while `ready` does not hold;
/// false if it never held.
fn yield_until(ready: impl Fn() -> bool) -> bool {
    for _ in 0..ROUNDS_UNTIL_SLEEPY {
        if ready() {
            return true;
        }
        std::thread::yield_now();
    }
    ready()
}

/// What a parallel operation and its helpers share: how many helper
/// tickets are neither finished nor withdrawn, and a helper's panic.
struct Op {
    pending: AtomicUsize,
    /// Taken to notify or wait on `settled`, so a wake-up is not lost.
    gate: Mutex<()>,
    settled: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Op {
    fn settle(&self, tickets: usize) {
        if tickets > 0 && self.pending.fetch_sub(tickets, Ordering::SeqCst) == tickets {
            let _gate = self.gate.lock().expect("no code panics holding this lock");
            self.settled.notify_all();
        }
    }

    fn wait_settled(&self) {
        let settled = || self.pending.load(Ordering::SeqCst) == 0;
        if yield_until(settled) {
            return;
        }
        let mut gate = self.gate.lock().expect("no code panics holding this lock");
        while !settled() {
            gate = self.settled.wait(gate).expect("no code panics holding this lock");
        }
    }
}

/// One helper's share of an operation, queued until a pool thread takes it.
struct Ticket {
    work: &'static (dyn Fn() + Sync),
    op: Arc<Op>,
}

/// The process-wide helper threads: yielding while they watch `queued`, then parked on `wake`,
/// until a ticket is queued. They are never joined; like the published
/// crate's global pool they live until the process exits.
struct Helpers {
    state: Mutex<HelperState>,
    wake: Condvar,
    /// `state.tickets.len()`, readable without the lock.
    queued: AtomicUsize,
}

struct HelperState {
    tickets: VecDeque<Ticket>,
    threads: usize,
}

fn helpers() -> &'static Helpers {
    static HELPERS: OnceLock<Helpers> = OnceLock::new();
    HELPERS.get_or_init(|| Helpers {
        state: Mutex::new(HelperState { tickets: VecDeque::new(), threads: 0 }),
        wake: Condvar::new(),
        queued: AtomicUsize::new(0),
    })
}

fn helper_loop(pool: &'static Helpers) {
    loop {
        yield_until(|| pool.queued.load(Ordering::SeqCst) > 0);
        let ticket = {
            let mut state = pool.state.lock().expect("no code panics holding this lock");
            loop {
                if let Some(ticket) = state.tickets.pop_front() {
                    pool.queued.store(state.tickets.len(), Ordering::SeqCst);
                    break ticket;
                }
                state = pool.wake.wait(state).expect("no code panics holding this lock");
            }
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(ticket.work)) {
            *ticket.op.panic.lock().expect("no code panics holding this lock") = Some(payload);
        }
        // Last use of `ticket.work`: the caller may return once this settles.
        ticket.op.settle(1);
    }
}

/// Withdraws the operation's unclaimed tickets and waits for the claimed
/// ones, also when the caller's own share panics.
struct Settle<'a> {
    op: &'a Arc<Op>,
}

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        let pool = helpers();
        let withdrawn = {
            let mut state = pool.state.lock().expect("no code panics holding this lock");
            let before = state.tickets.len();
            state.tickets.retain(|t| !Arc::ptr_eq(&t.op, self.op));
            pool.queued.store(state.tickets.len(), Ordering::SeqCst);
            before - state.tickets.len()
        };
        self.op.settle(withdrawn);
        self.op.wait_settled();
    }
}

/// Runs `work` on the calling thread and on up to `count` pool threads at
/// once, and returns when all of them are done with it.
fn run_with_helpers(count: usize, work: &(dyn Fn() + Sync)) {
    let op = Arc::new(Op {
        pending: AtomicUsize::new(count),
        gate: Mutex::new(()),
        settled: Condvar::new(),
        panic: Mutex::new(None),
    });
    // SAFETY: the reference is handed to pool threads only inside tickets of
    // `op`. `Settle`, dropped before this function returns or unwinds,
    // removes every ticket still queued and blocks until `pending` reads 0,
    // which a thread that took a ticket brings about only after its last use
    // of the reference (`SeqCst` on both sides orders that use before the
    // return). So no use outlives the borrow.
    let shared: &'static (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
    let pool = helpers();
    let settle = Settle { op: &op };
    {
        let mut state = pool.state.lock().expect("no code panics holding this lock");
        for _ in 0..count {
            state.tickets.push_back(Ticket { work: shared, op: Arc::clone(&op) });
        }
        pool.queued.store(state.tickets.len(), Ordering::SeqCst);
        while state.threads < count {
            state.threads += 1;
            std::thread::spawn(move || helper_loop(pool));
        }
    }
    pool.wake.notify_all();
    work();
    drop(settle);
    let payload = op.panic.lock().expect("no code panics holding this lock").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Cuts `producer` into parts, folds each part with `fold` on the current
/// pool's threads, and returns the per-part results in input order.
pub(crate) fn drive<P, R>(producer: P, fold: impl Fn(P) -> R + Sync) -> Vec<R>
where
    P: iter::ParallelIterator,
    R: Send,
{
    let width = current_num_threads();
    let len = producer.len();
    if width <= 1 || len <= 1 || IN_WORKER.with(Cell::get) {
        return vec![fold(producer)];
    }

    let parts = len.min(width * PARTS_PER_THREAD);
    let mut inputs: Vec<Mutex<Option<P>>> = Vec::with_capacity(parts);
    let mut rest = producer;
    let mut remaining = len;
    for left in (1..=parts).rev() {
        // Even split of what remains over the parts still to cut.
        let take = remaining / left;
        let (head, tail) = rest.split_at(take);
        inputs.push(Mutex::new(Some(head)));
        rest = tail;
        remaining -= take;
    }
    drop(rest);

    let outputs: Vec<Mutex<Option<R>>> = (0..parts).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let _width = Restore::set(&INSTALLED_WIDTH, width);
        let _nested = Restore::set(&IN_WORKER, true);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= parts {
                break;
            }
            let part = inputs[i]
                .lock()
                .expect("part slots are only locked to move a value")
                .take()
                .expect("each part index is claimed once");
            let out = fold(part);
            *outputs[i].lock().expect("result slots are only locked to move a value") = Some(out);
        }
    };
    run_with_helpers(width.min(parts) - 1, &work);
    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a part that panicked has been resumed by run_with_helpers")
                .expect("every part was folded")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn pool(width: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(width).build().expect("pool builds")
    }

    #[test]
    fn results_keep_input_order_at_every_width() {
        let expect: Vec<u64> = (0..10_000u64).map(|x| x * x).collect();
        for width in [1, 2, 3, 8] {
            let got: Vec<u64> =
                pool(width).install(|| (0..10_000u64).into_par_iter().map(|x| x * x).collect());
            assert_eq!(got, expect, "width {width}");
        }
    }

    #[test]
    fn helpers_borrow_the_callers_stack() {
        let mut out = vec![0usize; 1000];
        let offset = 7;
        pool(4).install(|| out.par_iter_mut().enumerate().for_each(|(i, slot)| *slot = i + offset));
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + offset));
    }

    #[test]
    fn concurrent_callers_share_the_helpers() {
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    for round in 0..200u64 {
                        let sum: u64 = pool(3)
                            .install(|| (0..1000u64).into_par_iter().map(|x| x + t + round).sum());
                        assert_eq!(sum, 499_500 + 1000 * (t + round));
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_part_panics_the_caller_and_the_pool_survives() {
        let caught = catch_unwind(|| {
            pool(4).install(|| {
                (0..64u32).into_par_iter().for_each(|i| assert!(i != 63, "part failed"))
            })
        });
        assert!(caught.is_err());
        let sum: u32 = pool(4).install(|| (0..64u32).into_par_iter().sum());
        assert_eq!(sum, 2016);
    }

    #[test]
    fn nested_calls_run_on_the_worker() {
        let total: usize = pool(2).install(|| {
            (0..8usize).into_par_iter().map(|_| (0..100usize).into_par_iter().count()).sum()
        });
        assert_eq!(total, 800);
    }
}
