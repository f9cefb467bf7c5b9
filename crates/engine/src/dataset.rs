//! `Pdd<T>` — partitioned distributed dataset, the RDD analogue.
//!
//! Operators execute eagerly, one task per partition on the ambient rayon
//! pool, and record their counts into [`JobMetrics`]. The operator set is
//! exactly what `csb-core`'s distributed generators call:
//! `sample_with_replacement` (PGPBA's first preferential-attachment stage,
//! `RDD.sample(true, fraction)`), `flat_map` / `flat_map_indexed` (PGPBA's
//! per-record attachment, PGSK's descent batches and re-inflation), `union`,
//! and `distinct` (PGSK discards conflicting Kronecker descents with
//! `RDD.distinct()`).
//!
//! An operator's output is a function of *(seed, partition index, index in
//! partition)*, never of which thread ran a partition, so results are
//! identical at every pool width.

use crate::metrics::JobMetrics;
use crate::retry::TaskPolicy;
use csb_stats::rng::rng_for;
use rand::Rng;
use rayon::prelude::*;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// A dataset split into partitions, processed in parallel.
///
/// ```
/// use csb_engine::{JobMetrics, Pdd};
///
/// let metrics = JobMetrics::new();
/// let d = Pdd::from_vec((0u64..100).collect(), 8, metrics.clone());
/// let distinct_halves = d.flat_map(|x| [x / 2]).distinct();
/// assert_eq!(distinct_halves.count(), 50);
/// // Every operator reported its record counts for the cluster cost model.
/// assert!(metrics.ops().iter().any(|o| o.op == "distinct" && o.shuffled > 0));
/// ```
#[derive(Debug, Clone)]
pub struct Pdd<T> {
    partitions: Vec<Vec<T>>,
    driver: Driver,
}

/// What every dataset of one job shares: where its operators report and the
/// policy their tasks run under.
#[derive(Debug, Clone)]
struct Driver {
    metrics: JobMetrics,
    tasks: TaskPolicy,
}

/// The engine's one spawn site: runs `task(partition index, input)` for
/// every input on the ambient rayon pool and returns the results in
/// partition order. Pool threads do not inherit the caller's recorder scope,
/// so it is captured once and re-installed per task; each task is an
/// `engine.partition` span on the thread that ran it.
fn run_partitions<I: Send, U: Send>(inputs: Vec<I>, task: impl Fn(usize, I) -> U + Sync) -> Vec<U> {
    let _job = csb_obs::span_cat("engine.for_each_partition", "engine");
    let recorder = csb_obs::recorder::current();
    inputs
        .into_par_iter()
        .enumerate()
        .map(|(p, input)| {
            let _obs_scope = recorder.install();
            let _part = csb_obs::span_cat("engine.partition", "engine");
            task(p, input)
        })
        .collect()
}

impl Driver {
    /// One operator: a task per partition behind the [`TaskPolicy`] gate,
    /// then one [`JobMetrics`] record. `inputs` are the upstream partitions,
    /// owned or borrowed.
    fn run_op<I: Send, U: Send>(
        &self,
        name: &'static str,
        records_in: u64,
        shuffled: u64,
        inputs: Vec<I>,
        f: impl Fn(usize, I) -> Vec<U> + Sync,
    ) -> Pdd<U> {
        let op = self.tasks.next_op();
        let partitions = run_partitions(inputs, |p, input| {
            self.tasks.gate(op, p);
            f(p, input)
        });
        let out = Pdd { partitions, driver: self.clone() };
        self.metrics.record(name, records_in, out.count(), shuffled);
        out
    }
}

impl<T: Send> Pdd<T> {
    /// Distributes `data` round-robin over `partitions` partitions.
    pub fn from_vec(data: Vec<T>, partitions: usize, metrics: JobMetrics) -> Self {
        let nparts = partitions.max(1);
        let mut parts: Vec<Vec<T>> = (0..nparts)
            .map(|i| Vec::with_capacity(data.len() / nparts + usize::from(i == 0)))
            .collect();
        let n = data.len() as u64;
        for (i, item) in data.into_iter().enumerate() {
            parts[i % nparts].push(item);
        }
        metrics.record("parallelize", 0, n, 0);
        Pdd { partitions: parts, driver: Driver { metrics, tasks: TaskPolicy::default() } }
    }

    /// An empty dataset with the given partitioning.
    pub fn empty(partitions: usize, metrics: JobMetrics) -> Self {
        let mut parts = Vec::new();
        parts.resize_with(partitions.max(1), Vec::new);
        Pdd { partitions: parts, driver: Driver { metrics, tasks: TaskPolicy::default() } }
    }

    /// Replaces the task retry/fault policy; downstream datasets inherit it.
    pub fn with_tasks(mut self, tasks: TaskPolicy) -> Self {
        self.driver.tasks = tasks;
        self
    }

    /// Total records.
    pub fn count(&self) -> u64 {
        self.partitions.iter().map(|p| p.len() as u64).sum()
    }

    /// Gathers all records to the caller ("driver"), draining the dataset.
    pub fn collect(self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.count() as usize);
        for p in self.partitions {
            out.extend(p);
        }
        out
    }

    /// Per-partition record counts.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(Vec::len).collect()
    }

    /// One-to-many map.
    pub fn flat_map<U: Send, I, F>(self, f: F) -> Pdd<U>
    where
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync,
    {
        let n_in = self.count();
        self.driver.run_op("flat_map", n_in, 0, self.partitions, |_, part| {
            part.into_iter().flat_map(&f).collect()
        })
    }

    /// Flat-map with `(partition, index_in_partition, item)` — the hook
    /// distributed algorithms use to derive deterministic per-record RNG
    /// streams and globally unique ids (via per-partition offsets).
    pub fn flat_map_indexed<U: Send, I, F>(self, f: F) -> Pdd<U>
    where
        I: IntoIterator<Item = U>,
        F: Fn(usize, usize, T) -> I + Send + Sync,
    {
        let n_in = self.count();
        self.driver.run_op("flat_map_indexed", n_in, 0, self.partitions, |p, part| {
            part.into_iter().enumerate().flat_map(|(i, x)| f(p, i, x)).collect()
        })
    }

    /// Sample *with replacement*: each record contributes `Poisson(fraction)`
    /// copies — `RDD.sample(true, fraction)` in Spark terms, which is what
    /// lets PGPBA run with `fraction = 2` (the paper's performance setting).
    pub fn sample_with_replacement(&self, fraction: f64, seed: u64) -> Pdd<T>
    where
        T: Clone + Sync,
    {
        assert!(fraction >= 0.0 && fraction.is_finite(), "fraction must be non-negative");
        let inputs: Vec<&Vec<T>> = self.partitions.iter().collect();
        self.driver.run_op("sample_with_replacement", self.count(), 0, inputs, |p, part| {
            let mut rng = rng_for(seed, 0x5A17 ^ p as u64);
            let mut out = Vec::new();
            for x in part {
                for _ in 0..poisson(fraction, &mut rng) {
                    out.push(x.clone());
                }
            }
            out
        })
    }

    /// Concatenates two datasets (keeps left's partition count by merging
    /// pairwise, wrapping the extra partitions around).
    pub fn union(mut self, other: Pdd<T>) -> Pdd<T> {
        let n = self.partitions.len();
        for (i, part) in other.partitions.into_iter().enumerate() {
            self.partitions[i % n].extend(part);
        }
        self.driver.metrics.record("union", 0, self.count(), 0);
        self
    }
}

/// Knuth's Poisson sampler — fine for the small means (fractions) used here.
fn poisson<R: Rng>(lambda: f64, rng: &mut R) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    // FxHash-style multiply-xor; cheap and adequate for partitioning.
    struct Fx(u64);
    impl Hasher for Fx {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    let mut h = Fx(0xcbf2_9ce4_8422_2325);
    x.hash(&mut h);
    h.finish()
}

impl<T: Send + Hash + Eq + Clone> Pdd<T> {
    /// Hash-shuffles records so equal records land in the same partition,
    /// then deduplicates — `RDD.distinct()`, the operator PGSK relies on to
    /// discard conflicting edges generated by independent recursive descents.
    pub fn distinct(self) -> Pdd<T> {
        let n_in = self.count();
        let nparts = self.partitions.len();
        // Shuffle write: every producer buckets its records by hash.
        let bucketed: Vec<Vec<Vec<T>>> = run_partitions(self.partitions, |_, part| {
            let mut buckets: Vec<Vec<T>> = Vec::new();
            buckets.resize_with(nparts, Vec::new);
            for x in part {
                buckets[(hash_of(&x) % nparts as u64) as usize].push(x);
            }
            buckets
        });
        // Shuffle read: transpose, producers in order.
        let mut gathered: Vec<Vec<T>> = Vec::new();
        gathered.resize_with(nparts, Vec::new);
        for producer in bucketed {
            for (b, bucket) in producer.into_iter().enumerate() {
                gathered[b].extend(bucket);
            }
        }
        // Every record crosses the shuffle, then each partition dedups.
        let out = self.driver.run_op("distinct", n_in, n_in, gathered, |_, part| {
            let mut seen = HashSet::with_capacity(part.len());
            part.into_iter().filter(|x| seen.insert(x.clone())).collect()
        });
        csb_obs::obs_debug!("distinct: {n_in} in, {} out, {n_in} shuffled", out.count());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::ThreadPoolBuilder;

    fn pdd(data: Vec<u64>, parts: usize) -> Pdd<u64> {
        Pdd::from_vec(data, parts, JobMetrics::new())
    }

    /// Runs `f` inside a rayon pool of `width` threads.
    fn at_width<R: Send>(width: usize, f: impl FnOnce() -> R + Send) -> R {
        ThreadPoolBuilder::new().num_threads(width).build().expect("pool").install(f)
    }

    #[test]
    fn runner_visits_every_partition_once_in_order() {
        for width in [1, 4] {
            let out = at_width(width, || {
                run_partitions((0..64u64).collect(), |p, x| x + p as u64 * 1000)
            });
            let expect: Vec<u64> = (0..64).map(|i| i + i * 1000).collect();
            assert_eq!(out, expect, "width {width}");
        }
        let none = run_partitions(Vec::<u64>::new(), |_, _| panic!("no partitions"));
        assert!(none.is_empty());
    }

    #[test]
    fn runner_handles_uneven_work() {
        let parts: Vec<Vec<u64>> =
            (0..32).map(|i| if i % 7 == 0 { vec![0; 10_000] } else { vec![0; 10] }).collect();
        let out = at_width(8, || {
            run_partitions(parts, |_, mut part| {
                for (j, x) in part.iter_mut().enumerate() {
                    *x = j as u64;
                }
                part
            })
        });
        assert!(out.iter().all(|p| p.iter().enumerate().all(|(j, &x)| x == j as u64)));
    }

    #[test]
    fn count_and_collect() {
        let d = pdd((0..100).collect(), 8);
        assert_eq!(d.count(), 100);
        assert_eq!(d.partition_sizes().len(), 8);
        let mut all = d.collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn flat_map_expands_and_drops() {
        let d = pdd((0..10).collect(), 3);
        let out = d.flat_map(|x| if x % 2 == 0 { vec![x, x + 100] } else { vec![] });
        let mut all = out.collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 2, 4, 6, 8, 100, 102, 104, 106, 108]);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let mut data: Vec<u64> = (0..1000).collect();
        data.extend(0..500);
        data.extend(0..250);
        let d = pdd(data, 8).distinct();
        assert_eq!(d.count(), 1000);
        let mut all = d.collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_records_shuffle_metrics() {
        let m = JobMetrics::new();
        let d = Pdd::from_vec(vec![1u64, 1, 2, 2, 3], 4, m.clone());
        let _ = d.distinct();
        let ops = m.ops();
        let distinct = ops.iter().find(|o| o.op == "distinct").expect("recorded");
        assert_eq!(distinct.records_in, 5);
        assert_eq!(distinct.records_out, 3);
        assert_eq!(distinct.shuffled, 5);
    }

    #[test]
    fn flat_map_indexed_gives_unique_coordinates() {
        let d = pdd((0..100).collect(), 7);
        let coords = d.flat_map_indexed(|p, i, _| [(p, i)]).collect();
        let set: HashSet<_> = coords.iter().collect();
        assert_eq!(set.len(), 100, "coordinates must be unique");
    }

    #[test]
    fn flat_map_indexed_expands() {
        let d = pdd(vec![10, 20], 1);
        let mut out = d.flat_map_indexed(|_, i, x| vec![x, x + i as u64]).collect();
        out.sort_unstable();
        assert_eq!(out, vec![10, 10, 20, 21]);
    }

    #[test]
    fn sample_with_replacement_matches_mean() {
        let d = pdd((0..50_000).collect(), 8);
        for fraction in [0.5, 2.0] {
            let n = d.sample_with_replacement(fraction, 9).count() as f64;
            let expect = 50_000.0 * fraction;
            assert!(
                (n - expect).abs() < expect * 0.05,
                "fraction {fraction}: got {n}, expected {expect}"
            );
        }
        assert_eq!(d.sample_with_replacement(0.0, 1).count(), 0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        let _ = pdd(vec![1], 1).sample_with_replacement(-0.5, 0);
    }

    #[test]
    fn union_concatenates() {
        let a = pdd(vec![1, 2, 3], 2);
        let b = pdd(vec![4, 5], 3);
        let mut all = a.union(b).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_dataset_operations() {
        let d: Pdd<u64> = Pdd::empty(4, JobMetrics::new());
        assert_eq!(d.count(), 0);
        let d = d.flat_map(|x| [x + 1]);
        assert_eq!(d.count(), 0);
        assert_eq!(d.distinct().count(), 0);
    }

    #[test]
    fn fault_injected_pipeline_matches_clean_run_and_counts_retries() {
        use crate::retry::{FaultConfig, RetryPolicy};
        let _guard = csb_obs::span::test_lock();
        csb_obs::reset();
        csb_obs::enable();
        let flaky =
            TaskPolicy::new(RetryPolicy { max_retries: 60, base_delay_ms: 0, max_delay_ms: 0 })
                .with_fault(FaultConfig { failure_probability: 0.3, seed: 11 });
        let data: Vec<u64> = (0..5000).map(|i| i % 900).collect();
        let chain = |d: Pdd<u64>| {
            d.flat_map(|x| (x % 2 == 0).then_some(x * 3))
                .sample_with_replacement(1.5, 4)
                .distinct()
                .collect()
        };
        let clean = chain(pdd(data.clone(), 8));
        let faulty = chain(pdd(data, 8).with_tasks(flaky));
        csb_obs::disable();
        assert_eq!(clean, faulty, "injected faults must only delay tasks, never change data");
        let counters = csb_obs::snapshot_metrics().counters;
        let get = |name: &str| counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
        assert!(get("engine.task_failures") > 0, "30% fault rate must trip at least once");
        assert!(get("engine.task_retries") > 0, "failed tasks must be retried");
    }
}
