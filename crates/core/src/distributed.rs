//! Map-reduce implementations of PGPBA and PGSK on the `csb-engine`
//! dataflow — mirroring the paper's Spark/GraphX code path operator by
//! operator:
//!
//! * PGPBA: `RDD.sample()` over the edge dataset (stage 1 of the
//!   preferential attachment), per-record vertex creation and attachment
//!   (map side only — no shuffle), `union` back into the edge dataset.
//! * PGSK: recursive-descent batches as a `flat_map`, `RDD.distinct()` to
//!   discard conflicting descents, driver-side KronFit (as in SNAP),
//!   `flat_map` re-inflation, `map` property generation.
//!
//! The operators run over real partitions on a rayon pool of
//! [`DistConfig::threads`] threads built per run; the recorded
//! [`JobMetrics`] feed the simulated-cluster cost model for the paper-scale
//! performance figures.

use crate::config::{PgpbaConfig, PgskConfig};
use crate::kronecker::{generate_edges, Initiator};
use crate::pgsk::{expand, mean_duplication};
use crate::seed::SeedBundle;
use crate::topo::{attach_properties, Topology};
use csb_engine::{JobMetrics, Pdd, TaskPolicy};
use csb_graph::NetflowGraph;
use csb_stats::rng::{derive_seed, rng_for};
use rand::Rng;

/// Engine-level execution settings.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of dataset partitions (the paper tunes this to 2-4x the
    /// executor cores).
    pub partitions: usize,
    /// Width of the rayon pool built for the run (at least 1).
    pub threads: usize,
    /// Task retry/fault policy the engine runs every partition task under
    /// (retries with deterministic backoff; optional fault injection).
    pub tasks: TaskPolicy,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig { partitions: 8, threads: 4, tasks: TaskPolicy::default() }
    }
}

/// Runs one operator chain on a rayon pool of `threads` threads built for
/// it. `install` moves the chain to a pool thread, which does not inherit the
/// caller's recorder scope, so the scope is re-installed inside.
fn on_pool<R: Send>(threads: usize, chain: impl FnOnce() -> R + Send) -> R {
    let recorder = csb_obs::recorder::current();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("the OS spawns the engine pool's threads");
    pool.install(|| {
        let _obs_scope = recorder.install();
        chain()
    })
}

/// Distributed PGPBA: grows the topology on the dataflow engine.
/// Returns the topology and the recorded operator metrics.
pub fn pgpba_distributed(
    seed: &SeedBundle,
    cfg: &PgpbaConfig,
    dist: &DistConfig,
) -> (Topology, JobMetrics) {
    cfg.validate();
    on_pool(dist.threads, || {
        let _span = csb_obs::span_cat("pgpba.distributed", "engine");
        csb_obs::obs_info!(
            "distributed PGPBA: target {} edges on {} partitions / {} threads",
            cfg.desired_size,
            dist.partitions,
            dist.threads
        );
        let metrics = JobMetrics::new();
        let seed_topo = Topology::of_graph(&seed.graph);
        let seed_pairs: Vec<(u32, u32)> =
            seed_topo.src.iter().copied().zip(seed_topo.dst.iter().copied()).collect();

        let mut edges = Pdd::from_vec(seed_pairs, dist.partitions, metrics.clone())
            .with_tasks(dist.tasks.clone());
        let mut num_vertices = seed_topo.num_vertices;
        let mut iteration = 0u64;
        // Final-iteration clamp mirroring `pgpba_topology`: cap the sampling
        // fraction so the expected overshoot stays within one mean degree.
        let mean_degree =
            (seed.analysis.out_degree.mean() + seed.analysis.in_degree.mean()).max(1.0);

        while edges.count() < cfg.desired_size {
            iteration += 1;
            // Stage 1: sample fraction*|E| edges (with replacement, so
            // fraction > 1 works as in the paper's performance runs).
            let count = edges.count();
            let remaining = cfg.desired_size - count;
            let needed = (remaining as f64 / mean_degree).ceil().max(1.0);
            let fraction = cfg.fraction.min(needed / count as f64);
            let sampled = edges.sample_with_replacement(fraction, cfg.seed ^ iteration);
            if sampled.count() == 0 {
                continue;
            }
            // Globally unique new-vertex ids: per-partition offsets.
            let sizes = sampled.partition_sizes();
            let mut offsets = vec![0u32; sizes.len()];
            let mut acc = num_vertices;
            for (o, s) in offsets.iter_mut().zip(sizes.iter()) {
                *o = acc;
                acc += *s as u32;
            }
            num_vertices = acc;

            let analysis = &seed.analysis;
            let it = iteration;
            let master = cfg.seed;
            let new_edges = sampled.flat_map_indexed(move |p, i, (s, d)| {
                let mut rng = rng_for(master, (it << 40) ^ ((p as u64) << 24) ^ i as u64);
                let v = offsets[p] + i as u32;
                // Stage 2: one endpoint of the sampled edge, uniformly.
                let dest = if rng.gen::<bool>() { s } else { d };
                let mut out_d = analysis.out_degree.sample(&mut rng);
                let in_d = analysis.in_degree.sample(&mut rng);
                if out_d == 0 && in_d == 0 {
                    out_d = 1;
                }
                let mut out = Vec::with_capacity((out_d + in_d) as usize);
                for _ in 0..out_d {
                    out.push((v, dest));
                }
                for _ in 0..in_d {
                    out.push((dest, v));
                }
                out
            });
            edges = edges.union(new_edges);
            csb_obs::obs_debug!("distributed PGPBA iteration {iteration}: {} edges", edges.count());
        }

        let pairs = edges.collect();
        let topo = Topology {
            num_vertices,
            src: pairs.iter().map(|&(s, _)| s).collect(),
            dst: pairs.iter().map(|&(_, d)| d).collect(),
        };
        (topo, metrics)
    })
}

/// Distributed PGSK: Kronecker expansion with engine-side `distinct()`.
pub fn pgsk_distributed(
    seed: &SeedBundle,
    cfg: &PgskConfig,
    dist: &DistConfig,
) -> (Topology, JobMetrics) {
    cfg.validate();
    on_pool(dist.threads, || {
        let _span = csb_obs::span_cat("pgsk.distributed", "engine");
        csb_obs::obs_info!(
            "distributed PGSK: target {} edges on {} partitions / {} threads",
            cfg.desired_size,
            dist.partitions,
            dist.threads
        );
        let metrics = JobMetrics::new();
        let seed_topo = Topology::of_graph(&seed.graph);

        // Fig. 3 lines 1-5 on the engine: dedup the seed's edge multiset.
        let seed_pairs: Vec<(u32, u32)> =
            seed_topo.src.iter().copied().zip(seed_topo.dst.iter().copied()).collect();
        let simple_pdd = Pdd::from_vec(seed_pairs, dist.partitions, metrics.clone())
            .with_tasks(dist.tasks.clone())
            .distinct();
        let mut simple = simple_pdd.collect();
        simple.sort_unstable();

        // Driver-side KronFit (sequential in SNAP too); reuse the in-process
        // expansion sizing, then regenerate the descent on the engine.
        let dup = mean_duplication(&seed.analysis.out_degree).max(1.0);
        let target_distinct = ((cfg.desired_size as f64 / dup).ceil() as u64).max(1);
        let expansion = expand(&simple, seed_topo.num_vertices, target_distinct, cfg);
        let initiator: Initiator = expansion.initiator;
        let k = expansion.k;

        // Engine-side descent + distinct, batched until the target is met
        // (the paper's "parallel implementation of the recursive descent ...
        // called until the number of generated edges is equal or greater").
        let mut distinct: Pdd<(u64, u64)> =
            Pdd::empty(dist.partitions, metrics.clone()).with_tasks(dist.tasks.clone());
        let mut round = 0u64;
        while distinct.count() < target_distinct {
            round += 1;
            let remaining = (target_distinct - distinct.count()) as usize;
            let batch = (remaining * 5 / 4).max(64);
            // One record per chunk of descents keeps the flat_map balanced.
            const CHUNK: usize = 2048;
            let chunks: Vec<usize> = (0..batch.div_ceil(CHUNK)).collect();
            let gen_seed = cfg.seed ^ (0xD15C << 8) ^ round;
            let candidates = Pdd::from_vec(chunks, dist.partitions, metrics.clone())
                .with_tasks(dist.tasks.clone())
                .flat_map(move |c| {
                    let n = CHUNK.min(batch - c * CHUNK);
                    // Mixed, not added: `gen_seed + c` would let chunk c of one
                    // round replay a chunk of an adjacent round (the same replay
                    // bug `pgsk::expand` had across master seeds).
                    generate_edges(&initiator, k, n, derive_seed(gen_seed, c as u64))
                });
            distinct = distinct.union(candidates).distinct();
            csb_obs::obs_debug!(
                "distributed PGSK round {round}: {} of {target_distinct} distinct edges",
                distinct.count()
            );
            assert!(round < 10_000, "distributed PGSK expansion failed to converge");
        }

        // Re-inflation (lines 8-12) and vertex-id compaction.
        let analysis = &seed.analysis;
        let master = cfg.seed;
        let inflated = distinct.flat_map_indexed(move |p, i, (u, v)| {
            let mut rng = rng_for(master ^ 0xD0B, ((p as u64) << 40) ^ i as u64);
            let copies = analysis.out_degree.sample(&mut rng).max(1);
            std::iter::repeat_n((u, v), copies as usize).collect::<Vec<_>>()
        });
        let pairs = inflated.collect();
        let mut remap: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let mut next = 0u32;
        let mut topo = Topology::default();
        for &(u, v) in &pairs {
            let su = *remap.entry(u).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            let sv = *remap.entry(v).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            topo.src.push(su);
            topo.dst.push(sv);
        }
        topo.num_vertices = next;
        (topo, metrics)
    })
}

/// Materializes a distributed topology into a property-graph (shared final
/// phase; parallel attribute sampling).
pub fn materialize(topo: &Topology, seed: &SeedBundle, rng_seed: u64) -> NetflowGraph {
    let seed_ips: Vec<u32> = seed.graph.vertex_data().to_vec();
    attach_properties(topo, &seed.analysis.properties, &seed_ips, rng_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::seed_from_trace;
    use crate::veracity::{Metric, VeracityJob};
    use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};

    fn degree_veracity(seed: &NetflowGraph, synthetic: &NetflowGraph) -> f64 {
        VeracityJob::new()
            .seed_graph(seed)
            .synthetic_graph(synthetic)
            .metrics([Metric::Degree])
            .run()
            .expect("in-memory veracity")
            .score("degree")
            .expect("degree scored")
    }

    fn small_seed() -> SeedBundle {
        let trace = TrafficSim::new(TrafficSimConfig {
            duration_secs: 12.0,
            sessions_per_sec: 15.0,
            seed: 5,
            ..TrafficSimConfig::default()
        })
        .generate();
        seed_from_trace(&trace)
    }

    #[test]
    fn distributed_pgpba_reaches_size_and_preserves_shape() {
        let seed = small_seed();
        let target = seed.edge_count() as u64 * 6;
        let cfg = PgpbaConfig { desired_size: target, fraction: 0.5, seed: 1 };
        let (topo, metrics) = pgpba_distributed(&seed, &cfg, &DistConfig::default());
        assert!(topo.edge_count() as u64 >= target);
        assert!(!metrics.is_empty());
        // Same veracity regime as the in-process implementation.
        let g = materialize(&topo, &seed, 99);
        let score = degree_veracity(&seed.graph, &g);
        assert!(score < 0.01, "distributed PGPBA veracity {score}");
    }

    #[test]
    fn distributed_pgpba_keeps_seed_prefix() {
        let seed = small_seed();
        let cfg =
            PgpbaConfig { desired_size: seed.edge_count() as u64 * 2, fraction: 0.3, seed: 2 };
        let (topo, _) = pgpba_distributed(&seed, &cfg, &DistConfig::default());
        // Round-robin partitioning permutes order, but every seed edge must
        // still be present with at least seed multiplicity.
        let count = |pairs: &[(u32, u32)]| {
            let mut m = std::collections::HashMap::new();
            for &p in pairs {
                *m.entry(p).or_insert(0u64) += 1;
            }
            m
        };
        let seed_topo = Topology::of_graph(&seed.graph);
        let seed_pairs: Vec<(u32, u32)> =
            seed_topo.src.iter().copied().zip(seed_topo.dst.iter().copied()).collect();
        let out_pairs: Vec<(u32, u32)> =
            topo.src.iter().copied().zip(topo.dst.iter().copied()).collect();
        let seed_counts = count(&seed_pairs);
        let out_counts = count(&out_pairs);
        for (pair, &c) in &seed_counts {
            assert!(out_counts.get(pair).copied().unwrap_or(0) >= c, "seed edge {pair:?} lost");
        }
    }

    #[test]
    fn distributed_pgsk_reaches_size() {
        let seed = small_seed();
        let target = seed.edge_count() as u64 * 2;
        let cfg = PgskConfig {
            desired_size: target,
            seed: 3,
            kronfit_iterations: 6,
            kronfit_permutation_samples: 100,
        };
        let (topo, metrics) = pgsk_distributed(&seed, &cfg, &DistConfig::default());
        let got = topo.edge_count() as u64;
        assert!(got >= target / 2 && got <= target * 2, "target {target}, got {got}");
        // The engine must have shuffled for distinct().
        assert!(metrics.total_shuffled() > 0, "PGSK must shuffle");
        assert!(metrics.ops().iter().any(|o| o.op == "distinct"));
    }

    /// Both generators' topologies under `dist`, small enough to run often.
    fn topologies(seed: &SeedBundle, dist: &DistConfig) -> [Topology; 2] {
        let edges = seed.edge_count() as u64 * 2;
        let ba = PgpbaConfig { desired_size: edges, fraction: 0.4, seed: 7 };
        let sk = PgskConfig {
            desired_size: edges,
            seed: 3,
            kronfit_iterations: 6,
            kronfit_permutation_samples: 100,
        };
        [pgpba_distributed(seed, &ba, dist).0, pgsk_distributed(seed, &sk, dist).0]
    }

    #[test]
    fn distributed_runs_are_deterministic() {
        // Exact, not by count: an operator's output is a function of (seed,
        // partition, index in partition), so neither a second run, nor the
        // pool width, nor injected task failures may move one endpoint.
        let seed = small_seed();
        let at = |threads, tasks| topologies(&seed, &DistConfig { partitions: 8, threads, tasks });
        let reference = at(1, TaskPolicy::default());
        for threads in [1, 2, 4] {
            assert_eq!(at(threads, TaskPolicy::default()), reference, "{threads} threads");
        }
        let flaky = TaskPolicy::new(csb_engine::RetryPolicy {
            max_retries: 60,
            base_delay_ms: 0,
            max_delay_ms: 0,
        })
        .with_fault(csb_engine::FaultConfig { failure_probability: 0.1, seed: 11 });
        assert_eq!(at(4, flaky), reference, "10% injected task failures");
    }
}
