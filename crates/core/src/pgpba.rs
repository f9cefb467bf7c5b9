//! Property-Graph Parallel Barabási-Albert (PGPBA), paper Fig. 2.
//!
//! The preferential attachment is the two-stage edge-list form of Alam et
//! al. [50]: sample an edge uniformly from the edge list, then pick one of
//! its endpoints uniformly. A vertex's probability of being picked is
//! proportional to its degree (it appears in the edge list once per incident
//! edge), so attachment is preferential, yet each pick is O(1) — the
//! property that makes the algorithm parallel and linear.
//!
//! Per iteration, `fraction * |E|` new vertices are created (the paper's
//! fixed-granularity variant). Each new vertex draws an out- and in-degree
//! from the seed distributions and connects both ways to its chosen
//! attachment point. After the size target is reached, every edge receives
//! attributes sampled from the seed's conditional property model.

use crate::analysis::SeedAnalysis;
use crate::config::PgpbaConfig;
use crate::seed::SeedBundle;
use crate::topo::{edge_windows, Topology};
use csb_graph::NetflowGraph;
use csb_stats::rng::rng_for;
use rand::Rng;
use rayon::prelude::*;

/// One new vertex's attachment plan, computed in parallel.
struct Attachment {
    dest: u32,
    out_edges: u64,
    in_edges: u64,
}

impl Attachment {
    /// Edges this vertex will materialize.
    fn edge_count(&self) -> usize {
        (self.out_edges + self.in_edges) as usize
    }
}

/// Grows the topology only (no attributes) — shared by [`pgpba`], the
/// distributed implementation, and the Fig. 10 no-properties benchmarks.
pub fn pgpba_topology(
    seed_topo: &Topology,
    analysis: &SeedAnalysis,
    cfg: &PgpbaConfig,
) -> Topology {
    cfg.validate();
    assert!(seed_topo.edge_count() > 0, "PGPBA needs a non-empty seed");
    let _grow = csb_obs::span_cat("pgpba.grow", "gen");
    let mut topo = seed_topo.clone();
    let mut iteration = 0u64;
    // Expected edges a new vertex contributes: used to clamp the final
    // iteration so the overshoot past `desired_size` stays within one mean
    // degree instead of one full iteration (with fraction >= 1 an unclamped
    // batch can multiply the edge count several-fold past the target).
    let mean_degree = (analysis.out_degree.mean() + analysis.in_degree.mean()).max(1.0);

    while (topo.edge_count() as u64) < cfg.desired_size {
        iteration += 1;
        // Stage 1 of the preferential attachment: sample fraction*|E| edges
        // uniformly (with replacement, so fraction > 1 works — the paper's
        // performance runs use fraction = 2).
        let edge_count = topo.edge_count();
        let remaining = cfg.desired_size - edge_count as u64;
        let needed = ((remaining as f64 / mean_degree).ceil() as usize).max(1);
        let new_vertices = ((cfg.fraction * edge_count as f64) as usize).max(1).min(needed);

        let attachments: Vec<Attachment> = (0..new_vertices)
            .into_par_iter()
            .map(|i| {
                let mut rng = rng_for(cfg.seed, (iteration << 32) | i as u64);
                let e = rng.gen_range(0..edge_count);
                // Stage 2: either endpoint of the sampled edge, uniformly.
                let dest = if rng.gen::<bool>() { topo.src[e] } else { topo.dst[e] };
                let mut out_edges = analysis.out_degree.sample(&mut rng);
                let in_edges = analysis.in_degree.sample(&mut rng);
                if out_edges == 0 && in_edges == 0 {
                    // Keep the growth loop productive: a fully isolated new
                    // vertex adds no edges, so force a single out-edge.
                    out_edges = 1;
                }
                Attachment { dest, out_edges, in_edges }
            })
            .collect();

        // Materialize: count per attachment, prefix-sum into disjoint output
        // windows, write every edge in parallel. Edge order is identical to
        // the serial push_edge loop this replaces (out-edges then in-edges,
        // in attachment order), so outputs are bit-for-bit unchanged.
        let _mat = csb_obs::span_cat("pgpba.materialize", "gen");
        let base = topo.num_vertices;
        topo.num_vertices += new_vertices as u32;
        let counts: Vec<usize> = attachments.iter().map(Attachment::edge_count).collect();
        let total: usize = counts.iter().sum();
        let start = topo.src.len();
        topo.src.resize(start + total, 0);
        topo.dst.resize(start + total, 0);
        let windows = edge_windows(&counts, &mut topo.src[start..], &mut topo.dst[start..]);
        windows.into_par_iter().zip(&attachments).enumerate().for_each(
            |(i, ((win_src, win_dst), a))| {
                let v = base + i as u32;
                let out = a.out_edges as usize;
                win_src[..out].fill(v);
                win_dst[..out].fill(a.dest);
                win_src[out..].fill(a.dest);
                win_dst[out..].fill(v);
            },
        );
        drop(_mat);
        csb_obs::counter_add("pgpba.iterations", 1);
        csb_obs::counter_add("pgpba.edges_materialized", total as u64);
        csb_obs::histogram_record("pgpba.batch_vertices", new_vertices as u64);
        csb_obs::obs_debug!(
            "pgpba iteration {iteration}: +{new_vertices} vertices, +{total} edges \
             ({} total)",
            topo.edge_count()
        );
    }
    topo
}

/// Runs the full PGPBA generator: grow the seed to `desired_size` edges,
/// then attach NetFlow attributes to every edge.
///
/// ```
/// use csb_core::{pgpba, seed_from_trace, PgpbaConfig};
/// use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
///
/// let trace = TrafficSim::new(TrafficSimConfig {
///     duration_secs: 5.0,
///     sessions_per_sec: 10.0,
///     seed: 1,
///     ..TrafficSimConfig::default()
/// })
/// .generate();
/// let seed = seed_from_trace(&trace);
/// let target = seed.edge_count() as u64 * 4;
/// let synthetic = pgpba(&seed, &PgpbaConfig { desired_size: target, fraction: 0.3, seed: 2 });
/// assert!(synthetic.edge_count() as u64 >= target);
/// ```
///
/// Compatibility wrapper: prefer [`GenJob::pgpba`](crate::GenJob::pgpba),
/// which also covers the timed, distributed, sink, and checkpointed-store
/// execution paths.
pub fn pgpba(seed: &SeedBundle, cfg: &PgpbaConfig) -> NetflowGraph {
    let run = crate::GenJob::pgpba(seed, *cfg).run().expect("in-memory runs cannot fail");
    run.graph.expect("memory output always holds the graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::seed_from_trace;
    use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
    use csb_stats::veracity::{average_euclidean_distance, NormalizedDistribution};

    fn small_seed() -> SeedBundle {
        let trace = TrafficSim::new(TrafficSimConfig {
            duration_secs: 20.0,
            sessions_per_sec: 25.0,
            seed: 42,
            ..TrafficSimConfig::default()
        })
        .generate();
        seed_from_trace(&trace)
    }

    #[test]
    fn reaches_desired_size() {
        let seed = small_seed();
        let target = seed.edge_count() as u64 * 8;
        let g = pgpba(&seed, &PgpbaConfig { desired_size: target, fraction: 0.3, seed: 1 });
        assert!(g.edge_count() as u64 >= target, "{} < {target}", g.edge_count());
        // Overshoot is bounded by one iteration's worth of growth.
        assert!((g.edge_count() as u64) < target * 3, "overshoot too large: {}", g.edge_count());
        assert!(g.vertex_count() > seed.graph.vertex_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 5_000, fraction: 0.5, seed: 9 };
        let a = pgpba(&seed, &cfg);
        let b = pgpba(&seed, &cfg);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.vertex_count(), b.vertex_count());
        for (ea, eb) in a.edges().zip(b.edges()) {
            assert_eq!(ea.1, eb.1);
            assert_eq!(ea.2, eb.2);
            assert_eq!(ea.3, eb.3);
        }
    }

    #[test]
    fn seed_is_prefix_of_synthetic() {
        // PGPBA grows G' from G: the seed's topology must survive verbatim.
        let seed = small_seed();
        let topo = pgpba_topology(
            &Topology::of_graph(&seed.graph),
            &seed.analysis,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 4, fraction: 0.2, seed: 3 },
        );
        let orig = Topology::of_graph(&seed.graph);
        assert_eq!(&topo.src[..orig.edge_count()], &orig.src[..]);
        assert_eq!(&topo.dst[..orig.edge_count()], &orig.dst[..]);
    }

    #[test]
    fn degree_distribution_shape_is_preserved() {
        let seed = small_seed();
        let target = seed.edge_count() as u64 * 16;
        let g = pgpba(&seed, &PgpbaConfig { desired_size: target, fraction: 0.1, seed: 5 });
        let seed_deg: Vec<u64> = seed
            .graph
            .in_degrees()
            .iter()
            .zip(seed.graph.out_degrees().iter())
            .map(|(a, b)| a + b)
            .collect();
        let synth_deg: Vec<u64> =
            g.in_degrees().iter().zip(g.out_degrees().iter()).map(|(a, b)| a + b).collect();
        let score = average_euclidean_distance(
            &NormalizedDistribution::from_u64(&seed_deg),
            &NormalizedDistribution::from_u64(&synth_deg),
        );
        assert!(score < 0.01, "veracity score too high: {score}");
    }

    #[test]
    fn preferential_attachment_creates_heavy_tail() {
        let seed = small_seed();
        let g = pgpba(
            &seed,
            &PgpbaConfig { desired_size: seed.edge_count() as u64 * 16, fraction: 0.3, seed: 7 },
        );
        let total: Vec<u64> =
            g.in_degrees().iter().zip(g.out_degrees().iter()).map(|(a, b)| a + b).collect();
        let max = *total.iter().max().expect("non-empty") as f64;
        let mean = total.iter().sum::<u64>() as f64 / total.len() as f64;
        assert!(max > mean * 20.0, "no hub: max {max}, mean {mean}");
    }

    #[test]
    fn higher_fraction_fewer_iterations_same_size_class() {
        let seed = small_seed();
        let target = seed.edge_count() as u64 * 4;
        // The clamp bounds the final iteration at ceil(remaining / mean_deg)
        // vertices, each adding at most max_deg edges — so overshoot stays
        // within this data-driven bound even at fraction = 2.0, where an
        // unclamped batch would multiply the edge count several-fold.
        let mean_deg = (seed.analysis.out_degree.mean() + seed.analysis.in_degree.mean()).max(1.0);
        let max_deg = (seed.analysis.out_degree.max() + seed.analysis.in_degree.max()).max(1);
        let bound = target + (target as f64 / mean_deg).ceil() as u64 * max_deg;
        for fraction in [0.1, 0.3, 0.6, 0.9, 2.0] {
            let g = pgpba(&seed, &PgpbaConfig { desired_size: target, fraction, seed: 2 });
            assert!(g.edge_count() as u64 >= target, "fraction {fraction}");
            assert!(
                (g.edge_count() as u64) <= bound,
                "fraction {fraction}: overshoot past bound: {} > {bound}",
                g.edge_count()
            );
        }
    }
}
