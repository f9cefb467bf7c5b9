//! Criterion benchmark of the parallel edge-materialization path: the
//! count → prefix-sum → parallel-write scheme plus bulk graph assembly,
//! against the same kernel on one thread. Feeds the
//! `BENCH_materialize.json` perf trajectory (see `bench_materialize`).
//!
//! Scale: the attach comparison runs at ~1M edges by default; `CSB_SCALE`
//! multiplies every workload.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use csb_bench::{scale, standard_seed_scaled, with_pool};
use csb_core::pgpba::pgpba_topology;
use csb_core::pgsk::pgsk_topology;
use csb_core::topo::{attach_properties, Topology};
use csb_core::{PgpbaConfig, PgskConfig};

/// A deterministic random-ish topology (cheap LCG, no growth model): the
/// attach benches measure materialization throughput, not generator logic.
fn synthetic_topology(vertices: u32, edges: usize) -> Topology {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as u32
    };
    let src = (0..edges).map(|_| next() % vertices).collect();
    let dst = (0..edges).map(|_| next() % vertices).collect();
    Topology { num_vertices: vertices, src, dst }
}

fn bench_attach(c: &mut Criterion) {
    let seed = standard_seed_scaled(0.1);
    let edges = (1_000_000.0 * scale()) as usize;
    let topo = synthetic_topology(50_000, edges.max(10_000));
    let mut group = c.benchmark_group("materialize_attach");
    group.sample_size(10);
    group.throughput(Throughput::Elements(topo.edge_count() as u64));
    group.bench_function("parallel", |b| {
        b.iter(|| attach_properties(&topo, &seed.analysis.properties, &[], 3))
    });
    group.bench_function("one_thread", |b| {
        b.iter(|| with_pool(1, || attach_properties(&topo, &seed.analysis.properties, &[], 3)))
    });
    group.finish();
}

fn bench_growth_materialization(c: &mut Criterion) {
    let seed = standard_seed_scaled(0.2);
    let seed_topo = Topology::of_graph(&seed.graph);
    let target = ((seed.edge_count() as f64) * 64.0 * scale()) as u64;
    let mut group = c.benchmark_group("materialize_topology");
    group.sample_size(10);
    group.throughput(Throughput::Elements(target));
    group.bench_function("pgpba", |b| {
        b.iter(|| {
            pgpba_topology(
                &seed_topo,
                &seed.analysis,
                &PgpbaConfig { desired_size: target, fraction: 1.0, seed: 1 },
            )
        })
    });
    group.bench_function("pgsk", |b| {
        b.iter(|| {
            pgsk_topology(
                &seed_topo,
                &seed.analysis,
                &PgskConfig {
                    desired_size: target,
                    seed: 1,
                    kronfit_iterations: 4,
                    kronfit_permutation_samples: 50,
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_attach, bench_growth_materialization);
criterion_main!(benches);
