//! Criterion micro-benchmarks of the generators themselves: topology
//! growth, attribute generation, and the end-to-end paths — the local
//! counterparts of the paper's Figures 9-10.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use csb_bench::standard_seed_scaled;
use csb_core::pgpba::pgpba_topology;
use csb_core::pgsk::pgsk_topology;
use csb_core::topo::{attach_properties, Topology};
use csb_core::{pgpba, pgsk, PgpbaConfig, PgskConfig};

fn bench_topology_growth(c: &mut Criterion) {
    let seed = standard_seed_scaled(0.2);
    let seed_topo = Topology::of_graph(&seed.graph);
    let mut group = c.benchmark_group("topology_growth");
    for mult in [4u64, 16] {
        let target = seed.edge_count() as u64 * mult;
        group.throughput(Throughput::Elements(target));
        group.bench_with_input(BenchmarkId::new("pgpba", target), &target, |b, &t| {
            b.iter(|| {
                pgpba_topology(
                    &seed_topo,
                    &seed.analysis,
                    &PgpbaConfig { desired_size: t, fraction: 0.5, seed: 1 },
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("pgsk", target), &target, |b, &t| {
            b.iter(|| {
                pgsk_topology(
                    &seed_topo,
                    &seed.analysis,
                    &PgskConfig {
                        desired_size: t,
                        seed: 1,
                        kronfit_iterations: 4,
                        kronfit_permutation_samples: 50,
                    },
                )
            })
        });
    }
    group.finish();
}

fn bench_property_generation(c: &mut Criterion) {
    let seed = standard_seed_scaled(0.2);
    let seed_topo = Topology::of_graph(&seed.graph);
    let topo = pgpba_topology(
        &seed_topo,
        &seed.analysis,
        &PgpbaConfig { desired_size: seed.edge_count() as u64 * 8, fraction: 0.5, seed: 2 },
    );
    let mut group = c.benchmark_group("property_generation");
    group.throughput(Throughput::Elements(topo.edge_count() as u64));
    group.bench_function("attach_properties", |b| {
        b.iter(|| attach_properties(&topo, &seed.analysis.properties, &[], 3))
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let seed = standard_seed_scaled(0.1);
    let target = seed.edge_count() as u64 * 8;
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.throughput(Throughput::Elements(target));
    group.bench_function("pgpba_full", |b| {
        b.iter(|| pgpba(&seed, &PgpbaConfig { desired_size: target, fraction: 0.5, seed: 4 }))
    });
    group.bench_function("pgsk_full", |b| {
        b.iter(|| {
            pgsk(
                &seed,
                &PgskConfig {
                    desired_size: target,
                    seed: 4,
                    kronfit_iterations: 4,
                    kronfit_permutation_samples: 50,
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_topology_growth, bench_property_generation, bench_end_to_end);
criterion_main!(benches);
