//! Streaming generation: run the generators into an [`EdgeSink`] instead of
//! materializing a [`NetflowGraph`](csb_graph::NetflowGraph) in memory.
//!
//! The attribute-attachment phase replays *exactly* the deterministic
//! per-chunk RNG streams of [`attach_properties`](crate::topo::
//! attach_properties) — same [`ATTACH_CHUNK`] granularity, same stream
//! derivation — so a store-backed run produces the identical edge set to the
//! in-memory path, just emitted incrementally. That is what lets `csb export
//! --format store` write a multi-gigabyte graph while holding only the
//! topology plus one chunk of properties.

use crate::analysis::PropertyModel;
use crate::config::{PgpbaConfig, PgskConfig};
use crate::seed::SeedBundle;
use crate::topo::{Topology, ATTACH_CHUNK, SYNTHETIC_IP_BASE};
use csb_graph::EdgeProperties;
use csb_stats::rng::rng_for;
use csb_store::{EdgeSink, StoreError};

/// Streams the attribute-attachment phase into `sink`: vertices first, then
/// edges in [`ATTACH_CHUNK`]-sized batches with per-chunk RNG streams
/// identical to the parallel in-memory path. Returns the edge count.
pub fn attach_properties_to_sink<S: EdgeSink + ?Sized>(
    topo: &Topology,
    model: &PropertyModel,
    seed_vertex_ips: &[u32],
    seed: u64,
    sink: &mut S,
) -> Result<u64, StoreError> {
    let _attach = csb_obs::span_cat("attach", "gen");
    let n = topo.num_vertices as usize;
    let edge_count = topo.edge_count();
    let seed_n = seed_vertex_ips.len().min(n);
    let mut ips = seed_vertex_ips[..seed_n].to_vec();
    ips.extend((0..(n - seed_n) as u32).map(|i| SYNTHETIC_IP_BASE + i));
    sink.push_vertices(&ips)?;
    // Resume fast path: whole ATTACH_CHUNKs already durable in the sink need
    // no regeneration — tell the sink, then replay only from the chunk
    // containing the first non-durable edge (its durable prefix is dropped
    // by the sink's skip counter).
    let first_chunk = sink.resume_skip_edges() as usize / ATTACH_CHUNK;
    if first_chunk > 0 {
        sink.note_skipped_edges((first_chunk * ATTACH_CHUNK) as u64);
        csb_obs::counter_add("resume.chunks_skipped", first_chunk as u64);
        csb_obs::status::note_resume_skip(first_chunk as u64);
    }
    for chunk_idx in first_chunk..edge_count.div_ceil(ATTACH_CHUNK) {
        let _chunk = csb_obs::span_cat("attach.chunk", "gen");
        let mut rng = rng_for(seed, 0x9_0000_0000 + chunk_idx as u64);
        let start = chunk_idx * ATTACH_CHUNK;
        let len = ATTACH_CHUNK.min(edge_count - start);
        let props: Vec<EdgeProperties> = (0..len).map(|_| model.sample(&mut rng)).collect();
        sink.push_edges(&topo.src[start..start + len], &topo.dst[start..start + len], &props)?;
    }
    csb_obs::counter_add("attach.edges", edge_count as u64);
    Ok(edge_count as u64)
}

/// [`pgpba`](crate::pgpba::pgpba), streamed: grows the topology in memory
/// (it is a fraction of the final property volume), then streams attributed
/// edges into `sink`. Returns the edge count.
///
/// Compatibility wrapper: prefer
/// [`GenJob::pgpba(..).sink(..)`](crate::GenJob::sink).
pub fn pgpba_to_sink<S: EdgeSink>(
    seed: &SeedBundle,
    cfg: &PgpbaConfig,
    sink: &mut S,
) -> Result<u64, StoreError> {
    crate::GenJob::pgpba(seed, *cfg).sink(sink).run().map(|run| run.edges)
}

/// [`pgsk`](crate::pgsk::pgsk), streamed. Returns the edge count.
///
/// Compatibility wrapper: prefer
/// [`GenJob::pgsk(..).sink(..)`](crate::GenJob::sink).
pub fn pgsk_to_sink<S: EdgeSink>(
    seed: &SeedBundle,
    cfg: &PgskConfig,
    sink: &mut S,
) -> Result<u64, StoreError> {
    crate::GenJob::pgsk(seed, *cfg).sink(sink).run().map(|run| run.edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgpba::pgpba;
    use crate::pgsk::pgsk;
    use crate::seed::seed_from_trace;
    use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
    use csb_store::sink::{save_graph_to, MemoryGraphSink, StoreSink};
    use csb_store::{FileKind, StoreWriter};

    fn small_seed() -> SeedBundle {
        let trace = TrafficSim::new(TrafficSimConfig {
            duration_secs: 5.0,
            sessions_per_sec: 10.0,
            seed: 11,
            ..TrafficSimConfig::default()
        })
        .generate();
        seed_from_trace(&trace)
    }

    fn assert_graphs_equal(a: &csb_graph::NetflowGraph, b: &csb_graph::NetflowGraph) {
        assert_eq!(a.vertex_data(), b.vertex_data());
        assert_eq!(a.edge_sources(), b.edge_sources());
        assert_eq!(a.edge_targets(), b.edge_targets());
        assert_eq!(a.edge_data(), b.edge_data());
    }

    #[test]
    fn pgpba_to_sink_matches_in_memory_pgpba() {
        let seed = small_seed();
        let cfg = PgpbaConfig { desired_size: 12_000, fraction: 0.5, seed: 42 };
        let g = pgpba(&seed, &cfg);
        assert!(g.edge_count() > ATTACH_CHUNK, "test must span multiple RNG chunks");
        let mut sink = MemoryGraphSink::new();
        let n = pgpba_to_sink(&seed, &cfg, &mut sink).expect("stream");
        let h = sink.into_graph();
        assert_eq!(n as usize, g.edge_count());
        assert_graphs_equal(&g, &h);
    }

    #[test]
    fn pgsk_to_sink_matches_in_memory_pgsk() {
        let seed = small_seed();
        let cfg = PgskConfig { seed: 7, ..PgskConfig::new(2000) };
        let g = pgsk(&seed, &cfg);
        let mut sink = MemoryGraphSink::new();
        let n = pgsk_to_sink(&seed, &cfg, &mut sink).expect("stream");
        let h = sink.into_graph();
        assert_eq!(n as usize, g.edge_count());
        assert_graphs_equal(&g, &h);
    }

    #[test]
    fn store_sink_run_is_byte_identical_to_saving_the_in_memory_graph() {
        // The acceptance bar: a fixed-seed PGPBA run streamed straight into
        // a store sink produces the byte-identical file to generating in
        // memory and saving afterwards.
        let seed = small_seed();
        let cfg =
            PgpbaConfig { desired_size: seed.edge_count() as u64 * 4, fraction: 0.5, seed: 42 };
        let via_memory = save_graph_to(Vec::new(), &pgpba(&seed, &cfg)).expect("save");
        let mut sink =
            StoreSink::new(StoreWriter::new(Vec::new(), FileKind::Graph).expect("writer"));
        pgpba_to_sink(&seed, &cfg, &mut sink).expect("stream");
        let via_stream = sink.finish().expect("finish");
        assert_eq!(via_memory, via_stream, "store bytes must not depend on the generation path");
    }
}
