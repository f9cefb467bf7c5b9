//! Streaming generation: run the generators into an [`EdgeSink`] instead of
//! materializing a [`NetflowGraph`](csb_graph::NetflowGraph) in memory.
//!
//! The attribute-attachment phase runs the same per-chunk kernel as
//! [`attach_properties`](crate::topo::attach_properties), so a store-backed
//! run produces the identical edge set to the in-memory path, just emitted
//! incrementally: a window of [`WINDOW_CHUNKS`] chunks is sampled on the
//! pool, then pushed to the sink in index order on the calling thread, and
//! the next window starts. That is what lets `csb export --format store`
//! write a multi-gigabyte graph while holding only the topology plus one
//! window of properties, and sample it at the pool's width.

use crate::analysis::PropertyModel;
use crate::topo::{vertex_ips, AttachKernel, Topology, ATTACH_CHUNK};
use csb_graph::EdgeProperties;
use csb_store::sink::CHUNK_RECORDS;
use csb_store::{EdgeSink, StoreError};
use rayon::prelude::*;

/// Attach chunks sampled ahead of the sink: one store chunk's worth of edges,
/// whatever the job's size.
const WINDOW_CHUNKS: usize = CHUNK_RECORDS / ATTACH_CHUNK;

/// Streams the attribute-attachment phase into `sink`: vertices first, then
/// edges in [`ATTACH_CHUNK`]-sized batches, in order, from the calling
/// thread. Returns the edge count.
pub fn attach_properties_to_sink<S: EdgeSink + ?Sized>(
    topo: &Topology,
    model: &PropertyModel,
    seed_vertex_ips: &[u32],
    seed: u64,
    sink: &mut S,
) -> Result<u64, StoreError> {
    let _attach = csb_obs::span_cat("attach", "gen");
    sink.push_vertices(&vertex_ips(topo, seed_vertex_ips))?;
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
    let kernel = AttachKernel::new(model, seed);
    let first_edge = (first_chunk * ATTACH_CHUNK).min(topo.edge_count());
    let (src, dst) = (&topo.src[first_edge..], &topo.dst[first_edge..]);
    // One window buffer for the whole job; every pass overwrites its live
    // prefix, which only the last window makes shorter.
    let window_edges = WINDOW_CHUNKS * ATTACH_CHUNK;
    let mut buffer = vec![EdgeProperties::placeholder(); window_edges.min(src.len())];
    for (w, (src, dst)) in src.chunks(window_edges).zip(dst.chunks(window_edges)).enumerate() {
        let live = &mut buffer[..src.len()];
        let window = first_chunk + w * WINDOW_CHUNKS;
        live.par_chunks_mut(ATTACH_CHUNK)
            .enumerate()
            .for_each(|(c, out)| kernel.sample_into(window + c, out));
        let endpoints = src.chunks(ATTACH_CHUNK).zip(dst.chunks(ATTACH_CHUNK));
        for ((src, dst), props) in endpoints.zip(live.chunks(ATTACH_CHUNK)) {
            sink.push_edges(src, dst, props)?;
        }
    }
    csb_obs::counter_add("attach.edges", topo.edge_count() as u64);
    Ok(topo.edge_count() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::{seed_from_trace, SeedBundle};
    use crate::topo::attach_properties;
    use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
    use csb_store::sink::MemoryGraphSink;

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

    /// A topology of `edges` edges over a handful of vertices.
    fn ring(edges: usize) -> Topology {
        Topology {
            num_vertices: 16,
            src: (0..edges as u32).map(|i| i % 16).collect(),
            dst: (0..edges as u32).map(|i| (i * 7 + 1) % 16).collect(),
        }
    }

    fn in_pool<T: Send>(width: usize, f: impl FnOnce() -> T + Send) -> T {
        rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool").install(f)
    }

    /// Records what a driver pushes; optionally claims a durable prefix, and
    /// fails the push that would start at edge `fail_at`.
    #[derive(Default)]
    struct ProbeSink {
        durable: u64,
        fail_at: Option<u64>,
        noted: Vec<u64>,
        /// First edge and length of every accepted push.
        pushes: Vec<(u64, usize)>,
        next_edge: u64,
        props: Vec<EdgeProperties>,
    }

    impl EdgeSink for ProbeSink {
        fn push_vertices(&mut self, _ips: &[u32]) -> Result<(), StoreError> {
            Ok(())
        }

        fn push_edges(
            &mut self,
            src: &[u32],
            _dst: &[u32],
            props: &[EdgeProperties],
        ) -> Result<(), StoreError> {
            if self.fail_at == Some(self.next_edge) {
                return Err(StoreError::Transient(format!("edge {}", self.next_edge)));
            }
            self.pushes.push((self.next_edge, src.len()));
            self.next_edge += src.len() as u64;
            self.props.extend_from_slice(props);
            Ok(())
        }

        fn resume_skip_edges(&self) -> u64 {
            self.durable
        }

        fn note_skipped_edges(&mut self, n: u64) {
            self.noted.push(n);
            self.next_edge = n;
        }
    }

    #[test]
    fn sink_driver_equals_the_collecting_driver_at_every_size_and_width() {
        let seed = small_seed();
        let model = &seed.analysis.properties;
        let window = WINDOW_CHUNKS * ATTACH_CHUNK;
        let sizes = [0, 1, ATTACH_CHUNK - 1, ATTACH_CHUNK, window - 1, window + 1, 3 * window + 5];
        for edges in sizes {
            let topo = ring(edges);
            let want = in_pool(1, || attach_properties(&topo, model, &[9, 8], 5));
            for width in [1, 2, 4] {
                let got = in_pool(width, || {
                    let mut sink = MemoryGraphSink::new();
                    let n = attach_properties_to_sink(&topo, model, &[9, 8], 5, &mut sink);
                    assert_eq!(n.expect("stream"), edges as u64);
                    sink.into_graph()
                });
                assert_graphs_equal(&want, &got);
            }
        }
    }

    #[test]
    fn resumed_sink_driver_pushes_the_suffix_the_serial_loop_pushed() {
        let seed = small_seed();
        let model = &seed.analysis.properties;
        let chunks = 2 * WINDOW_CHUNKS + 4;
        let topo = ring(chunks * ATTACH_CHUNK - 100);
        let all = attach_properties(&topo, model, &[], 5);
        // Durable edges landing inside the first window, on the boundary of
        // the second, inside a chunk of the last, and past the last chunk.
        let inside = 3 * ATTACH_CHUNK + 17;
        let boundary = WINDOW_CHUNKS * ATTACH_CHUNK;
        let last = (chunks - 1) * ATTACH_CHUNK + 1;
        for durable in [0, 17, inside, boundary, last, topo.edge_count()] {
            let first_chunk = durable / ATTACH_CHUNK;
            let from = (first_chunk * ATTACH_CHUNK).min(topo.edge_count());
            let recorder = csb_obs::Recorder::new();
            let mut sink = ProbeSink { durable: durable as u64, ..ProbeSink::default() };
            // Recorder scopes are per thread, and `install` may run the
            // closure on a pool thread: scope the recorder inside it.
            in_pool(2, || {
                let _scope = recorder.install();
                attach_properties_to_sink(&topo, model, &[], 5, &mut sink)
            })
            .expect("stream");
            // What `for chunk_idx in first_chunk..chunks { push }` did: one
            // note of the skipped whole chunks, then one push per chunk.
            let noted: Vec<u64> = (first_chunk > 0).then_some(from as u64).into_iter().collect();
            assert_eq!(sink.noted, noted, "durable {durable}");
            let pushes: Vec<(u64, usize)> = (first_chunk..chunks)
                .map(|c| (c * ATTACH_CHUNK, ATTACH_CHUNK.min(topo.edge_count() - c * ATTACH_CHUNK)))
                .map(|(start, len)| (start as u64, len))
                .collect();
            assert_eq!(sink.pushes, pushes, "durable {durable}");
            assert_eq!(sink.props, all.edge_data()[from..], "durable {durable}");
            let skipped = recorder.snapshot_metrics().counter("resume.chunks_skipped");
            assert_eq!(skipped.unwrap_or(0), first_chunk as u64, "durable {durable}");
        }
    }

    #[test]
    fn sink_error_surfaces_at_the_chunk_that_failed() {
        let seed = small_seed();
        let model = &seed.analysis.properties;
        let topo = ring(2 * WINDOW_CHUNKS * ATTACH_CHUNK);
        // The first chunk of all, one inside a window, the first of the next.
        for failing_chunk in [0, WINDOW_CHUNKS - 2, WINDOW_CHUNKS] {
            let fail_at = (failing_chunk * ATTACH_CHUNK) as u64;
            let mut sink = ProbeSink { fail_at: Some(fail_at), ..ProbeSink::default() };
            let err = in_pool(2, || attach_properties_to_sink(&topo, model, &[], 5, &mut sink))
                .expect_err("the sink's error must surface");
            assert_eq!(err.to_string(), format!("transient failure: edge {fail_at}"));
            assert_eq!(sink.pushes.len(), failing_chunk, "every earlier chunk was pushed");
            assert_eq!(sink.next_edge, fail_at, "and nothing after it");
        }
    }
}
