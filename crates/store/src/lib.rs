//! # csb-store
//!
//! The storage layer of the suite: a chunked, columnar, little-endian binary
//! format for property graphs and NetFlow records.
//!
//! The paper's generators run on Spark precisely because their targets
//! (2x10^10 edges) exceed one node's memory; this crate is the moral
//! equivalent of Spark's saved RDDs for our single-node reproduction. One
//! picture covers the write path — **record schema → re-chunker → layout** —
//! and the read path is its mirror:
//!
//! * [`format`] — the chunk format (fixed-width columns, per-chunk CRC32,
//!   trailing footer index) and the [`format::Record`] trait: a record kind
//!   is a column schema plus one impl.
//! * [`sink`] — [`sink::StoreSink`], the one re-chunking writer, over a
//!   [`sink::Layout`]: inline [`write::StoreWriter`], threaded
//!   [`shard::ShardedLayout`], or [`checkpoint::CheckpointedLayout`] whose
//!   barriers let a killed run resume byte-identically.
//! * [`read`] / [`ooc`] — readers, column projection and out-of-core scans;
//!   a plain file reads as a one-shard set.
//! * [`error`] — [`error::CsbError`], the suite-wide error enum with a
//!   transient/fatal classification the retry layer keys off.
//!
//! Every store operation is instrumented with `csb-obs` spans
//! (`store.write_chunk`, `store.read_chunk`) and counters
//! (`store.bytes_written`, `store.bytes_read`, `store.chunks_written`,
//! `store.chunks_read`).
//!
//! ```
//! use csb_store::sink::save_graph_to;
//! use csb_store::read::StoreReader;
//!
//! let g = csb_graph::NetflowGraph::new();
//! let bytes = save_graph_to(Vec::new(), &g).unwrap();
//! let h = StoreReader::new(std::io::Cursor::new(bytes)).unwrap().load_graph().unwrap();
//! assert_eq!(h.vertex_count(), 0);
//! ```

pub mod checkpoint;
pub mod codec;
pub mod crc32;
pub mod error;
pub mod format;
pub mod ooc;
pub mod read;
pub mod shard;
pub mod sink;
pub mod write;

pub use checkpoint::{CheckpointIdentity, CheckpointManifest, CheckpointedLayout};
pub use codec::{Codec, ColumnCodec, Compression};
pub use error::CsbError;
pub use format::{ChunkEntry, ChunkKind, Column, EdgeRecord, FileKind, Record, StoreError};
pub use ooc::StoreScan;
pub use read::{ColumnBlock, StoreReader};
pub use shard::{
    check_shard_count, load_graph_sharded, save_graph_sharded, save_labeled_flows_sharded,
    ShardSetManifest, ShardedLayout, ShardedScan, MAX_SHARDS,
};
pub use sink::{
    load_flows, load_graph, load_labeled_flows, push_graph, save_flows, save_graph, save_graph_to,
    save_labeled_flows, EdgeSink, Layout, MemoryGraphSink, StoreSink,
};
pub use write::StoreWriter;
