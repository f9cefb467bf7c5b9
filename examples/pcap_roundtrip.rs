//! PCAP workflow: write a simulated capture to the classic libpcap on-disk
//! format, read it back, and export the resulting seed property-graph in the
//! csb text format — the interchange path a benchmark user follows to feed
//! external graph platforms.
//!
//! Run with: `cargo run --release --example pcap_roundtrip`

use csb::gen::seed_from_packets;
use csb::graph::io::write_graph;
use csb::net::pcap::{read_pcap, write_pcap};
use csb::net::traffic::sim::{TrafficSim, TrafficSimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TrafficSim::new(TrafficSimConfig {
        duration_secs: 20.0,
        sessions_per_sec: 30.0,
        seed: 9,
        ..TrafficSimConfig::default()
    })
    .generate();

    let dir = std::env::temp_dir().join("csb-example");
    std::fs::create_dir_all(&dir)?;
    let pcap_path = dir.join("capture.pcap");
    let graph_path = dir.join("seed.graph");

    // Write and re-read the capture in the on-disk PCAP format.
    write_pcap(std::fs::File::create(&pcap_path)?, &trace.packets)?;
    let bytes = std::fs::metadata(&pcap_path)?.len();
    let packets = read_pcap(std::fs::File::open(&pcap_path)?)?;
    assert_eq!(packets, trace.packets, "PCAP round trip must be lossless");
    println!("wrote {} packets ({} bytes) to {}", packets.len(), bytes, pcap_path.display());

    // Build the seed and export the property-graph.
    let seed = seed_from_packets(&packets);
    write_graph(std::fs::File::create(&graph_path)?, &seed.graph)?;
    println!(
        "seed graph: {} vertices / {} edges -> {}",
        seed.graph.vertex_count(),
        seed.graph.edge_count(),
        graph_path.display()
    );

    // Show the analysis the generators would consume.
    println!(
        "out-degree: mean {:.2}, max {}; in-bytes: mean {:.0} B, support {} values",
        seed.analysis.out_degree.mean(),
        seed.analysis.out_degree.max(),
        seed.analysis.properties.in_bytes().mean(),
        seed.analysis.properties.in_bytes().support_len()
    );
    Ok(())
}
