//! Integration tests across the on-disk formats: a capture survives
//! PCAP -> filter -> flows -> graph -> graph-text and NetFlow v5 exports,
//! with every stage consistent with the previous one.

use csb::graph::graph_from_flows;
use csb::graph::io::{read_graph, write_graph};
use csb::net::assembler::FlowAssembler;
use csb::net::netflow_v5::{read_netflow_v5, write_netflow_v5};
use csb::net::pcap::{read_pcap, write_pcap};
use csb::net::traffic::sim::{TrafficSim, TrafficSimConfig};
use csb::net::Filter;

fn capture() -> csb::net::Trace {
    TrafficSim::new(TrafficSimConfig {
        duration_secs: 15.0,
        sessions_per_sec: 20.0,
        seed: 17,
        ..TrafficSimConfig::default()
    })
    .generate()
}

#[test]
fn pcap_filter_flows_graph_chain() {
    let trace = capture();
    let mut pcap_bytes = Vec::new();
    write_pcap(&mut pcap_bytes, &trace.packets).expect("write pcap");
    let packets = read_pcap(&pcap_bytes[..]).expect("read pcap");
    assert_eq!(packets, trace.packets);

    // Filter down to TCP and rebuild.
    let tcp_only = Filter::parse("tcp").expect("filter").apply(&packets);
    assert!(!tcp_only.is_empty() && tcp_only.len() < packets.len());
    let flows = FlowAssembler::assemble(&tcp_only);
    assert!(flows.iter().all(|f| f.protocol == csb::net::Protocol::Tcp));

    // Graph text format round trip.
    let graph = graph_from_flows(&flows);
    let mut graph_bytes = Vec::new();
    write_graph(&mut graph_bytes, &graph).expect("write graph");
    let graph2 = read_graph(&graph_bytes[..]).expect("read graph");
    assert_eq!(graph.vertex_count(), graph2.vertex_count());
    assert_eq!(graph.edge_count(), graph2.edge_count());
    for (a, b) in graph.edges().zip(graph2.edges()) {
        assert_eq!(a.3, b.3, "edge attributes must survive the text format");
    }
}

#[test]
fn netflow_v5_export_preserves_flow_population() {
    let trace = capture();
    let flows = FlowAssembler::assemble(&trace.packets);
    let mut nf_bytes = Vec::new();
    write_netflow_v5(&mut nf_bytes, &flows).expect("write nf5");
    let parsed = read_netflow_v5(&nf_bytes[..]).expect("read nf5");
    assert_eq!(parsed.len(), flows.len(), "one v5 flow per assembled flow");
    // Aggregate byte/packet conservation (u32 fields suffice at this scale).
    let sum = |fs: &[csb::net::FlowRecord]| {
        (
            fs.iter().map(|f| f.total_bytes()).sum::<u64>(),
            fs.iter().map(|f| f.total_pkts()).sum::<u64>(),
        )
    };
    assert_eq!(sum(&flows), sum(&parsed));
    // The graphs built from both flow sets are identical in shape.
    let a = graph_from_flows(&flows);
    let b = graph_from_flows(&parsed);
    assert_eq!(a.vertex_count(), b.vertex_count());
    assert_eq!(a.edge_count(), b.edge_count());
}

#[test]
fn store_flow_columns_and_netflow_v5_agree_on_the_same_flows() {
    use csb::store::format::{CHUNK_HEADER_LEN, FILE_HEADER_LEN};
    use csb::store::StoreReader;
    use csb::store::{FileKind, StoreSink, StoreWriter};

    let trace = capture();
    let flows = FlowAssembler::assemble(&trace.packets);
    assert!(!flows.is_empty());

    // The store keeps every field: exact round trip.
    let mut sink = StoreSink::new(StoreWriter::new(Vec::new(), FileKind::Flows).expect("writer"));
    sink.push(flows.iter().copied()).expect("push");
    let store_bytes = sink.finish().expect("finish");
    let stored = StoreReader::new(std::io::Cursor::new(&store_bytes[..]))
        .expect("reader")
        .load_flows()
        .expect("load");
    assert_eq!(stored, flows);

    // v5 keeps the shared field subset; compare it against the store's copy
    // so the two formats are checked against each other, not just each
    // against the in-memory flows.
    let mut nf_bytes = Vec::new();
    write_netflow_v5(&mut nf_bytes, &stored).expect("write nf5");
    let parsed = read_netflow_v5(&nf_bytes[..]).expect("read nf5");
    assert_eq!(parsed.len(), flows.len());
    for (v5, f) in parsed.iter().zip(&flows) {
        assert_eq!((v5.src_ip, v5.dst_ip), (f.src_ip, f.dst_ip));
        assert_eq!((v5.src_port, v5.dst_port), (f.src_port, f.dst_port));
        assert_eq!(v5.protocol, f.protocol);
        assert_eq!((v5.out_bytes, v5.in_bytes), (f.out_bytes, f.in_bytes));
        assert_eq!((v5.out_pkts, v5.in_pkts), (f.out_pkts, f.in_pkts));
    }

    // Endianness contrast on the same value: the store's first SRC_IP cell
    // is little-endian right after the file and chunk headers (columnar
    // layout puts the SRC_IP column first); v5 carries it big-endian at
    // offset 24 of the datagram (after the 24-byte header).
    let cell = (FILE_HEADER_LEN + CHUNK_HEADER_LEN) as usize;
    assert_eq!(&store_bytes[cell..cell + 4], &flows[0].src_ip.to_le_bytes());
    assert_eq!(&nf_bytes[24..28], &flows[0].src_ip.to_be_bytes());
}

#[test]
fn synthetic_graph_exports_to_netflow() {
    use csb::gen::{pgpba, seed_from_trace, PgpbaConfig};
    let seed = seed_from_trace(&capture());
    let g = pgpba(
        &seed,
        &PgpbaConfig { desired_size: seed.edge_count() as u64 * 3, fraction: 0.4, seed: 5 },
    );
    let flows = csb::workloads::replay_flows(&g, 30.0, 6);
    let mut bytes = Vec::new();
    write_netflow_v5(&mut bytes, &flows).expect("write");
    let parsed = read_netflow_v5(&bytes[..]).expect("read");
    assert_eq!(parsed.len(), flows.len());
    // Generated attributes come from the seed's support even after the
    // round trip.
    let seed_ports: std::collections::HashSet<u16> =
        seed.graph.edge_data().iter().map(|p| p.dst_port).collect();
    assert!(parsed.iter().all(|f| seed_ports.contains(&f.dst_port)));
}
