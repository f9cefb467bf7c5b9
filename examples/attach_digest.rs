//! Digest of what the generators produce, for comparing two commits or two
//! pool widths byte for byte: builds one simulated seed, runs PGPBA and PGSK
//! to memory, and prints each graph's edge count and an FNV-1a digest over
//! its vertex column and every edge column in stream order.
//!
//! Run with: `cargo run --release --example attach_digest -- <pgpba edges>
//! <pgsk edges> [seed]`; the pool width comes from `RAYON_NUM_THREADS`.

use csb::gen::{pgpba, pgsk, seed_from_trace, PgpbaConfig, PgskConfig};
use csb::graph::NetflowGraph;
use csb::net::traffic::sim::{TrafficSim, TrafficSimConfig};

fn digest(g: &NetflowGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    g.vertex_data().iter().for_each(|&ip| word(u64::from(ip)));
    for ((s, d), p) in g.edge_sources().iter().zip(g.edge_targets()).zip(g.edge_data()) {
        let columns = [
            u64::from(s.0),
            u64::from(d.0),
            u64::from(p.protocol.number()),
            u64::from(p.src_port),
            u64::from(p.dst_port),
            p.duration_ms,
            p.out_bytes,
            p.in_bytes,
            p.out_pkts,
            p.in_pkts,
            p.state.code(),
        ];
        columns.into_iter().for_each(&mut word);
    }
    h
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<u64>().expect("a number"));
    let usage = "usage: attach_digest <pgpba edges> <pgsk edges> [seed]";
    let (ba_edges, sk_edges) = (args.next().expect(usage), args.next().expect(usage));
    let seed = args.next().unwrap_or(7);
    let trace = TrafficSim::new(TrafficSimConfig {
        duration_secs: 60.0,
        sessions_per_sec: 60.0,
        seed,
        ..TrafficSimConfig::default()
    })
    .generate();
    let bundle = seed_from_trace(&trace);
    let ba = pgpba(&bundle, &PgpbaConfig { seed, ..PgpbaConfig::new(ba_edges) });
    println!("pgpba seed {seed}: {} edges, digest {:016x}", ba.edge_count(), digest(&ba));
    let sk = pgsk(&bundle, &PgskConfig { seed, ..PgskConfig::new(sk_edges) });
    println!("pgsk seed {seed}: {} edges, digest {:016x}", sk.edge_count(), digest(&sk));
}
