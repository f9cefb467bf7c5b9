//! Property-based tests for the network substrate: PCAP round-tripping of
//! arbitrary packets, filter-parser robustness, flow-assembly conservation
//! laws, and the run merge against the stable sort it replaces.

use csb_net::filter::Filter;
use csb_net::flow::Protocol;
use csb_net::packet::{Packet, TcpFlags};
use csb_net::pcap::{read_pcap, write_pcap};
use csb_net::trace::{AttackKind, AttackLabel, Trace};
use csb_net::FlowAssembler;
use proptest::prelude::*;

/// Strategy for arbitrary valid packets.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u64..10_000_000_000,
        1u32..u32::MAX,
        1u32..u32::MAX,
        any::<u16>(),
        any::<u16>(),
        0u8..3,
        any::<u8>(),
        0u32..2_000_000,
    )
        .prop_map(|(ts, src, dst, sport, dport, proto, flags, len)| {
            let protocol = match proto {
                0 => Protocol::Tcp,
                1 => Protocol::Udp,
                _ => Protocol::Icmp,
            };
            Packet {
                ts_micros: ts,
                src_ip: src,
                dst_ip: dst,
                src_port: if protocol == Protocol::Icmp { 0 } else { sport },
                dst_port: if protocol == Protocol::Icmp { 0 } else { dport },
                protocol,
                flags: if protocol == Protocol::Tcp {
                    TcpFlags(flags & 0x1F)
                } else {
                    TcpFlags::empty()
                },
                payload_len: len,
            }
        })
}

/// A sorted trace whose packets carry their side and position (so equal
/// timestamps stay distinguishable), plus one label naming the side.
fn tagged_trace(side: u32, mut stamps: Vec<u64>) -> Trace {
    stamps.sort_unstable();
    let packets = stamps.iter().zip(0..).map(|(&ts, i)| Packet::icmp(ts, side, i, 8)).collect();
    let label = AttackLabel {
        kind: AttackKind::HostScan,
        attacker: side,
        victim: 0,
        start_micros: 0,
        end_micros: 0,
    };
    Trace { packets, labels: vec![label] }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `merge_sorted` is the stable sort of the concatenation, whichever
    /// way the two sides lie: disjoint in either order, a sparse side inside
    /// a dense one, ties across both, an empty side, and overlapping tails
    /// longer and shorter than the incoming trace.
    #[test]
    fn merge_sorted_is_a_stable_sort_of_the_concatenation(
        shape in 0usize..7,
        mut left in prop::collection::vec(0u64..1000, 0..300),
        mut right in prop::collection::vec(0u64..1000, 0..300),
    ) {
        match shape {
            0 => right.iter_mut().for_each(|ts| *ts += 2000),
            1 => left.iter_mut().for_each(|ts| *ts += 2000),
            2 => right.truncate(5),
            3 => left.truncate(5),
            4 => left.iter_mut().chain(&mut right).for_each(|ts| *ts %= 4),
            5 if left.len() < right.len() => left.clear(),
            5 => right.clear(),
            _ => {}
        }
        let (left, right) = (tagged_trace(1, left), tagged_trace(2, right));
        let mut expected: Vec<Packet> =
            left.packets.iter().chain(&right.packets).copied().collect();
        expected.sort_by_key(|p| p.ts_micros);
        let mut merged = left;
        merged.merge_sorted(right);
        prop_assert_eq!(merged.packets, expected);
        let labelled: Vec<u32> = merged.labels.iter().map(|l| l.attacker).collect();
        prop_assert_eq!(labelled, vec![1, 2]);
    }

    /// Any packet sequence survives the on-disk PCAP format bit-for-bit.
    #[test]
    fn pcap_round_trip(packets in prop::collection::vec(arb_packet(), 0..50)) {
        let mut bytes = Vec::new();
        write_pcap(&mut bytes, &packets).expect("write");
        let parsed = read_pcap(&bytes[..]).expect("read");
        prop_assert_eq!(parsed, packets);
    }

    /// The filter parser never panics on arbitrary whitespace-separated
    /// token soup (it may error, never crash).
    #[test]
    fn filter_parser_total(tokens in prop::collection::vec(
        prop::sample::select(vec![
            "tcp", "udp", "icmp", "and", "or", "not", "(", ")", "host",
            "port", "src", "dst", "greater", "less", "80", "10.0.0.1",
            "99999", "banana",
        ]),
        0..12,
    )) {
        let expr = tokens.join(" ");
        let _ = Filter::parse(&expr); // must not panic
    }

    /// Parsed filters partition captures: matches + non-matches == all.
    #[test]
    fn filter_partitions_capture(packets in prop::collection::vec(arb_packet(), 0..60)) {
        let f = Filter::parse("tcp and greater 1000").expect("valid filter");
        let kept = f.apply(&packets);
        let dropped: Vec<Packet> =
            packets.iter().filter(|p| !f.matches(p)).copied().collect();
        prop_assert_eq!(kept.len() + dropped.len(), packets.len());
        for p in kept {
            prop_assert_eq!(p.protocol, Protocol::Tcp);
            prop_assert!(p.payload_len > 1000);
        }
    }

    /// Flow assembly conserves packets and bytes for arbitrary mixes.
    #[test]
    fn assembler_conservation(mut packets in prop::collection::vec(arb_packet(), 1..120)) {
        packets.sort_by_key(|p| p.ts_micros);
        let n = packets.len() as u64;
        let bytes: u64 = packets.iter().map(|p| p.payload_len as u64).sum();
        let flows = FlowAssembler::assemble(&packets);
        prop_assert_eq!(flows.iter().map(|f| f.total_pkts()).sum::<u64>(), n);
        prop_assert_eq!(flows.iter().map(|f| f.total_bytes()).sum::<u64>(), bytes);
        // Every flow's duration fits inside the capture window.
        let span = packets.last().expect("non-empty").ts_micros
            - packets.first().expect("non-empty").ts_micros;
        for f in &flows {
            prop_assert!(f.duration_ms <= span / 1000 + 1);
        }
    }
}
