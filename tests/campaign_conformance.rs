//! Campaign conformance suite: the end-to-end contracts of the multi-stage
//! attack campaign engine, property-tested over stage mixes, intensities, and
//! seeds.
//!
//! The three invariants locked down here:
//!
//! 1. **Label soundness** — a flow carries an attack label *iff* it was
//!    emitted by a campaign stage: every labeled flow's oriented 5-tuple and
//!    first-packet time match a recorded [`StageAction`] window, actions and
//!    labeled flows are 1:1, and no benign-simulator flow is ever labeled
//!    (checked structurally via the disjoint campaign source-port window).
//! 2. **Determinism** — the same seed produces byte-identical traces and
//!    byte-identical labeled flow stores.
//! 3. **Worker invariance** — the assembled labeled flow stream is identical
//!    for every assembler worker count.

use csb_net::trace::Trace;
use csb_net::traffic::campaign::{
    assemble_labeled, Campaign, CampaignConfig, CampaignRun, StageKind, StageParams,
    CAMPAIGN_SPORT_BASE,
};
use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
use csb_net::traffic::topology::TopologyConfig;
use csb_net::LabeledFlow;
use csb_store::{Compression, FileKind, StoreSink, StoreWriter};
use proptest::prelude::*;

/// Benign capture + one campaign over the same topology, merged in time
/// order. Small enough that a proptest case stays cheap.
fn pipeline(stages: &[StageKind], intensity: f64, stealth: f64, seed: u64) -> (Trace, CampaignRun) {
    let sim = TrafficSim::new(TrafficSimConfig {
        topology: TopologyConfig {
            clients: 25,
            servers: 4,
            externals: 15,
            ..TopologyConfig::default()
        },
        duration_secs: 25.0,
        sessions_per_sec: 6.0,
        seed,
        ..TrafficSimConfig::default()
    });
    let mut trace = sim.generate();
    let cfg = CampaignConfig {
        id: 1,
        seed: seed ^ 0xCA11,
        start_secs: 2.0,
        stages: stages
            .iter()
            .map(|&kind| {
                let nominal = StageParams::nominal(kind);
                StageParams {
                    intensity: nominal.intensity * intensity,
                    stealth,
                    duration_secs: nominal.duration_secs * 0.12,
                    ..nominal
                }
            })
            .collect(),
    };
    let run = Campaign::new(cfg).run(sim.topology());
    trace.merge_sorted(run.trace.clone());
    (trace, run)
}

fn store_bytes(flows: &[LabeledFlow], compression: Compression) -> Vec<u8> {
    let writer = StoreWriter::new_with(Vec::new(), FileKind::Flows, compression.version()).unwrap();
    let mut sink = StoreSink::new(writer).with_chunk_records(64);
    sink.push(flows.iter().copied()).unwrap();
    sink.finish().unwrap()
}

fn arb_stage_mix() -> impl Strategy<Value = Vec<StageKind>> {
    // A non-empty subset of the kill chain, in chain order (bitmask 1..16).
    (1u8..16).prop_map(|mask| {
        StageKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &k)| k)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1, re-derived independently of the labeler: labeled ⇔
    /// emitted by a stage.
    #[test]
    fn labels_are_sound_over_stage_mix_intensity_and_seed(
        stages in arb_stage_mix(),
        intensity in 0.5f64..2.0,
        stealth in 0.0f64..0.9,
        seed in 1u64..500,
    ) {
        let (trace, run) = pipeline(&stages, intensity, stealth, seed);
        let flows = assemble_labeled(&trace, std::slice::from_ref(&run), 1);

        let labeled: Vec<_> = flows.iter().filter(|f| f.label.is_attack()).collect();
        // Every stage action assembled into exactly one labeled flow.
        prop_assert_eq!(labeled.len(), run.actions.len(), "actions and labeled flows are 1:1");
        // A lateral-movement-only chain has no recon findings to act on and
        // legitimately emits nothing; every other mix must label flows.
        if stages.iter().any(|&k| k != StageKind::LateralMovement) {
            prop_assert!(!labeled.is_empty(), "a campaign must emit labeled flows");
        }

        for lf in &labeled {
            // The label's 5-tuple and time window match an emitted action.
            let action = run.actions.iter().find(|a| {
                a.src_ip == lf.flow.src_ip
                    && a.src_port == lf.flow.src_port
                    && a.dst_ip == lf.flow.dst_ip
                    && a.dst_port == lf.flow.dst_port
                    && a.protocol == lf.flow.protocol
                    && (a.start_micros..=a.end_micros).contains(&lf.flow.first_ts_micros)
            });
            let action = action.expect("labeled flow without a matching stage action");
            prop_assert_eq!(lf.label.campaign, run.id);
            prop_assert_eq!(lf.label.stage, action.stage);
            prop_assert_eq!(lf.label.class, action.kind.class());
            // Stage mix honored: only requested stages appear.
            prop_assert!(stages.contains(&action.kind));
        }

        // Structural soundness: campaign originator ports are disjoint from
        // the benign simulator's ephemeral range, so "labeled" and "uses a
        // campaign source port" must coincide exactly.
        for f in &flows {
            prop_assert_eq!(
                f.label.is_attack(),
                f.flow.src_port >= CAMPAIGN_SPORT_BASE,
                "flow {}:{} -> {}:{} labeled={:?}",
                f.flow.src_ip, f.flow.src_port, f.flow.dst_ip, f.flow.dst_port, f.label
            );
        }
    }

    /// Invariant 2: the same seed reproduces the trace and the store bytes.
    #[test]
    fn same_seed_is_byte_identical(
        stages in arb_stage_mix(),
        seed in 1u64..500,
    ) {
        let (trace_a, run_a) = pipeline(&stages, 1.0, 0.3, seed);
        let (trace_b, run_b) = pipeline(&stages, 1.0, 0.3, seed);
        prop_assert_eq!(&trace_a.packets, &trace_b.packets, "merged traces must be identical");
        prop_assert_eq!(&run_a.actions, &run_b.actions);

        let flows_a = assemble_labeled(&trace_a, std::slice::from_ref(&run_a), 1);
        let flows_b = assemble_labeled(&trace_b, std::slice::from_ref(&run_b), 1);
        for compression in [Compression::None, Compression::Columnar] {
            prop_assert_eq!(
                store_bytes(&flows_a, compression),
                store_bytes(&flows_b, compression),
                "labeled stores must be byte-identical ({:?})",
                compression
            );
        }
    }

    /// Invariant 3: worker count never changes the labeled stream.
    #[test]
    fn worker_count_is_invisible_in_the_labeled_stream(
        stages in arb_stage_mix(),
        seed in 1u64..500,
        workers in 2usize..9,
    ) {
        let (trace, run) = pipeline(&stages, 1.0, 0.3, seed);
        let runs = std::slice::from_ref(&run);
        let sequential = assemble_labeled(&trace, runs, 1);
        let parallel = assemble_labeled(&trace, runs, workers);
        prop_assert_eq!(sequential, parallel, "workers={}", workers);
    }
}

/// Benign-only capture: without a campaign nothing is ever labeled — the
/// degenerate case of invariant 1 that proptest's generator cannot hit.
#[test]
fn benign_only_capture_has_no_labels() {
    let sim = TrafficSim::new(TrafficSimConfig {
        duration_secs: 15.0,
        sessions_per_sec: 10.0,
        seed: 77,
        ..TrafficSimConfig::default()
    });
    let trace = sim.generate();
    let flows = assemble_labeled(&trace, &[], 4);
    assert!(!flows.is_empty());
    assert!(flows.iter().all(|f| !f.label.is_attack()), "benign flows must stay unlabeled");
}

/// Stage chaining across the full kill chain: lateral movement only targets
/// hosts recon discovered, and C2/exfil only speak from compromised hosts.
#[test]
fn later_stages_derive_from_earlier_findings() {
    let (_, run) = pipeline(&StageKind::ALL, 1.2, 0.2, 9);
    assert!(!run.compromised.is_empty(), "lateral movement must compromise hosts");
    let attacker = Campaign::attacker_ip(run.id);
    for a in &run.actions {
        match a.kind {
            StageKind::C2Beacon | StageKind::Exfiltration => {
                assert!(
                    run.compromised.contains(&a.src_ip),
                    "stage {:?} spoke from a non-compromised host",
                    a.kind
                );
            }
            StageKind::LateralMovement => {
                assert!(
                    a.src_ip == attacker || run.compromised.contains(&a.src_ip),
                    "lateral movement from an unexpected source"
                );
            }
            StageKind::Recon => assert_eq!(a.src_ip, attacker),
        }
    }
}
