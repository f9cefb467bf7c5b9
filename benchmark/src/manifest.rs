//! `BENCHMARK.json` as the program reads it. The name, unit, direction and
//! bound of every metric come from that file and from nowhere else: a run
//! prints exactly the metrics it lists, `compare` applies exactly its
//! bounds, and a metric measured but not listed (or listed but not measured)
//! ends the run. What the file may not hold, because the contract fixes its
//! keys, is here: which end-to-end metric, on which workload, each per-layer
//! metric is expected to move.

use crate::Res;
use csb_obs::json::{parse_json, JsonValue};

/// The checked-in file of the checkout this binary was built in.
const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metric(entry: &JsonValue, bounded: bool) -> Res<Metric> {
    let text = |key: &str| {
        entry.get(key).and_then(JsonValue::as_str).ok_or_else(|| format!("an entry lacks {key:?}"))
    };
    let name = text("name")?.to_string();
    let better = match text("better")? {
        "higher" => Better::Higher,
        "lower" => Better::Lower,
        other => return Err(format!("{name}: better is {other:?}").into()),
    };
    let bound = match entry.get("bound").and_then(JsonValue::as_f64) {
        Some(b) if bounded && b > 0.0 => Some(b),
        None if !bounded => None,
        other => return Err(format!("{name}: bound is {other:?}").into()),
    };
    Ok(Metric { unit: text("unit")?.to_string(), name, better, bound })
}

impl Manifest {
    pub fn load() -> Res<Manifest> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
        Manifest::parse(&text).map_err(|e| format!("{PATH}: {e}").into())
    }

    pub fn parse(text: &str) -> Res<Manifest> {
        let file = parse_json(text.trim())?;
        let list = |key: &str| {
            file.get(key).and_then(JsonValue::as_arr).ok_or_else(|| format!("no {key:?} array"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).map(String::from))
            .collect::<Option<Vec<_>>>()
            .ok_or("a workload lacks its name")?;
        Ok(Manifest {
            run_seconds: file
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .ok_or("no run_seconds")?,
            workloads,
            end_to_end: list("end_to_end")?.iter().map(|e| metric(e, true)).collect::<Res<_>>()?,
            per_layer: list("per_layer")?.iter().map(|e| metric(e, false)).collect::<Res<_>>()?,
        })
    }
}

/// The crate a per-layer metric belongs to: its name's first segment.
pub fn layer(name: &str) -> String {
    format!("csb-{}", name.split('.').next().unwrap_or(name))
}

const GEN: &str =
    "pgpba_edges_per_s, pgsk_edges_per_s on gen_mem; materialize_edges_per_s on gen_store";
const STORE_WRITE: &str =
    "materialize_edges_per_s, store_bytes_per_edge on gen_store; nothing on gen_mem";
const SETUP: &str = "setup_s on every workload";

/// Which end-to-end metric, on which workload, a per-layer metric should
/// move: written down before anything was measured, so a later change is
/// judged against a prediction. `None` for a name with no prediction.
pub fn moves(name: &str) -> Option<&'static str> {
    let stage = name.split('.').next()?;
    Some(match (stage, name) {
        ("stats", _) => GEN,
        ("net", _) => "campaign_packets_per_s on campaign_ids; setup_s elsewhere; nothing on gen_*",
        ("graph", "graph.from_flows_s") | ("core", "core.seed_analysis_s") => SETUP,
        ("graph", "graph.pagerank.ooc_nocache_s") => {
            "veracity_ooc_s only once stores outgrow the scan cache; no end-to-end metric today"
        }
        ("graph", n) if n.ends_with(".mem_s") => "veracity_mem_s on veracity_scan",
        ("graph", n) if n.ends_with(".ooc_s") => "veracity_ooc_s on veracity_scan",
        ("core", n) if n.starts_with("core.pgpba.") => "pgpba_edges_per_s on gen_mem",
        ("core", n) if n.starts_with("core.pgsk.") => "pgsk_edges_per_s on gen_mem",
        ("core", "core.attach_w1_s" | "core.attach_wN_s" | "core.attach_scaling") => GEN,
        ("core", _) => "materialize_edges_per_s on gen_store; nothing on gen_mem",
        ("store", "store.checkpoint_overhead") => {
            "serve_jobs_per_s on serve_mixed (every served generation is checkpointed)"
        }
        ("store", "store.flows_write_s" | "store.flows_load_s") => {
            "campaign_packets_per_s, detect_flows_per_s on campaign_ids"
        }
        (
            "store",
            "store.load_graph_s"
            | "store.scan_cold_s"
            | "store.scan_warm_s"
            | "store.decode_mb_per_s"
            | "store.ooc_bytes_read",
        ) => "veracity_ooc_s on veracity_scan; nothing on veracity_mem_s",
        ("store", _) => STORE_WRITE,
        ("engine", _) => "no end-to-end metric by design (no workload runs the Pdd path)",
        ("ids", "ids.f1") => {
            "nothing (demoted from end-to-end detect_f1: it moves with the seed; see README)"
        }
        ("ids", _) => "detect_flows_per_s on campaign_ids",
        ("serve", "serve.p90_ms") => {
            "nothing (demoted from end-to-end serve_p90_ms: it sits between two modes; see README)"
        }
        ("serve", _) => "serve_p50_ms, serve_p95_ms, serve_jobs_per_s on serve_mixed",
        ("obs", _) => "should move no end-to-end metric",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Workload, RUN_SECONDS};
    use std::collections::HashSet;

    #[test]
    fn the_checked_in_manifest_is_within_the_contract_limits() {
        let m = Manifest::load().expect("BENCHMARK.json loads");
        let text = std::fs::read_to_string(PATH).unwrap();
        assert!(text.len() < 64 * 1024);
        let mut seen = HashSet::new();
        for (name, unit) in m
            .end_to_end
            .iter()
            .chain(&m.per_layer)
            .map(|x| (x.name.as_str(), x.unit.as_str()))
            .chain(m.workloads.iter().map(|w| (w.as_str(), "count")))
        {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((1..=16).contains(&m.end_to_end.len()) && (1..=128).contains(&m.per_layer.len()));
        assert!(m.end_to_end.iter().all(|x| x.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn the_manifest_names_this_programs_workloads_and_run_length() {
        let m = Manifest::load().expect("BENCHMARK.json loads");
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(m.workloads, ours);
        assert_eq!(m.run_seconds, RUN_SECONDS, "the driver runs the calibrated length");
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let m = Manifest::load().expect("BENCHMARK.json loads");
        let setup = m.end_to_end.iter().find(|x| x.name == "setup_s").expect("setup_s is listed");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(m.end_to_end.iter().all(|x| x.bound <= setup.bound));
    }

    #[test]
    fn every_per_layer_metric_has_a_prediction() {
        let m = Manifest::load().expect("BENCHMARK.json loads");
        for x in &m.per_layer {
            assert!(moves(&x.name).is_some(), "{} predicts nothing", x.name);
            assert!(layer(&x.name).len() > "csb-".len());
        }
        assert_eq!(moves("bogus.metric"), None);
        assert_eq!(layer("store.crc_mb_per_s"), "csb-store");
    }

    #[test]
    fn malformed_manifests_are_refused() {
        assert!(Manifest::parse("{}").is_err());
        let bad_better = r#"{"run_seconds":1,"workloads":[],"per_layer":[],
            "end_to_end":[{"name":"a","unit":"s","better":"faster","bound":0.1}]}"#;
        assert!(Manifest::parse(bad_better).is_err());
        let no_bound = r#"{"run_seconds":1,"workloads":[],"per_layer":[],
            "end_to_end":[{"name":"a","unit":"s","better":"lower"}]}"#;
        assert!(Manifest::parse(no_bound).is_err());
    }
}
