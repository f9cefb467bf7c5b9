//! `csb-benchmark compare a.json b.json`: for every workload and end-to-end
//! metric of two results files, whether `b` is worse than `a` by more than
//! the metric's bound.

use crate::check::FAILED_SHARE;
use crate::manifest::{Better, Manifest, Metric};
use crate::plan::Workload;
use crate::Res;
use csb_obs::json::{parse_json, JsonValue};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Worse by more than the bound, but the repetitions inside one of the
    /// runs spread (interquartile range over median) wider than the bound
    /// too. A metric that is one number a run (the serve metrics, memory,
    /// bytes per edge) has no repetitions to spread and is never unresolved.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `a` by which `b` is worse (negative when `b` is better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    if worse_by(better, a, b) <= bound {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

/// The untraced pass of one workload in a results file.
struct PassView<'a> {
    result: &'a JsonValue,
    detail: &'a JsonValue,
}

impl PassView<'_> {
    fn of<'a>(file: &'a JsonValue, workload: Workload) -> Option<PassView<'a>> {
        let pass = file.get("workloads")?.get(workload.name())?.get("untraced")?;
        Some(PassView { result: pass.get("result")?, detail: pass.get("detail")? })
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.result.get("metrics")?.get(metric)?.get("value")?.as_f64()
    }

    fn spread(&self, metric: &str) -> f64 {
        self.detail
            .get("samples")
            .and_then(|s| s.get(metric))
            .and_then(|s| s.get("spread"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    }

    fn failed_share(&self) -> Option<f64> {
        self.detail.get(FAILED_SHARE)?.as_f64()
    }
}

/// Prints the comparison of every metric of `end_to_end` and returns how
/// many rows regressed.
pub fn compare(end_to_end: &[Metric], a: &JsonValue, b: &JsonValue) -> Res<usize> {
    let mut regressions = 0;
    let mut rows = 0;
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for workload in Workload::ALL {
        let (Some(pa), Some(pb)) = (PassView::of(a, workload), PassView::of(b, workload)) else {
            continue;
        };
        for m in end_to_end {
            let (va, vb) = match (pa.value(&m.name), pb.value(&m.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => return Err(format!("{}: {} is missing", workload.name(), m.name).into()),
            };
            let bound = m.bound.ok_or_else(|| format!("{} has no bound", m.name))?;
            let v = verdict(m.better, bound, va, vb, pa.spread(&m.name).max(pb.spread(&m.name)));
            regressions += usize::from(v == Verdict::Regressed);
            rows += 1;
            println!(
                "{:<14} {:<24} {:>16.6} {:>16.6} {:>+8.2}% {:>6.0}%  {}",
                workload.name(),
                m.name,
                va,
                vb,
                100.0 * worse_by(m.better, va, vb),
                100.0 * bound,
                v.as_str()
            );
        }
        // A count: compared exactly.
        let (fa, fb) = match (pa.failed_share(), pb.failed_share()) {
            (Some(fa), Some(fb)) => (fa, fb),
            _ => return Err(format!("{}: {FAILED_SHARE} is missing", workload.name()).into()),
        };
        let v = if fb > fa { Verdict::Regressed } else { Verdict::Ok };
        regressions += usize::from(v == Verdict::Regressed);
        rows += 1;
        println!(
            "{:<14} {:<24} {:>16.6} {:>16.6} {:>9} {:>7}  {}",
            workload.name(),
            FAILED_SHARE,
            fa,
            fb,
            "",
            "exact",
            v.as_str()
        );
    }
    if rows == 0 {
        return Err("the two files share no workload with an untraced pass".into());
    }
    Ok(regressions)
}

pub fn run(args: &[String]) -> Res<ExitCode> {
    let [a, b] = args else {
        return Err("usage: csb-benchmark compare <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Res<JsonValue> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_json(text.trim()).map_err(|e| format!("{path}: {e}").into())
    };
    let regressions = compare(&Manifest::load()?.end_to_end, &load(a)?, &load(b)?)?;
    if regressions == 0 {
        println!("no end-to-end metric of {b} is worse than {a} beyond its bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{regressions} regression(s)");
        Ok(ExitCode::from(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_logic() {
        // Lower is better, bound 10%.
        assert_eq!(verdict(Better::Lower, 0.10, 1.0, 1.09, 0.0), Verdict::Ok);
        assert_eq!(verdict(Better::Lower, 0.10, 1.0, 0.5, 0.0), Verdict::Ok);
        assert_eq!(verdict(Better::Lower, 0.10, 1.0, 1.11, 0.02), Verdict::Regressed);
        assert_eq!(verdict(Better::Lower, 0.10, 1.0, 1.11, 0.30), Verdict::Unresolved);
        // Higher is better.
        assert_eq!(verdict(Better::Higher, 0.10, 100.0, 91.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(Better::Higher, 0.10, 100.0, 89.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(Better::Higher, 0.10, 100.0, 150.0, 0.0), Verdict::Ok);
        assert!((worse_by(Better::Higher, 100.0, 89.0) - 0.11).abs() < 1e-12);
    }

    fn listed() -> Vec<Metric> {
        Manifest::load().expect("BENCHMARK.json loads").end_to_end
    }

    /// A results file whose every metric of `gen_mem` reads `value`, except
    /// the overrides.
    fn file(value: f64, overrides: &[(&str, f64)], spread: f64, failed_share: f64) -> JsonValue {
        let metrics: Vec<String> = listed()
            .iter()
            .map(|m| {
                let v = overrides.iter().find(|(n, _)| *n == m.name).map_or(value, |(_, v)| *v);
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        let text = format!(
            "{{\"workloads\":{{\"gen_mem\":{{\"untraced\":{{\"result\":{{\"correct\":true,\
             \"attempted\":10,\"failed\":0,\"metrics\":{{{}}}}},\"detail\":{{\"failed_share\":\
             {failed_share},\"samples\":{{\"veracity_mem_s\":{{\"spread\":{spread}}}}}}}}}}}}}}}",
            metrics.join(",")
        );
        parse_json(&text).expect("hand-made results file parses")
    }

    #[test]
    fn files_compare_by_metric_and_direction() {
        let listed = listed();
        let compare = |a: &JsonValue, b: &JsonValue| compare(&listed, a, b);
        let bound = |name: &str| {
            listed.iter().find(|m| m.name == name).and_then(|m| m.bound).expect("a listed name")
        };
        let (time, rate) = (bound("veracity_mem_s"), bound("pgpba_edges_per_s"));
        let base = file(100.0, &[], 0.0, 0.0);
        assert_eq!(compare(&base, &base).unwrap(), 0);
        // A slower timing and a lower throughput both regress; a faster one does not.
        let worse = file(
            100.0,
            &[
                ("veracity_mem_s", 100.0 * (1.0 + 2.0 * time)),
                ("pgpba_edges_per_s", 100.0 * (1.0 - 2.0 * rate)),
            ],
            0.0,
            0.0,
        );
        assert_eq!(compare(&base, &worse).unwrap(), 2);
        assert_eq!(compare(&worse, &base).unwrap(), 0);
        // Within the bound.
        let near = file(100.0, &[("veracity_mem_s", 100.0 * (1.0 + 0.9 * time))], 0.0, 0.0);
        assert_eq!(compare(&base, &near).unwrap(), 0);
        // Wide repetitions make a timing unresolved, not regressed.
        let noisy = file(100.0, &[("veracity_mem_s", 100.0 * (1.0 + 2.0 * time))], 2.0 * time, 0.0);
        assert_eq!(compare(&base, &noisy).unwrap(), 0);
        // Failures compare exactly.
        let failing = file(100.0, &[], 0.0, 0.01);
        assert_eq!(compare(&base, &failing).unwrap(), 1);
        assert_eq!(compare(&failing, &failing).unwrap(), 0);
    }

    #[test]
    fn files_without_a_shared_workload_are_an_error() {
        let empty = parse_json("{\"workloads\":{}}").unwrap();
        assert!(compare(&listed(), &empty, &empty).is_err());
    }
}
