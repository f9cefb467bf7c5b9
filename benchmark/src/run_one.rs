//! One workload, one pass, in this process: set up, measure, check, report.
//!
//! The last line of standard output is the contract's result object; the
//! line before it (`detail {...}`) carries what `csb-benchmark run` adds to
//! its results file.

use crate::check::{Checks, FAILED_SHARE};
use crate::inputs::{self, Inputs};
use crate::layers::{self, Values};
use crate::manifest::{Manifest, Metric};
use crate::metrics::{self, Measured};
use crate::plan::{Plan, Seeds};
use crate::probe::{call, peak_rss_mb};
use crate::section::{self, SectionObs};
use crate::{provenance, Res};
use csb_obs::json::JsonObject;
use csb_obs::SpanRecord;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Category of the spans the benchmark itself opens.
const BENCH_CAT: &str = "bench";

/// Where traces and results land, and under which each process makes its
/// own work directory: `<target dir>/benchmark/`.
pub fn work_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

/// Formats a measured number with all its digits, as JSON.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Outcome {
    /// (name, value, unit), in the manifest's order.
    metrics: Vec<(String, f64, String)>,
    samples: BTreeMap<String, crate::stats::Summary>,
    widths: Vec<(&'static str, usize)>,
    section_wall_s: f64,
    trace_file: Option<PathBuf>,
}

/// Fails the run when a stage saw another pool width than configured: the
/// results would claim a width the work did not run at.
fn check_widths(plan: &Plan, obs: &SectionObs) -> Res<()> {
    match obs.widths.iter().find(|(_, w)| *w != plan.threads) {
        Some((stage, w)) => Err(format!(
            "stage {stage} ran at pool width {w}, the run is configured for {}",
            plan.threads
        )
        .into()),
        None => Ok(()),
    }
}

fn set_up(plan: &Plan, seeds: &Seeds, work: &Path, checks: &mut Checks) -> Res<(Inputs, Vec<f64>)> {
    let mut secs = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..plan.fixed.setup_reps {
        let earlier = inputs.take().map_or_else(Vec::new, |built| built.pgsk_seeds);
        let (built, s) =
            call("bench.setup", || inputs::build(plan, seeds, &work.join("inputs"), earlier));
        inputs = Some(built?);
        secs.push(s);
    }
    checks.passed(secs.len() as u64);
    let inputs = inputs.ok_or("no set-up repetition ran")?;
    Ok((inputs, secs))
}

/// Pairs what was measured with what `listed` names, in its order. The two
/// sets must be the same: a metric the manifest lists and the run did not
/// produce, or the other way round, ends the run.
fn in_manifest_order<T: Copy>(
    listed: &[Metric],
    measured: &BTreeMap<&'static str, T>,
) -> Res<Vec<(Metric, T)>> {
    if let Some(extra) = measured.keys().find(|k| !listed.iter().any(|m| m.name == **k)) {
        return Err(format!("{extra} was measured but BENCHMARK.json does not list it").into());
    }
    listed
        .iter()
        .map(|m| match measured.get(m.name.as_str()) {
            Some(&got) => Ok((m.clone(), got)),
            None => Err(format!("BENCHMARK.json lists {}, which was not measured", m.name).into()),
        })
        .collect()
}

fn untraced(
    plan: &Plan,
    manifest: &Manifest,
    seeds: &Seeds,
    work: &Path,
    checks: &mut Checks,
) -> Res<Outcome> {
    let (inputs, setup_secs) = set_up(plan, seeds, work, checks)?;
    let obs = section::run(plan, seeds, &inputs, work, checks)?;
    let rss = peak_rss_mb();
    check_widths(plan, &obs)?;
    let measured: BTreeMap<&str, Measured> = metrics::end_to_end(&setup_secs, &obs, rss);
    let mut out = Outcome {
        metrics: Vec::new(),
        samples: BTreeMap::new(),
        widths: obs.widths,
        section_wall_s: obs.wall_s,
        trace_file: None,
    };
    for (m, got) in in_manifest_order(&manifest.end_to_end, &measured)? {
        if let Some(s) = got.samples {
            out.samples.insert(m.name.clone(), s);
        }
        out.metrics.push((m.name, got.value, m.unit));
    }
    Ok(out)
}

/// Seconds of `[0, horizon)` covered by at least one of `spans`.
fn covered_micros(spans: &[&SpanRecord]) -> u64 {
    let mut intervals: Vec<(u64, u64)> =
        spans.iter().map(|s| (s.start_micros, s.start_micros + s.dur_micros)).collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (start, end) in intervals {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    covered
}

fn traced(
    plan: &Plan,
    manifest: &Manifest,
    seeds: &Seeds,
    root: &Path,
    work: &Path,
    checks: &mut Checks,
) -> Res<Outcome> {
    let (inputs, _) = set_up(plan, seeds, work, checks)?;
    // The same section with nothing recording: the base of `obs.overhead`.
    let reference = section::run(plan, seeds, &inputs, work, &mut Checks::default())?;

    csb_obs::reset();
    csb_obs::enable();
    let start = Instant::now();
    let measured = section::run(plan, seeds, &inputs, work, checks)
        .and_then(|obs| Ok((obs, layers::run(plan, seeds, &inputs, work)?)));
    let traced_wall = start.elapsed();
    let counters = csb_obs::snapshot_metrics();
    csb_obs::disable();
    let spans = csb_obs::flush_spans();
    let (obs, mut values): (SectionObs, Values) = measured?;
    check_widths(plan, &obs)?;

    metrics::from_section(&obs, &mut values);
    // Counters the program exports under the names the manifest lists.
    for name in ["store.bytes_written", "store.enc_bytes_saved", "store.chunks_written"] {
        values.insert(name, counters.counter(name).unwrap_or(0) as f64);
    }
    let (bench, program): (Vec<&SpanRecord>, Vec<&SpanRecord>) =
        spans.iter().partition(|s| s.cat == BENCH_CAT);
    values.insert("obs.overhead", obs.steady_s() / reference.steady_s() - 1.0);
    values.insert(
        "obs.span_coverage",
        covered_micros(&bench) as f64 / traced_wall.as_micros() as f64,
    );
    values.insert("obs.program_spans", program.len() as f64);

    let trace_file = root.join(format!("trace.{}.json", plan.workload.name()));
    std::fs::write(&trace_file, csb_obs::export::chrome_trace_json(&spans))?;

    let mut out = Outcome {
        metrics: Vec::new(),
        samples: BTreeMap::new(),
        widths: obs.widths,
        section_wall_s: obs.wall_s,
        trace_file: Some(trace_file),
    };
    for (m, value) in in_manifest_order(&manifest.per_layer, &values)? {
        out.metrics.push((m.name, value, m.unit));
    }
    Ok(out)
}

fn detail_json(plan: &Plan, out: &Outcome, checks: &Checks) -> String {
    let mut widths = JsonObject::new();
    for (stage, w) in &out.widths {
        widths.u64(stage, *w as u64);
    }
    let mut samples = JsonObject::new();
    for (name, s) in &out.samples {
        let mut o = JsonObject::new();
        o.raw("median", &number(s.median))
            .raw("min", &number(s.min))
            .raw("max", &number(s.max))
            .u64("n", s.n as u64)
            .raw("spread", &number(s.spread));
        samples.raw(name, &o.finish());
    }
    let mut o = JsonObject::new();
    o.str("workload", plan.workload.name())
        .u64("seed", plan.seed)
        .u64("seconds", plan.seconds)
        .u64("trace", u64::from(plan.traced))
        .bool("smoke", plan.smoke)
        .u64("nproc", provenance::nproc() as u64)
        .u64("threads", plan.threads as u64)
        .str("deps", &provenance::deps())
        .raw("section_threads", &widths.finish())
        .raw("section_wall_s", &number(out.section_wall_s))
        .raw(FAILED_SHARE, &number(checks.failed_share()))
        .raw(
            "failures",
            &csb_obs::json::array_of(checks.failures.iter().map(|f| {
                let mut s = String::from("\"");
                csb_obs::json::escape_into(&mut s, f);
                s.push('"');
                s
            })),
        )
        .raw("samples", &samples.finish());
    if let Some(path) = &out.trace_file {
        o.str("trace_file", &path.display().to_string());
    }
    o.finish()
}

fn result_json(out: &Outcome, checks: &Checks) -> String {
    let mut metrics = JsonObject::new();
    for (name, value, unit) in &out.metrics {
        let mut m = JsonObject::new();
        m.raw("value", &number(*value)).str("unit", unit);
        metrics.raw(name, &m.finish());
    }
    let mut o = JsonObject::new();
    o.bool("correct", checks.failed == 0)
        .u64("attempted", checks.attempted.max(1))
        .u64("failed", checks.failed)
        .raw("metrics", &metrics.finish());
    o.finish()
}

/// Runs the plan and prints its report. `Err` means the run could not be
/// completed (nothing is printed as a result); failed output checks are
/// reported in the result as `correct: false`.
pub fn run(plan: &Plan) -> Res<()> {
    let manifest = Manifest::load()?;
    let seeds = Seeds::derive(plan.seed);
    let root = work_root();
    let work = root.join(format!(
        "work.{}.{}.{}",
        plan.workload.name(),
        u8::from(plan.traced),
        std::process::id()
    ));
    std::fs::create_dir_all(&work)?;
    println!(
        "csb-benchmark: workload {} seed {} seconds {} trace {} threads {} (nproc {}) deps {}{}",
        plan.workload.name(),
        plan.seed,
        plan.seconds,
        u8::from(plan.traced),
        plan.threads,
        provenance::nproc(),
        provenance::deps(),
        if plan.smoke { " smoke" } else { "" }
    );

    let mut checks = Checks::default();
    let out = if plan.traced {
        traced(plan, &manifest, &seeds, &root, &work, &mut checks)
    } else {
        untraced(plan, &manifest, &seeds, &work, &mut checks)
    }?;
    // Removed on success only: a failed run leaves its files to look at.
    std::fs::remove_dir_all(&work).ok();

    for (name, value, unit) in &out.metrics {
        let repeated = out.samples.get(name).map_or(String::new(), |s| {
            format!(
                "   median of {} repetitions (min {:.6}, max {:.6}, iqr/median {:.3})",
                s.n, s.min, s.max, s.spread
            )
        });
        println!("  {name:<34} {value:>16.6} {unit}{repeated}");
    }
    println!(
        "  {FAILED_SHARE:<34} {:>16.6} ratio   {} of {} operations failed",
        checks.failed_share(),
        checks.failed,
        checks.attempted
    );
    for failure in &checks.failures {
        println!("  FAILED: {failure}");
    }
    if let Some(path) = &out.trace_file {
        println!("  trace written to {}", path.display());
    }
    println!("detail {}", detail_json(plan, &out, &checks));
    println!("{}", result_json(&out, &checks));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, dur: u64) -> SpanRecord {
        SpanRecord { name: "s", cat: BENCH_CAT, start_micros: start, dur_micros: dur, thread: 0 }
    }

    #[test]
    fn coverage_is_the_union_of_spans() {
        let spans = [span(0, 10), span(5, 10), span(30, 5), span(31, 2)];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        assert_eq!(covered_micros(&refs), 15 + 5);
        assert_eq!(covered_micros(&[]), 0);
    }

    #[test]
    fn measured_and_listed_metrics_must_be_the_same_set() {
        let listed: Vec<Metric> = ["b", "a"]
            .iter()
            .map(|n| Metric {
                name: n.to_string(),
                unit: "s".into(),
                better: crate::manifest::Better::Lower,
                bound: None,
            })
            .collect();
        let both = BTreeMap::from([("a", 1.0), ("b", 2.0)]);
        let ordered = in_manifest_order(&listed, &both).expect("same set");
        assert_eq!(
            ordered.iter().map(|(m, v)| (m.name.as_str(), *v)).collect::<Vec<_>>(),
            [("b", 2.0), ("a", 1.0)]
        );
        let missing = BTreeMap::from([("a", 1.0)]);
        assert!(in_manifest_order(&listed, &missing).unwrap_err().to_string().contains("b"));
        let extra = BTreeMap::from([("a", 1.0), ("b", 2.0), ("c", 3.0)]);
        assert!(in_manifest_order(&listed, &extra).unwrap_err().to_string().contains("c was"));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.000000123), "0.000000123");
        assert_eq!(number(f64::NAN), "null");
        csb_obs::json::validate_json(&number(1e21)).expect("large values stay valid JSON");
    }
}
