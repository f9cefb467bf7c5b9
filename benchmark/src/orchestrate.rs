//! `csb-benchmark run`: every workload in its own process, untraced and then
//! traced, gathered into one results file stamped with where it came from.

use crate::manifest::{layer, moves, Manifest};
use crate::plan::{Workload, RUN_SECONDS};
use crate::run_one::{number, work_root};
use crate::{provenance, Flags, Res};
use csb_obs::json::{parse_json, JsonObject, JsonValue};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// What one child process reported.
struct Pass {
    /// The contract's result object, verbatim.
    result: String,
    /// The `detail` object, verbatim.
    detail: String,
    correct: bool,
}

fn child(workload: Workload, seed: u64, seconds: u64, traced: bool, smoke: bool) -> Res<Pass> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output()?;
    let text = String::from_utf8(out.stdout)?;
    let lines: Vec<&str> = text.lines().collect();
    // Everything but the two machine-readable lines is the child's report.
    for line in lines.iter().filter(|l| !l.starts_with("detail {") && !l.starts_with('{')) {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            workload.name(),
            u8::from(traced),
            out.status
        )
        .into());
    }
    let result = lines.last().copied().unwrap_or_default();
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("child printed no detail line")?;
    let parsed = parse_json(result).map_err(|e| format!("child result is not JSON: {e}"))?;
    parse_json(detail).map_err(|e| format!("child detail is not JSON: {e}"))?;
    Ok(Pass {
        result: result.to_string(),
        detail: detail.to_string(),
        correct: parsed.get("correct").and_then(JsonValue::as_bool) == Some(true),
    })
}

/// Units, directions, bounds and predicted interactions, so a results file
/// can be read without the source.
fn metric_tables(manifest: &Manifest) -> (String, String) {
    let mut end_to_end = JsonObject::new();
    for m in &manifest.end_to_end {
        let mut o = JsonObject::new();
        o.str("unit", &m.unit)
            .str("better", m.better.as_str())
            .raw("bound", &number(m.bound.unwrap_or(f64::NAN)));
        end_to_end.raw(&m.name, &o.finish());
    }
    let mut per_layer = JsonObject::new();
    for m in &manifest.per_layer {
        let mut o = JsonObject::new();
        o.str("unit", &m.unit)
            .str("better", m.better.as_str())
            .str("layer", &layer(&m.name))
            .str("moves", moves(&m.name).unwrap_or("no prediction recorded"));
        per_layer.raw(&m.name, &o.finish());
    }
    (end_to_end.finish(), per_layer.finish())
}

pub fn run(args: &[String]) -> Res<ExitCode> {
    let flags =
        Flags::parse(args, &["--seed", "--seconds", "--workload", "--trace", "--smoke", "--out"])?;
    let seed = flags.number("--seed", 7)?;
    let seconds = flags.seconds()?;
    let smoke = flags.has("--smoke");
    let workloads = flags.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes: &[bool] = match flags.trace()? {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let out_path =
        flags.get("--out").map_or_else(|| work_root().join("results.json"), PathBuf::from);

    let mut all_correct = true;
    let mut by_workload = JsonObject::new();
    for workload in workloads {
        let mut entry = JsonObject::new();
        for &traced in passes {
            let pass = child(workload, seed, seconds, traced, smoke)?;
            all_correct &= pass.correct;
            let mut o = JsonObject::new();
            o.raw("result", &pass.result).raw("detail", &pass.detail);
            entry.raw(if traced { "traced" } else { "untraced" }, &o.finish());
        }
        by_workload.raw(workload.name(), &entry.finish());
    }

    let (end_to_end, per_layer) = metric_tables(&Manifest::load()?);
    let mut root = JsonObject::new();
    root.str("benchmark", "csb-benchmark")
        .u64("frozen_run_seconds", RUN_SECONDS)
        .raw("provenance", &provenance::json(seed, seconds, smoke))
        .raw("end_to_end", &end_to_end)
        .raw("per_layer", &per_layer)
        .raw("workloads", &by_workload.finish());
    let json = root.finish() + "\n";
    csb_obs::json::validate_json(&json).map_err(|e| format!("results file is not JSON: {e}"))?;
    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&out_path, json)?;
    println!("results written to {}", out_path.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("csb-benchmark: an output check failed (see FAILED lines above)");
        Ok(ExitCode::from(1))
    }
}
