//! Drives the built binary at `--smoke` scale: all five workloads, both
//! passes, the results file, the traces, and `compare`.

use csb_obs::json::{parse_json, validate_json, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_csb-benchmark");
const WORKLOADS: [&str; 5] =
    ["gen_mem", "gen_store", "veracity_scan", "campaign_ids", "serve_mixed"];

/// A fresh directory under cargo's own scratch space for integration tests
/// (inside the target directory), so the tests write nowhere else.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs the binary in `dir`, with its work root under it.
fn bench(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(EXE)
        .args(args)
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .output()
        .expect("benchmark binary runs")
}

/// Names under `key` of the checked-in `BENCHMARK.json`.
fn manifest_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = parse_json(std::fs::read_to_string(path).expect("BENCHMARK.json").trim())
        .expect("BENCHMARK.json parses");
    let entries = manifest.get(key).and_then(JsonValue::as_arr).expect("array of entries");
    entries
        .iter()
        .map(|e| e.get("name").and_then(JsonValue::as_str).expect("entry name").to_string())
        .collect()
}

fn assert_pass(pass: &JsonValue, names: &[String], what: &str) {
    let result = pass.get("result").unwrap_or_else(|| panic!("{what}: no result"));
    assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true), "{what}: correct");
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0), "{what}: failed");
    assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1), "{what}: attempted");
    let metrics = result.get("metrics").unwrap_or_else(|| panic!("{what}: no metrics"));
    let JsonValue::Obj(fields) = metrics else { panic!("{what}: metrics is not an object") };
    assert_eq!(fields.len(), names.len(), "{what}: exactly the manifest's metrics");
    for name in names {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{what}: {name} missing"));
        let value = m.get("value").and_then(JsonValue::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{what}: {name} = {value:?}");
        assert!(m.get("unit").and_then(JsonValue::as_str).is_some(), "{what}: {name} has no unit");
    }
    let detail = pass.get("detail").unwrap_or_else(|| panic!("{what}: no detail"));
    let threads = detail.get("threads").and_then(JsonValue::as_u64).expect("threads stamp");
    let JsonValue::Obj(widths) = detail.get("section_threads").expect("section widths") else {
        panic!("{what}: section_threads is not an object")
    };
    assert_eq!(widths.len(), WORKLOADS.len(), "{what}: one width per stage");
    assert!(widths.iter().all(|(_, w)| w.as_u64() == Some(threads)), "{what}: widths {widths:?}");
}

#[test]
fn smoke_scale_drives_every_workload_and_both_passes() {
    let dir = scratch("smoke");
    let results = dir.join("results.json");
    let out = bench(&dir, &["run", "--smoke", "--seed", "5", "--out", results.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&results).expect("results file");
    validate_json(&text).expect("results file is valid JSON");
    let file = parse_json(text.trim()).expect("results file parses");
    let provenance = file.get("provenance").expect("provenance");
    for stamp in
        ["git_rev", "dirty", "nproc", "threads", "seed", "deps", "rustc", "flush_policy", "sizes"]
    {
        assert!(provenance.get(stamp).is_some(), "provenance lacks {stamp}");
    }
    assert_eq!(provenance.get("seed").and_then(JsonValue::as_u64), Some(5));

    let end_to_end = manifest_names("end_to_end");
    let per_layer = manifest_names("per_layer");
    for workload in WORKLOADS {
        let entry = file.get("workloads").and_then(|w| w.get(workload)).expect("workload entry");
        let untraced = entry.get("untraced").expect("untraced pass");
        assert_pass(untraced, &end_to_end, &format!("{workload} untraced"));
        assert!(stdout.contains(&format!("workload {workload} ")), "{workload} not reported");
        let traced = entry.get("traced").expect("traced pass");
        assert_pass(traced, &per_layer, &format!("{workload} traced"));
        let metrics = traced.get("result").and_then(|r| r.get("metrics")).unwrap();
        let value = |name: &str| metrics.get(name).and_then(|m| m.get("value")?.as_f64()).unwrap();
        assert!(value("obs.span_coverage") > 0.8, "{workload}: bench spans cover the traced wall");
        assert!(value("obs.program_spans") > 0.0, "{workload}: the program's own spans recorded");
        let trace = dir.join("target/benchmark").join(format!("trace.{workload}.json"));
        let trace = std::fs::read_to_string(&trace).expect("trace file");
        validate_json(&trace).expect("trace is valid JSON");
        assert!(
            trace.contains("\"bench.core.genjob_pgpba\""),
            "{workload}: bench-side span in trace"
        );
    }
    // Every metric is printed by name with its unit.
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(stdout.contains(&format!("  {name} ")), "{name} not printed");
    }
    // Work directories are removed on success; traces and results stay.
    let left: Vec<_> = std::fs::read_dir(dir.join("target/benchmark"))
        .expect("work root")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("work."))
        .collect();
    assert!(left.is_empty(), "work directories left behind: {left:?}");

    let path = results.to_str().unwrap();
    let same = bench(&dir, &["compare", path, path]);
    assert!(same.status.success(), "a file compared with itself regressed");
    assert!(String::from_utf8_lossy(&same.stdout).contains("failed_share"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_seed_gives_the_same_counts() {
    let dir = scratch("repeat");
    let run = || {
        let out = bench(
            &dir,
            &[
                "--workload",
                "gen_store",
                "--seed",
                "9",
                "--seconds",
                "12",
                "--trace",
                "0",
                "--smoke",
            ],
        );
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        parse_json(stdout.lines().last().expect("result line")).expect("result line parses")
    };
    let (a, b) = (run(), run());
    let bytes =
        |r: &JsonValue| r.get("metrics")?.get("store_bytes_per_edge")?.get("value")?.as_f64();
    assert!(bytes(&a).is_some() && bytes(&a) == bytes(&b), "same seed, same store bytes");
    assert_eq!(
        a.get("attempted").and_then(JsonValue::as_u64),
        b.get("attempted").and_then(JsonValue::as_u64)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let dir = scratch("args");
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "12", "--trace", "0"][..],
        &["--seed", "1"],
        &["--workload", "gen_mem", "--trace", "2"],
        &["compare", "missing-a.json", "missing-b.json"],
    ] {
        let out = bench(&dir, args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
