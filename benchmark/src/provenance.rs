//! What a results file says about where it came from. Every field is read
//! when the file is written, so none can go stale.

use crate::plan::{Plan, Workload, MAX_THREADS, RUN_SECONDS, STORE_SHARDS};
use csb_obs::json::JsonObject;
use std::process::Command;

fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

/// HEAD of the checkout the benchmark runs in; `"unknown"` where git cannot
/// say (an exported tree has no revision to report).
pub fn git_rev() -> String {
    stdout_of("git", &["rev-parse", "HEAD"])
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the working tree differs from HEAD; `None` where git cannot say.
pub fn dirty() -> Option<bool> {
    stdout_of("git", &["status", "--porcelain"]).map(|s| !s.is_empty())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The pool width every workload is configured with.
pub fn threads() -> usize {
    nproc().min(MAX_THREADS)
}

/// Which rand, rayon, crossbeam, parking_lot and bytes this binary was built
/// against, as `cargo.sh` chose and says: `registry` (the published crates,
/// from cargo's cache) or `stand-ins` (`offline/`). Numbers of the two are
/// not comparable, so every report carries it.
pub fn deps() -> String {
    std::env::var("CSB_BENCHMARK_DEPS")
        .unwrap_or_else(|_| "unknown (not started by cargo.sh)".into())
}

/// The frozen size constants, as the plan of a full-length untraced run of
/// each workload resolves them.
fn sizes_json(smoke: bool) -> String {
    let mut o = JsonObject::new();
    o.u64("run_seconds", RUN_SECONDS).u64("store_shards", STORE_SHARDS as u64);
    for w in Workload::ALL {
        let p = Plan::new(w, 0, RUN_SECONDS, smoke, false, threads());
        let mut s = JsonObject::new();
        s.u64("gen_mem_edges", p.gen_mem.edges)
            .u64("pgpba_reps", p.gen_mem.pgpba_reps as u64)
            .u64("pgsk_reps", p.gen_mem.pgsk_reps as u64)
            .u64("gen_store_edges", p.gen_store.edges)
            .u64("gen_store_reps", p.gen_store.reps as u64)
            .u64("veracity_edges", p.veracity.edges)
            .u64("veracity_reps", p.veracity.reps as u64)
            .f64("campaign_duration_secs", p.campaign.duration_secs, 1)
            .f64("campaign_sessions_per_sec", p.campaign.sessions_per_sec, 1)
            .u64("campaign_reps", p.campaign.reps as u64)
            .u64("detector_passes_per_campaign", p.campaign.ids_per_rep as u64)
            .u64("rounds", p.rounds as u64)
            .u64("serve_jobs", p.serve.jobs as u64)
            .u64("serve_workers", p.serve_workers() as u64)
            .u64("serve_clients", p.threads as u64)
            .u64("setup_reps", p.fixed.setup_reps as u64)
            .u64("probe_edges", p.fixed.probe_edges)
            .u64("probe_reps", p.fixed.probe_reps as u64);
        o.raw(w.name(), &s.finish());
    }
    o.finish()
}

pub fn json(seed: u64, seconds: u64, smoke: bool) -> String {
    let mut o = JsonObject::new();
    o.str("git_rev", &git_rev());
    match dirty() {
        Some(d) => o.bool("dirty", d),
        None => o.raw("dirty", "null"),
    };
    o.u64("nproc", nproc() as u64)
        .u64("threads", threads() as u64)
        .u64("seed", seed)
        .u64("seconds", seconds)
        .bool("smoke", smoke)
        .str("deps", &deps())
        .str("rustc", &stdout_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()))
        .str("os", std::env::consts::OS)
        .str(
            "flush_policy",
            "the sinks' own finish()/barrier syncs, unchanged; no extra fsync or cache drop",
        )
        .raw("sizes", &sizes_json(smoke));
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_valid_json_with_every_stamp() {
        let json = json(7, RUN_SECONDS, true);
        csb_obs::json::validate_json(&json).expect("valid JSON");
        for field in [
            "git_rev",
            "dirty",
            "nproc",
            "threads",
            "seed",
            "deps",
            "rustc",
            "flush_policy",
            "sizes",
        ] {
            assert!(json.contains(&format!("\"{field}\":")), "{field} missing");
        }
        assert!(threads() <= MAX_THREADS && threads() <= nproc());
    }
}
