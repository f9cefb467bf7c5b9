//! # csb-bench
//!
//! Shared harness utilities for regenerating the paper's evaluation
//! (Figures 5-12, Table I, and the Fig. 4 detector evaluation). Each
//! experiment is a binary (`src/bin/fig*.rs`, `src/bin/table1*.rs`) that
//! prints the same rows/series the paper plots; `benches/` holds the
//! Criterion micro-benchmarks and ablations.
//!
//! Scale: harnesses run the real generators at laptop scale (the
//! `CSB_SCALE` environment variable multiplies the default workload) and use
//! the calibrated simulated cluster for paper-scale cluster axes, as
//! documented in DESIGN.md.
//!
//! ## `BENCH_materialize.json` schema
//!
//! One object per run, written by `bench_materialize` through the shared
//! `csb-obs` JSON writer:
//!
//! ```text
//! { "bench":"materialize", "status":"measured", "scale":F,
//!   "threads":N, "section_threads": { section: N, ... }, "os":S,
//!   "git_rev":S,
//!   "pgpba":PhaseTimings, "pgsk":PhaseTimings,
//!   "attach_edges":N, "attach_w1_secs":F, "attach_parallel_secs":F,
//!   "attach_scaling":F,
//!   "store_shards":N, "store_codec":S, "store_write_edges":N,
//!   "store_write_secs":F, "store_write_edges_per_sec":F,
//!   "peak_rss_bytes":N, "store_enc_bytes_saved":N,
//!   "spans": { name: {"count":N, "total_micros":N}, ... } }
//! ```
//!
//! `attach_w1_secs` times `attach_properties` under a one-thread pool and
//! `attach_scaling` is its ratio to the configured width. (Files from before
//! PR 16 carry `attach_serial_secs` / `attach_speedup` instead, which timed a
//! per-edge `add_edge` reference: the two are not comparable.)
//!
//! The `store_*` fields time the same attach stream materialized straight
//! into a sharded columnar-compressed store (one writer worker per shard).
//! `peak_rss_bytes` is the largest `VmRSS` the background [`csb_obs::Sampler`]
//! observed over the whole harness (0 on procfs-less platforms), and
//! `store_enc_bytes_saved` is the `store.enc_bytes_saved` counter — raw
//! minus encoded payload bytes across every columnar chunk written.
//!
//! `PhaseTimings` is [`csb_core::PhaseTimings::to_json`]; `spans` aggregates
//! the csb-obs span stream per name. Provenance fields are best-effort:
//! `threads` is the pool width the harness configured
//! ([`configured_pool_width`]), `section_threads` is the width rayon
//! actually reported *inside* each measured section (captured by
//! [`with_pool`], asserted equal to `threads` for parallel sections), `os`
//! is `std::env::consts::OS`, and `git_rev` comes from [`git_rev`]: the
//! `GIT_REV` environment variable (set by CI), then `git rev-parse HEAD`,
//! then reading `.git/HEAD` directly (walking up from the working
//! directory, the crate directory, and the executable) when no git binary
//! is available; `"unknown"` remains the placeholder when no provenance
//! source works at all.
//!
//! ## `BENCH_veracity.json` schema
//!
//! One object per run, written by `bench_veracity` (the in-memory vs
//! out-of-core veracity trajectory; `--smoke` emits `"status":"smoke"` at a
//! reduced workload):
//!
//! ```text
//! { "bench":"veracity", "status":"measured"|"smoke", "scale":F,
//!   "threads":N, "section_threads": { "mem":N, "ooc":N },
//!   "store_shards":N, "store_codec":S, "os":S, "git_rev":S,
//!   "seed_vertices":N, "seed_edges":N, "synth_vertices":N, "synth_edges":N,
//!   "mem_secs":F, "ooc_secs":F,
//!   "metrics": { name: {"mem_secs":F, "ooc_secs":F, "score":F}, ... },
//!   "degree":F, "pagerank":F,
//!   "peak_scratch_bytes":N, "scratch_bound_bytes":N, "ooc_bytes_read":N,
//!   "peak_rss_bytes":N, "store_enc_bytes_saved":N,
//!   "spans": { name: {"count":N, "total_micros":N}, ... } }
//! ```
//!
//! `peak_rss_bytes` and `store_enc_bytes_saved` are as in
//! `BENCH_materialize.json`: the sampler's RSS high-water mark and the
//! columnar encoder's total payload savings for the synthetic shard set.
//!
//! `metrics` has one entry per [`csb_core::Metric`] (the full Veracity 2.0
//! suite, in `Metric::ALL` order): the wall-clock seconds of a
//! single-metric `VeracityJob` run per path and the score, printed with
//! `{:e}` (shortest round-trip) so parsing recovers the exact f64. Each
//! score is asserted bit-identical between the in-memory and out-of-core
//! paths before the file is written. `mem_secs`/`ooc_secs` are the sums
//! over the per-metric sections, and `degree`/`pagerank` duplicate those
//! two scores at top level so pre-2.0 consumers keep parsing. The per-path
//! timings bracket the whole single-metric job, so the out-of-core numbers
//! include re-opening the stores per metric.
//!
//! `peak_scratch_bytes` is the `ooc.peak_scratch_bytes` gauge high-water
//! mark over the *degree and pagerank* sections; the harness asserts it
//! stays under `scratch_bound_bytes`, the O(vertices + chunk) ceiling of
//! the streaming distribution kernels. (Clustering legitimately holds the
//! simplified adjacency — O(V + E) — and the spectral sketch its iteration
//! vectors, so those sections are outside the bound.)
//! `store_shards`/`store_codec` describe the synthetic store's layout (the
//! seed store is always a v1 single file, so each run also exercises the
//! v1-compat read path).
//!
//! ## `BENCH_serve.json` schema
//!
//! One object per run, written by `bench_serve` — the csb-serve load
//! benchmark: an in-process daemon with N worker slots under hundreds of
//! concurrent protocol clients, each submitting small generate jobs and
//! long-polling for the result (`--smoke` shrinks the fleet for CI):
//!
//! ```text
//! { "bench":"serve", "status":"measured"|"smoke", "os":S, "git_rev":S,
//!   "workers":N, "clients":N, "jobs_per_client":N, "job_size_edges":N,
//!   "jobs_submitted":N, "jobs_done":N, "jobs_failed":N, "jobs_rejected":N,
//!   "lost":N, "duplicates":N,
//!   "wall_secs":F, "jobs_per_sec":F,
//!   "p50_ms":F, "p90_ms":F, "p99_ms":F, "max_ms":F, "mean_ms":F,
//!   "max_queue_depth":N, "rejection_rate":F }
//! ```
//!
//! Latencies are client-side submit-to-done (the long-poll `result` reply),
//! so they include queueing. `lost` is submitted-minus-accounted (must be
//! 0), `duplicates` counts job ids or completion sequence numbers seen
//! twice (must be 0) — together they are the zero-lost/zero-duplicated
//! acceptance check. `max_queue_depth` is the deepest scheduler queue a
//! 20 ms poller observed, and `rejection_rate` is rejected over attempted
//! submissions.

use csb_core::analysis::SeedAnalysis;
use csb_core::seed::{seed_from_trace, SeedBundle};
use csb_net::traffic::sim::{TrafficSim, TrafficSimConfig};
use std::path::Path;

/// Reads the workload multiplier from `CSB_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("CSB_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// The pool width the bench harnesses configure for their measured
/// sections: the `CSB_BENCH_THREADS` environment variable when set to a
/// positive integer, else the host parallelism. This is the width the
/// JSON `threads` provenance field must agree with — reading the *default*
/// rayon width at JSON-write time instead is exactly the bug that stamped
/// `threads: 1` on multi-worker runs.
pub fn configured_pool_width() -> usize {
    std::env::var("CSB_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Runs one measured section inside a rayon pool of `width` threads and
/// returns `(result, observed)`, where `observed` is the pool width rayon
/// actually reported *inside* the section — the value bench JSONs must
/// record per section, so the provenance reflects the pool the section ran
/// under rather than whatever pool happened to be current when the JSON was
/// assembled.
pub fn with_pool<T: Send>(width: usize, f: impl FnOnce() -> T + Send) -> (T, usize) {
    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(width.max(1)).build().expect("thread pool");
    let mut observed = 0;
    let out = pool.install(|| {
        observed = rayon::current_num_threads();
        f()
    });
    (out, observed)
}

/// Builds the standard seed used across the harnesses: a simulated
/// enterprise trace standing in for the paper's SMIA 2011 capture.
/// At scale 1.0 it yields a seed of roughly 4-6 thousand edges.
pub fn standard_seed() -> SeedBundle {
    standard_seed_scaled(scale())
}

/// The standard seed at an explicit scale factor.
///
/// When the `CSB_SEED_STORE` environment variable names a directory, the
/// simulated seed graph is cached there as a `csb-store` file (see
/// [`seed_via_store_cache`]), so repeated harness runs at the same scale
/// skip the traffic simulation and flow assembly entirely.
pub fn standard_seed_scaled(scale: f64) -> SeedBundle {
    match std::env::var("CSB_SEED_STORE") {
        Ok(dir) if !dir.is_empty() => seed_via_store_cache(Path::new(&dir), scale),
        _ => simulate_seed(scale),
    }
}

/// The uncached simulation behind [`standard_seed_scaled`].
fn simulate_seed(scale: f64) -> SeedBundle {
    let cfg = TrafficSimConfig {
        duration_secs: 60.0 * scale.max(0.05),
        sessions_per_sec: 60.0,
        seed: 0xC5B_5EED,
        ..TrafficSimConfig::default()
    };
    seed_from_trace(&TrafficSim::new(cfg).generate())
}

/// Loads the standard seed for `scale` from a `csb-store` cache file in
/// `dir`, simulating and saving it on a miss. The analysis is recomputed
/// from the loaded graph (it is derived data; only the graph is persisted).
pub fn seed_via_store_cache(dir: &Path, scale: f64) -> SeedBundle {
    let file = dir.join(format!("csb-seed-scale-{scale}.csbstore"));
    if let Ok(graph) = csb_store::load_graph(&file) {
        return SeedBundle { analysis: SeedAnalysis::of(&graph), graph };
    }
    let seed = simulate_seed(scale);
    std::fs::create_dir_all(dir).ok();
    if let Err(e) = csb_store::save_graph(&file, &seed.graph) {
        eprintln!("warning: could not cache seed graph at {}: {e}", file.display());
    }
    seed
}

/// Best-effort git revision for provenance stamps, in order of preference:
/// the `GIT_REV` environment variable (set by CI), `git rev-parse HEAD`, and
/// finally reading `.git/HEAD` (and the ref or packed-refs entry it points
/// to) directly — for containers without a git binary. `"unknown"` only when
/// every source fails.
///
/// The `.git` lookup walks up from *three* anchors — the working directory,
/// this crate's source directory, and the running executable — because bench
/// binaries are routinely invoked from outside the checkout (CI stages,
/// `cargo run` wrappers with a scratch cwd). The working-directory-only walk
/// used to stamp `git_rev: "unknown"` in exactly those runs.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    if let Ok(out) = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output() {
        if out.status.success() {
            if let Ok(s) = String::from_utf8(out.stdout) {
                let s = s.trim();
                if !s.is_empty() {
                    return s.to_string();
                }
            }
        }
    }
    let anchors = [
        std::env::current_dir().ok(),
        Some(Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()),
        std::env::current_exe().ok().and_then(|p| p.parent().map(Path::to_path_buf)),
    ];
    for start in anchors.into_iter().flatten() {
        if let Some(rev) = rev_from_ancestors(&start) {
            return rev;
        }
    }
    "unknown".to_string()
}

/// Walks up from `start` to the filesystem root looking for a `.git`
/// directory, and resolves HEAD inside the first one found.
fn rev_from_ancestors(start: &Path) -> Option<String> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return rev_from_git_dir(&git);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Resolves HEAD inside a `.git` directory without invoking git: follows a
/// `ref: ` indirection to the loose ref file or a `packed-refs` entry, and
/// accepts a detached-HEAD hash as-is.
fn rev_from_git_dir(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return (!head.is_empty()).then(|| head.to_string());
    };
    if let Ok(s) = std::fs::read_to_string(git.join(refname)) {
        let s = s.trim();
        if !s.is_empty() {
            return Some(s.to_string());
        }
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    for line in packed.lines() {
        if let Some((hash, name)) = line.split_once(' ') {
            if name == refname && !hash.starts_with('#') && !hash.starts_with('^') {
                return Some(hash.to_string());
            }
        }
    }
    None
}

/// A plain-text aligned table writer for harness output.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Scientific-notation formatting used across the harnesses.
pub fn sci(x: f64) -> String {
    format!("{x:.3e}")
}

/// Engineering formatting for large counts.
pub fn eng(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}B", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_seed_is_reasonable() {
        let seed = standard_seed_scaled(0.2);
        assert!(seed.edge_count() > 200, "seed too small: {}", seed.edge_count());
        assert!(seed.graph.vertex_count() > 50);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("a  bbbb"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn rev_from_git_dir_reads_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("csb-bench-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).expect("mkdir");

        // Loose ref.
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").expect("head");
        std::fs::write(git.join("refs/heads/main"), "abc123\n").expect("ref");
        assert_eq!(rev_from_git_dir(&git).as_deref(), Some("abc123"));

        // Packed ref only.
        std::fs::remove_file(git.join("refs/heads/main")).expect("rm");
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs with: peeled fully-peeled sorted\ndef456 refs/heads/main\n",
        )
        .expect("packed");
        assert_eq!(rev_from_git_dir(&git).as_deref(), Some("def456"));

        // Detached HEAD.
        std::fs::write(git.join("HEAD"), "0123abcd\n").expect("head");
        assert_eq!(rev_from_git_dir(&git).as_deref(), Some("0123abcd"));

        // Unresolvable ref.
        std::fs::write(git.join("HEAD"), "ref: refs/heads/gone\n").expect("head");
        assert_eq!(rev_from_git_dir(&git), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_rev_resolves_in_this_repository() {
        // This repo has a real .git; whichever source wins, the result must
        // be a hex hash, not the placeholder.
        let rev = git_rev();
        assert_ne!(rev, "unknown");
        assert!(rev.len() >= 7 && rev.chars().all(|c| c.is_ascii_hexdigit()), "got {rev:?}");
    }

    #[test]
    fn rev_resolves_from_a_subdirectory() {
        // Regression: the `.git` walk used to start only at the working
        // directory, so a bench binary launched from outside the checkout
        // stamped "unknown". The walk must find the repo from any directory
        // *below* it, however deep.
        let dir = std::env::temp_dir().join(format!("csb-bench-anchor-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(&git).expect("mkdir .git");
        std::fs::write(git.join("HEAD"), "feedface01\n").expect("head");
        let deep = dir.join("crates").join("bench").join("src").join("bin");
        std::fs::create_dir_all(&deep).expect("mkdir deep");
        assert_eq!(rev_from_ancestors(&deep).as_deref(), Some("feedface01"));
        // And from the repo root itself.
        assert_eq!(rev_from_ancestors(&dir).as_deref(), Some("feedface01"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_rev_anchors_on_the_crate_directory() {
        // The crate-dir anchor alone must resolve this repository's HEAD —
        // this is the path a bench binary takes when its working directory
        // is outside the checkout and no git binary answers.
        let rev = rev_from_ancestors(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("crate anchor");
        assert!(rev.len() >= 7 && rev.chars().all(|c| c.is_ascii_hexdigit()), "got {rev:?}");
    }

    #[test]
    fn with_pool_reports_the_configured_width() {
        let (sum, observed) = with_pool(3, || (1..=4).sum::<i32>());
        assert_eq!(sum, 10);
        assert_eq!(observed, 3, "section must observe the pool it was given");
        // Zero is clamped to a one-thread pool, never a zero-width one.
        let ((), observed) = with_pool(0, || ());
        assert_eq!(observed, 1);
    }

    #[test]
    fn configured_pool_width_is_positive() {
        assert!(configured_pool_width() >= 1);
    }

    #[test]
    fn seed_store_cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("csb-bench-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let first = seed_via_store_cache(&dir, 0.05);
        assert!(dir.read_dir().expect("cache dir").count() > 0, "cache file written");
        let second = seed_via_store_cache(&dir, 0.05);
        assert_eq!(first.graph.vertex_data(), second.graph.vertex_data());
        assert_eq!(first.graph.edge_sources(), second.graph.edge_sources());
        assert_eq!(first.graph.edge_data(), second.graph.edge_data());
        // The analysis recomputed from the cached graph matches too.
        assert_eq!(
            first.analysis.out_degree.mean(),
            second.analysis.out_degree.mean(),
            "derived analysis must be identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(eng(1_500.0), "1.50k");
        assert_eq!(eng(2_000_000.0), "2.00M");
        assert_eq!(eng(3_100_000_000.0), "3.10B");
        assert_eq!(eng(12.0), "12");
        assert!(sci(0.000123).starts_with("1.230e-4"));
    }
}
