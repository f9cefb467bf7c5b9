//! `csb` — the command-line front end of the suite, mirroring the paper's
//! released benchmarking tool: simulate captures, build seeds, generate
//! synthetic property-graphs, score veracity, and run the Section IV
//! detector.

mod args;
mod commands;
mod compare;
mod serve_cmd;

use args::Args;

const USAGE: &str = "\
csb — property-graph synthetic data generation for IDS benchmarking

USAGE:
    csb <COMMAND> [--flag value ...]

COMMANDS:
    simulate     Simulate an enterprise capture and write it as PCAP
                 --out FILE [--duration SECS=60] [--rate SESSIONS/S=50]
                 [--seed N=1] [--attacks true]
    campaign     Simulate benign traffic plus multi-stage attack campaigns
                 and write ground-truth-labeled flows
                 --out FILE [--kdd FILE] [--report FILE]
                 [--duration SECS=60] [--rate SESSIONS/S=50] [--seed N=1]
                 [--campaigns N=1] [--stages LIST=recon,lateral,c2,exfil]
                 [--intensity F=1] [--stealth F=0.3]
                 [--workers N=1] [--shards N=1] [--codec raw|columnar]
                 (each campaign walks the kill chain — recon, lateral
                 movement, C2 beaconing, exfiltration — over the simulated
                 topology; --out gets the labeled flow store (sharded when
                 --shards > 1), --kdd NSL-KDD-style feature rows, and
                 --report a JSON report scoring the Section IV detector
                 against the campaign ground truth; output is byte-identical
                 for every --workers count)
    seed         Build the seed property-graph from a PCAP capture
                 --pcap FILE --out FILE [--filter EXPR]
                 (EXPR is tcpdump-like: \"tcp and dst port 80\", \"not icmp\")
    generate     Grow a synthetic property-graph from a seed graph
                 --seed-graph FILE --algorithm pgpba|pgsk --size EDGES
                 --out FILE [--fraction F=0.1] [--seed N=42]
                 [--trace-out FILE] [--metrics-out FILE]
                 [--checkpoint-dir DIR] [--checkpoint-every CHUNKS=8]
                 [--resume true] [--kill-after-chunks N]
                 [--shards N=1] [--codec raw|columnar]
                 [--obs-listen ADDR] [--obs-linger-ms MS=0]
                 [--progress true] [--job-id ID]
                 (trace-out writes a Chrome trace-event JSON for Perfetto;
                 metrics-out writes the csb-obs counter/histogram summary;
                 checkpoint-dir writes --out in the binary csb-store format
                 with durable barriers — a killed run re-invoked with
                 --resume true continues from the last barrier and produces
                 a byte-identical file; kill-after-chunks aborts the process
                 after N store chunks, for crash-recovery testing;
                 shards > 1 splits the store across N files behind a
                 shard-set manifest written by parallel workers, and
                 codec columnar writes compressed format-v2 chunks —
                 both imply the binary store format for --out;
                 obs-listen serves live Prometheus text at GET /metrics and
                 job progress JSON at GET /status on ADDR, e.g.
                 127.0.0.1:9184, or port 0 for an ephemeral port printed as
                 `obs: serving http://...`; obs-linger-ms keeps the endpoint
                 up that long after the run so scrapers catch the final
                 state; progress prints a one-line status ticker to stderr;
                 job-id names the job in /status and the ticker)
    obs          Inspect observability artifacts
                 report TRACE [--top N=20] [--metrics FILE]
                 (folds a trace written by --trace-out — Chrome JSON or
                 events JSONL — into a per-phase self-time profile; with
                 --metrics, also prints top counters from a --metrics-out
                 summary)
    veracity     Score a synthetic graph against its seed
                 --seed-graph FILE --synthetic FILE | --store SEED SYNTH
                 [--metrics LIST=degree,pagerank] [--json-out FILE]
                 [--damping F=0.85] [--max-iters N=100] [--tolerance F]
                 [--scan-cache-mb N]
                 (LIST picks from degree, pagerank, clustering,
                 assortativity, spectral, mmd_degree, mmd_pagerank — or the
                 shorthands mmd and all; --store scores two store files out
                 of core and --scan-cache-mb caps that scan cache, also
                 settable via CSB_SCAN_CACHE_MB; the PageRank knobs drive the
                 pagerank and mmd_pagerank scores)
    compare      Score the whole generator lineup against one seed graph:
                 the 7 baseline models (ER, WS, BA, Chung-Lu, BTER, SBM,
                 R-MAT) plus PGPBA and PGSK, at matched scale
                 --seed-graph FILE | --seed-store FILE
                 [--size-mult N=8] [--seed N=42] [--metrics LIST=all]
                 [--store NAME=PATH ...] [--out REPORT.json] [--smoke true]
                 [--damping F] [--max-iters N] [--tolerance F]
                 [--scan-cache-mb N]
                 (--store adds pre-generated store files to the lineup,
                 scored out of core; --out writes the machine-readable
                 comparison report; --smoke shrinks the scale for CI)
    detect       Run the NetFlow anomaly detector over a capture
                 --pcap FILE [--train FILE] [--filter EXPR]
    workload     Run the node/edge/path/sub-graph query workload on a graph
                 --graph FILE [--node N] [--edge N] [--path N] [--subgraph N]
    export       Export a graph (NetFlow v5 / binary store) or a labeled
                 flow store (KDD feature rows)
                 --graph FILE --out FILE [--format nf5|store|store-flows]
                 [--duration SECS=60] [--seed N=1]
                 --flows FILE --out FILE --format kdd
                 (nf5 and store-flows replay the graph as flows; store writes
                 the chunked columnar graph format `csb import` reads back;
                 kdd renders a labeled flow store — e.g. from `csb campaign`
                 — as NSL-KDD-style CSV feature rows with class, campaign,
                 and stage label columns)
    import       Load a csb-store graph file and write it as a text graph
                 --store FILE --out FILE [--expect FILE]
                 (--expect verifies the store matches an existing text graph)
    cluster-sim  Project a generation job onto the simulated Shadow II cluster
                 --algorithm pgpba|pgsk --edges N [--nodes N=60]
                 [--fraction F=2] [--seed-edges N=1940814]
    serve        Run the generation-as-a-service daemon
                 --spool DIR [--listen ADDR=127.0.0.1:7070] [--workers N=2]
                 [--obs-listen ADDR] [--mem-budget-gb F=4] [--max-queue N=256]
                 (newline-JSON protocol: submit/status/result/cancel/list/
                 shutdown; jobs checkpoint under the spool and resume
                 byte-identically after a kill; a job is admitted when its
                 predicted memory fits --mem-budget-gb)
    submit       Submit a job to a csb-serve daemon
                 [--server ADDR] [--kind generate|veracity]
                 [--priority high|normal|low] [--wait true] [--timeout-secs N]
                 generate: --seed-graph FILE --size EDGES [--algorithm pgpba]
                 [--fraction F=0.1] [--seed N=1] [--shards N] [--codec raw]
                 [--chunk-records N]
                 veracity: --seed-store FILE --synth-store FILE
    jobs         Show a csb-serve daemon's queue and job table
                 [--server ADDR]
    cancel       Cancel a queued or running job
                 --job ID [--server ADDR]
    shutdown     Stop a csb-serve daemon
                 [--server ADDR] [--mode drain|now]

Set CSB_LOG=warn|info|debug for leveled diagnostics on stderr (silent when
unset).

Run `csb <COMMAND>` with missing flags to see what is required.
";

/// Rewrites the `obs` command family into flat subcommands the `--flag`-only
/// parser accepts: `obs report TRACE ...` becomes `obs-report --trace TRACE
/// ...`. Anything else passes through untouched (Args then reports the usage
/// error).
fn normalize_obs(raw: Vec<String>) -> Vec<String> {
    if raw.first().map(String::as_str) != Some("obs") {
        return raw;
    }
    match raw.get(1).map(String::as_str) {
        Some("report") if raw.len() >= 3 && !raw[2].starts_with("--") => {
            let mut out = vec!["obs-report".to_string(), "--trace".to_string(), raw[2].clone()];
            out.extend(raw[3..].iter().cloned());
            out
        }
        _ => raw,
    }
}

fn main() {
    let raw: Vec<String> = normalize_obs(std::env::args().skip(1).collect());
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print!("{USAGE}");
        return;
    }
    let code = match Args::parse(&raw) {
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            2
        }
        Ok(args) => match commands::run(&args) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::normalize_obs;

    fn raw(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn obs_report_rewrites_to_a_flat_subcommand() {
        assert_eq!(
            normalize_obs(raw(&["obs", "report", "trace.json", "--top", "5"])),
            raw(&["obs-report", "--trace", "trace.json", "--top", "5"])
        );
    }

    #[test]
    fn other_commands_pass_through() {
        assert_eq!(
            normalize_obs(raw(&["generate", "--size", "10"])),
            raw(&["generate", "--size", "10"])
        );
        assert_eq!(normalize_obs(raw(&["obs"])), raw(&["obs"]));
        // `obs report` with no positional stays as-is; Args then reports it.
        assert_eq!(
            normalize_obs(raw(&["obs", "report", "--top", "5"])),
            raw(&["obs", "report", "--top", "5"])
        );
        assert_eq!(normalize_obs(raw(&[])), raw(&[]));
    }
}
