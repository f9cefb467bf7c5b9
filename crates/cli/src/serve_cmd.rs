//! The generation-as-a-service subcommands: `csb serve` runs the daemon,
//! `csb submit/jobs/cancel/shutdown` are thin protocol clients.

use crate::args::Args;
use csb_serve::{Algorithm, Client, JobSpec, Priority, ServeConfig, Server};
use csb_store::CsbError;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

type Result<T> = std::result::Result<T, CsbError>;

fn arg_err(message: impl Into<String>) -> CsbError {
    CsbError::Config(message.into())
}

const DEFAULT_ADDR: &str = "127.0.0.1:7070";

/// `csb serve` — run the daemon until a protocol `shutdown`.
pub fn serve(args: &Args) -> Result<()> {
    args.expect_only(&["spool", "listen", "workers", "obs-listen", "mem-budget-gb", "max-queue"])?;
    let mut cfg = ServeConfig::new(args.require("spool")?);
    cfg.listen = args.get_or("listen", DEFAULT_ADDR.to_string())?;
    cfg.workers = args.get_or("workers", 2usize)?;
    cfg.obs_listen = args.get("obs-listen").map(str::to_string);
    cfg.mem_budget_gb = args.get_or("mem-budget-gb", 4.0)?;
    cfg.max_queue = args.get_or("max-queue", 256usize)?;
    let server = Server::start(cfg)?;
    // Machine-parseable: CI and scripts read the bound (possibly ephemeral)
    // port from these lines.
    println!("serve: listening on {}", server.addr());
    if let Some(a) = server.obs_addr() {
        println!("obs: serving http://{a}");
    }
    std::io::stdout().flush().ok();
    server.wait();
    println!("serve: stopped");
    Ok(())
}

fn connect(args: &Args) -> Result<Client> {
    let addr = args.get("server").unwrap_or(DEFAULT_ADDR);
    Client::connect(addr).map_err(|e| arg_err(format!("cannot reach csb-serve at {addr}: {e}")))
}

/// `csb submit` — submit a generate or veracity job, optionally waiting for
/// the result.
pub fn submit(args: &Args) -> Result<()> {
    args.expect_only(&[
        "server",
        "kind",
        "priority",
        "wait",
        "timeout-secs",
        "algorithm",
        "seed-graph",
        "size",
        "fraction",
        "seed",
        "shards",
        "codec",
        "chunk-records",
        "seed-store",
        "synth-store",
    ])?;
    let spec = match args.get("kind").unwrap_or("generate") {
        "generate" => {
            let algorithm = match args.get("algorithm").unwrap_or("pgpba") {
                "pgpba" => Algorithm::Pgpba,
                "pgsk" => Algorithm::Pgsk,
                other => return Err(arg_err(format!("unknown algorithm {other} (pgpba|pgsk)"))),
            };
            let columnar = match args.get("codec") {
                None | Some("raw") => false,
                Some("columnar") => true,
                Some(other) => {
                    return Err(arg_err(format!(
                        "flag --codec: expected raw|columnar, got {other}"
                    )))
                }
            };
            JobSpec::Generate {
                algorithm,
                seed_graph: PathBuf::from(args.require("seed-graph")?),
                size: args.require_parsed("size")?,
                fraction: args.get_or("fraction", 0.1)?,
                seed: args.get_or("seed", 1u64)?,
                shards: args.get_or("shards", 0usize)?,
                columnar,
                chunk_records: match args.get("chunk-records") {
                    None => None,
                    Some(raw) => Some(
                        raw.parse().map_err(|_| arg_err("flag --chunk-records: not a number"))?,
                    ),
                },
            }
        }
        "veracity" => JobSpec::Veracity {
            seed_store: PathBuf::from(args.require("seed-store")?),
            synth_store: PathBuf::from(args.require("synth-store")?),
        },
        other => return Err(arg_err(format!("unknown job kind {other} (generate|veracity)"))),
    };
    let priority = match args.get("priority") {
        None => Priority::Normal,
        Some(p) => Priority::parse(p).ok_or_else(|| {
            arg_err(format!("flag --priority: expected high|normal|low, got {p}"))
        })?,
    };
    let mut client = connect(args)?;
    let job = client.submit(&spec, priority)?;
    println!("submitted {job}");
    if args.get_or("wait", false)? {
        let timeout = Duration::from_secs(args.get_or("timeout-secs", 600u64)?);
        let v = client.result_wait(&job, timeout)?;
        println!("{}", render(&v));
    }
    Ok(())
}

/// `csb jobs` — the daemon's job table.
pub fn jobs(args: &Args) -> Result<()> {
    args.expect_only(&["server"])?;
    let mut client = connect(args)?;
    let snap = client.list()?;
    let depth = snap.get("queue_depth").and_then(|v| v.as_u64()).unwrap_or(0);
    let running = snap.get("running").and_then(|v| v.as_u64()).unwrap_or(0);
    let workers = snap.get("workers").and_then(|v| v.as_u64()).unwrap_or(0);
    println!("queue depth {depth}, running {running}/{workers} workers");
    if let Some(items) = snap.get("jobs").and_then(|v| v.as_arr()) {
        for j in items {
            println!("{}", render(j));
        }
    }
    Ok(())
}

/// `csb cancel` — cancel a queued or running job.
pub fn cancel(args: &Args) -> Result<()> {
    args.expect_only(&["server", "job"])?;
    let job = args.require("job")?;
    let mut client = connect(args)?;
    let done = client.cancel(job)?;
    println!("{job}: {}", if done { "canceled" } else { "cancel requested (running)" });
    Ok(())
}

/// `csb shutdown` — stop the daemon (drain by default).
pub fn shutdown(args: &Args) -> Result<()> {
    args.expect_only(&["server", "mode"])?;
    let drain = match args.get("mode") {
        None | Some("drain") => true,
        Some("now") => false,
        Some(other) => {
            return Err(arg_err(format!("flag --mode: expected drain|now, got {other}")))
        }
    };
    let mut client = connect(args)?;
    client.shutdown(drain)?;
    println!("shutdown {} requested", if drain { "drain" } else { "now" });
    Ok(())
}

/// One human-readable line per job record.
fn render(j: &csb_obs::json::JsonValue) -> String {
    let s = |k: &str| j.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let u = |k: &str| j.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let mut line = format!(
        "{} {:8} {:9} {:6} edges={} restarts={} preemptions={}",
        s("job"),
        s("state"),
        s("kind"),
        s("priority"),
        u("edges"),
        u("restarts"),
        u("preemptions"),
    );
    if let Some(d) = j.get("degree").and_then(|v| v.as_f64()) {
        let p = j.get("pagerank").and_then(|v| v.as_f64()).unwrap_or(0.0);
        line.push_str(&format!(" degree={d:.4} pagerank={p:.4}"));
    }
    if let Some(out) = j.get("out").and_then(|v| v.as_str()) {
        line.push_str(&format!(" out={out}"));
    }
    if let Some(err) = j.get("error").and_then(|v| v.as_str()) {
        line.push_str(&format!(" error={err}"));
    }
    line
}
