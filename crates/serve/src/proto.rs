//! The csb-serve wire protocol: newline-delimited JSON, one request line in,
//! one reply line out, over a plain TCP stream.
//!
//! ## Grammar
//!
//! Every request is a single JSON object on one line (≤ [`MAX_LINE_BYTES`])
//! with a `cmd` field (case-insensitive). Replies are single-line JSON
//! objects that always carry `"ok": true|false`; failed requests add an
//! `"error"` string. A malformed line gets a structured error reply and the
//! connection stays open; an oversized line gets an error reply and a close
//! (the framing can no longer be trusted).
//!
//! | `cmd`      | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `ping`     | —                                                             |
//! | `submit`   | `kind` (`generate`/`veracity`) + kind fields, `priority`      |
//! | `status`   | `job`                                                         |
//! | `result`   | `job`, optional `wait_ms` (long-poll until terminal)          |
//! | `cancel`   | `job`                                                         |
//! | `list`     | —                                                             |
//! | `shutdown` | optional `mode` (`drain` default, or `now`)                   |
//!
//! `submit` with `kind:"generate"` takes `algorithm` (`pgpba`/`pgsk`),
//! `seed_graph` (path to a text graph file), `size` (edges), and optionally
//! `fraction` (PGPBA growth fraction, default 0.1), `seed` (RNG master seed,
//! default 1), `shards`, `codec` (`raw`/`columnar`), and `chunk_records`
//! (small values for tests). `kind:"veracity"` takes `seed_store` and
//! `synth_store` (paths to store files or shard manifests).

use csb_obs::json::{parse_json, JsonObject, JsonValue};
use std::path::PathBuf;

/// Hard cap on one request line; beyond this the connection is closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Protocol version reported by `ping`.
pub const PROTO_VERSION: u32 = 1;

/// Scheduling class. Within a class jobs run FIFO; across classes, higher
/// wins. A waiting higher class may preempt a running lower-class job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Served first; may preempt `Normal` and `Low`.
    High,
    /// The default class.
    Normal,
    /// Served last; first to be preempted.
    Low,
}

impl Priority {
    /// Queue index: 0 (high) .. 2 (low).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// Which generator a `generate` job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Property-Graph Parallel Barabási-Albert.
    Pgpba,
    /// Property-Graph Stochastic Kronecker.
    Pgsk,
}

impl Algorithm {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Algorithm::Pgpba => "pgpba",
            Algorithm::Pgsk => "pgsk",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s {
            "pgpba" => Some(Algorithm::Pgpba),
            "pgsk" => Some(Algorithm::Pgsk),
            _ => None,
        }
    }
}

/// What a submitted job does.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Generate a synthetic graph into a store file under the spool.
    Generate {
        /// Generator to run.
        algorithm: Algorithm,
        /// Text graph file to derive the seed bundle from.
        seed_graph: PathBuf,
        /// Target size in edges.
        size: u64,
        /// PGPBA growth fraction (ignored by PGSK).
        fraction: f64,
        /// RNG master seed.
        seed: u64,
        /// Output shard count (0/1 = single file).
        shards: usize,
        /// `true` = columnar (v2) codecs; requires `shards >= 2`.
        columnar: bool,
        /// Store chunk size override (None = default).
        chunk_records: Option<usize>,
    },
    /// Score an already-materialized store against a seed store.
    Veracity {
        /// The reference store (file or shard manifest).
        seed_store: PathBuf,
        /// The store under test.
        synth_store: PathBuf,
    },
}

impl JobSpec {
    /// Short kind name for status lines.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Generate { .. } => "generate",
            JobSpec::Veracity { .. } => "veracity",
        }
    }

    /// Serializes the spec fields into `o` (the inverse of [`parse_submit`]
    /// modulo the `cmd` field — the spool writes these to disk and re-parses
    /// them on recovery).
    pub fn write_fields(&self, o: &mut JsonObject) {
        match self {
            JobSpec::Generate {
                algorithm,
                seed_graph,
                size,
                fraction,
                seed,
                shards,
                columnar,
                chunk_records,
            } => {
                o.str("kind", "generate");
                o.str("algorithm", algorithm.as_str());
                o.str("seed_graph", &seed_graph.display().to_string());
                o.u64("size", *size);
                o.f64("fraction", *fraction, 6);
                o.u64("seed", *seed);
                o.u64("shards", *shards as u64);
                o.str("codec", if *columnar { "columnar" } else { "raw" });
                if let Some(n) = chunk_records {
                    o.u64("chunk_records", *n as u64);
                }
            }
            JobSpec::Veracity { seed_store, synth_store } => {
                o.str("kind", "veracity");
                o.str("seed_store", &seed_store.display().to_string());
                o.str("synth_store", &synth_store.display().to_string());
            }
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Submit a job.
    Submit {
        /// What to run.
        spec: JobSpec,
        /// Scheduling class.
        priority: Priority,
    },
    /// One job's state.
    Status {
        /// Job id (`j-NNNNNN`).
        job: String,
    },
    /// One job's terminal result, optionally long-polling.
    Result {
        /// Job id.
        job: String,
        /// Milliseconds to block waiting for a terminal state (0 = poll).
        wait_ms: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id.
        job: String,
    },
    /// Queue + job table snapshot.
    List,
    /// Stop the daemon.
    Shutdown {
        /// `true` = finish queued work first; `false` = preempt to
        /// checkpoint and exit.
        drain: bool,
    },
}

fn field<'v>(v: &'v JsonValue, key: &str) -> Result<&'v JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

fn u64_field_or(v: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => {
            f.as_u64().ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
        }
    }
}

fn f64_field_or(v: &JsonValue, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f.as_f64().ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

/// Parses the fields of a `submit` request (also used by the spool reading
/// specs back from disk).
pub fn parse_submit(v: &JsonValue) -> Result<(JobSpec, Priority), String> {
    let priority = match v.get("priority") {
        None => Priority::Normal,
        Some(p) => {
            let s = p.as_str().ok_or("field `priority` must be a string")?;
            Priority::parse(s).ok_or_else(|| format!("unknown priority `{s}` (high|normal|low)"))?
        }
    };
    let kind = str_field(v, "kind")?;
    let spec = match kind.as_str() {
        "generate" => {
            let alg = str_field(v, "algorithm")?;
            let algorithm = Algorithm::parse(&alg)
                .ok_or_else(|| format!("unknown algorithm `{alg}` (pgpba|pgsk)"))?;
            let size = u64_field_or(v, "size", 0)?;
            if size == 0 {
                return Err("field `size` must be a positive edge count".into());
            }
            let fraction = f64_field_or(v, "fraction", 0.1)?;
            if !(fraction > 0.0 && fraction.is_finite()) {
                return Err("field `fraction` must be a positive finite number".into());
            }
            let columnar = match v.get("codec").and_then(JsonValue::as_str) {
                None | Some("raw") => false,
                Some("columnar") => true,
                Some(other) => return Err(format!("unknown codec `{other}` (raw|columnar)")),
            };
            let chunk_records = match v.get("chunk_records") {
                None => None,
                Some(f) => {
                    Some(f.as_u64().ok_or("field `chunk_records` must be a non-negative integer")?
                        as usize)
                }
            };
            JobSpec::Generate {
                algorithm,
                seed_graph: PathBuf::from(str_field(v, "seed_graph")?),
                size,
                fraction,
                seed: u64_field_or(v, "seed", 1)?,
                shards: u64_field_or(v, "shards", 0)? as usize,
                columnar,
                chunk_records,
            }
        }
        "veracity" => JobSpec::Veracity {
            seed_store: PathBuf::from(str_field(v, "seed_store")?),
            synth_store: PathBuf::from(str_field(v, "synth_store")?),
        },
        other => return Err(format!("unknown job kind `{other}` (generate|veracity)")),
    };
    Ok((spec, priority))
}

/// Parses one request line. Errors are protocol-level messages suitable for
/// an [`error_reply`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    if !matches!(v, JsonValue::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let cmd = str_field(&v, "cmd")?.to_ascii_lowercase();
    match cmd.as_str() {
        "ping" => Ok(Request::Ping),
        "submit" => {
            let (spec, priority) = parse_submit(&v)?;
            Ok(Request::Submit { spec, priority })
        }
        "status" => Ok(Request::Status { job: str_field(&v, "job")? }),
        "result" => Ok(Request::Result {
            job: str_field(&v, "job")?,
            wait_ms: u64_field_or(&v, "wait_ms", 0)?,
        }),
        "cancel" => Ok(Request::Cancel { job: str_field(&v, "job")? }),
        "list" => Ok(Request::List),
        "shutdown" => match v.get("mode").and_then(JsonValue::as_str) {
            None | Some("drain") => Ok(Request::Shutdown { drain: true }),
            Some("now") => Ok(Request::Shutdown { drain: false }),
            Some(other) => Err(format!("unknown shutdown mode `{other}` (drain|now)")),
        },
        other => Err(format!("unknown command `{other}`")),
    }
}

/// A structured `{"ok":false,"error":...}` reply line (no trailing newline).
pub fn error_reply(message: &str) -> String {
    let mut o = JsonObject::new();
    o.bool("ok", false).str("error", message);
    o.finish()
}

/// An empty-payload `{"ok":true}` builder callers extend with fields.
pub fn ok_reply() -> JsonObject {
    let mut o = JsonObject::new();
    o.bool("ok", true);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_submit_with_defaults() {
        let r = parse_request(
            "{\"cmd\":\"submit\",\"kind\":\"generate\",\"algorithm\":\"pgpba\",\
             \"seed_graph\":\"seed.txt\",\"size\":5000}",
        )
        .expect("must parse");
        let Request::Submit { spec, priority } = r else { panic!("not a submit: {r:?}") };
        assert_eq!(priority, Priority::Normal);
        let JobSpec::Generate { algorithm, size, fraction, seed, shards, columnar, .. } = spec
        else {
            panic!("not generate")
        };
        assert_eq!(algorithm, Algorithm::Pgpba);
        assert_eq!(size, 5000);
        assert!((fraction - 0.1).abs() < 1e-12);
        assert_eq!(seed, 1);
        assert_eq!(shards, 0);
        assert!(!columnar);
    }

    #[test]
    fn parses_veracity_and_priorities() {
        let r = parse_request(
            "{\"cmd\":\"submit\",\"kind\":\"veracity\",\"seed_store\":\"a\",\
             \"synth_store\":\"b\",\"priority\":\"high\"}",
        )
        .unwrap();
        let Request::Submit { spec, priority } = r else { panic!() };
        assert_eq!(priority, Priority::High);
        assert_eq!(spec.kind(), "veracity");
    }

    #[test]
    fn cmd_is_case_insensitive() {
        assert_eq!(parse_request("{\"cmd\":\"PING\"}"), Ok(Request::Ping));
        assert_eq!(parse_request("{\"cmd\":\"List\"}"), Ok(Request::List));
    }

    #[test]
    fn shutdown_modes() {
        assert_eq!(parse_request("{\"cmd\":\"shutdown\"}"), Ok(Request::Shutdown { drain: true }));
        assert_eq!(
            parse_request("{\"cmd\":\"shutdown\",\"mode\":\"now\"}"),
            Ok(Request::Shutdown { drain: false })
        );
        assert!(parse_request("{\"cmd\":\"shutdown\",\"mode\":\"later\"}").is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "42",
            "[]",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"submit\"}",
            "{\"cmd\":\"submit\",\"kind\":\"generate\"}",
            "{\"cmd\":\"submit\",\"kind\":\"generate\",\"algorithm\":\"x\",\
             \"seed_graph\":\"s\",\"size\":10}",
            "{\"cmd\":\"submit\",\"kind\":\"generate\",\"algorithm\":\"pgpba\",\
             \"seed_graph\":\"s\",\"size\":0}",
            "{\"cmd\":\"submit\",\"kind\":\"generate\",\"algorithm\":\"pgpba\",\
             \"seed_graph\":\"s\",\"size\":10,\"fraction\":0}",
            "{\"cmd\":\"submit\",\"kind\":\"generate\",\"algorithm\":\"pgpba\",\
             \"seed_graph\":\"s\",\"size\":10,\"fraction\":-0.5}",
            "{\"cmd\":\"status\"}",
            "{\"cmd\":\"submit\",\"kind\":\"generate\",\"algorithm\":\"pgpba\",\
             \"seed_graph\":\"s\",\"size\":10,\"priority\":\"urgent\"}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn spec_round_trips_through_write_fields() {
        let spec = JobSpec::Generate {
            algorithm: Algorithm::Pgsk,
            seed_graph: PathBuf::from("/tmp/seed.txt"),
            size: 12345,
            fraction: 0.25,
            seed: 99,
            shards: 4,
            columnar: true,
            chunk_records: Some(64),
        };
        let mut o = JsonObject::new();
        spec.write_fields(&mut o);
        let v = parse_json(&o.finish()).unwrap();
        let (back, _) = parse_submit(&v).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn error_reply_is_valid_json() {
        let s = error_reply("bad \"thing\" happened");
        csb_obs::json::validate_json(&s).expect("error reply must validate");
        let v = parse_json(&s).unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));
    }
}
