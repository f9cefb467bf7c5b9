//! A blocking protocol client, shared by the `csb submit/jobs/cancel`
//! subcommands and the repo benchmark's `serve_mixed` workload. One
//! [`Client`] wraps one TCP connection; every method is a single
//! request/reply round trip (RESULT long-polls server-side).

use crate::proto::{ok_reply, JobSpec, Priority};
use csb_obs::json::{parse_json, JsonValue};
use csb_store::CsbError;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, CsbError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one raw request line and parses the reply object. Protocol
    /// errors (`"ok": false`) become `CsbError::Input` with the server's
    /// message.
    pub fn roundtrip(&mut self, line: &str) -> Result<JsonValue, CsbError> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(CsbError::Input("server closed the connection".into()));
        }
        let v = parse_json(reply.trim())
            .map_err(|e| CsbError::Input(format!("unparseable reply: {e}")))?;
        if v.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            Ok(v)
        } else {
            let msg = v
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("server reported failure without an error message");
            Err(CsbError::Input(msg.to_string()))
        }
    }

    /// `ping` → protocol version.
    pub fn ping(&mut self) -> Result<u64, CsbError> {
        let v = self.roundtrip("{\"cmd\":\"ping\"}")?;
        Ok(v.get("version").and_then(JsonValue::as_u64).unwrap_or(0))
    }

    /// `submit` → the new job id.
    pub fn submit(&mut self, spec: &JobSpec, priority: Priority) -> Result<String, CsbError> {
        let mut o = ok_reply(); // the `ok` field is ignored by the server
        o.str("cmd", "submit").str("priority", priority.as_str());
        spec.write_fields(&mut o);
        let v = self.roundtrip(&o.finish())?;
        v.get("job")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| CsbError::Input("submit reply carried no job id".into()))
    }

    /// `status` → the job's record object.
    pub fn status(&mut self, job: &str) -> Result<JsonValue, CsbError> {
        let mut o = ok_reply();
        o.str("cmd", "status").str("job", job);
        self.roundtrip(&o.finish())
    }

    /// `cancel` → `true` if the job reached a terminal state immediately.
    pub fn cancel(&mut self, job: &str) -> Result<bool, CsbError> {
        let mut o = ok_reply();
        o.str("cmd", "cancel").str("job", job);
        let v = self.roundtrip(&o.finish())?;
        Ok(v.get("state").and_then(JsonValue::as_str) == Some("canceled"))
    }

    /// `list` → the queue snapshot object.
    pub fn list(&mut self) -> Result<JsonValue, CsbError> {
        let v = self.roundtrip("{\"cmd\":\"list\"}")?;
        v.get("snapshot")
            .cloned()
            .ok_or_else(|| CsbError::Input("list reply had no snapshot".into()))
    }

    /// `shutdown` (drain or now).
    pub fn shutdown(&mut self, drain: bool) -> Result<(), CsbError> {
        let mut o = ok_reply();
        o.str("cmd", "shutdown").str("mode", if drain { "drain" } else { "now" });
        self.roundtrip(&o.finish())?;
        Ok(())
    }

    /// Long-polls `result` until the job is terminal or `timeout` elapses.
    /// Returns the final record; errors with `CsbError::Input` on timeout.
    pub fn result_wait(&mut self, job: &str, timeout: Duration) -> Result<JsonValue, CsbError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let slice = remaining.min(Duration::from_secs(5));
            let mut o = ok_reply();
            o.str("cmd", "result").str("job", job).u64("wait_ms", slice.as_millis() as u64);
            let v = self.roundtrip(&o.finish())?;
            let state = v.get("state").and_then(JsonValue::as_str).unwrap_or("");
            if matches!(state, "done" | "failed" | "canceled") {
                return Ok(v);
            }
            if remaining.is_zero() {
                return Err(CsbError::Input(format!(
                    "job {job} still `{state}` after {:.1}s",
                    timeout.as_secs_f64()
                )));
            }
        }
    }
}
