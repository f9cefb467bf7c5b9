//! Fuzz-style protocol robustness: malformed, truncated, oversized, and
//! binary request lines, plus mid-request disconnects, must never panic a
//! connection thread or wedge a worker slot — the daemon keeps serving real
//! jobs afterwards.

use csb_serve::{Client, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("csb-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

/// A small deterministic seed graph in the text format (32 hosts, 96 flows).
fn write_seed_graph(path: &Path) {
    let mut s = String::from("# csb-graph v1\n");
    for i in 0..32u32 {
        s.push_str(&format!("v\t{i}\t{}\n", 0x0A00_0001 + i));
    }
    for i in 0..96u32 {
        let a = (i * 7) % 32;
        let b = (i * 11 + 1) % 32;
        s.push_str(&format!(
            "e\t{a}\t{b}\t6\t{}\t443\t{}\t{}\t{}\t3\t5\t2\n",
            40_000 + i,
            10 + i,
            100 + i * 3,
            200 + i * 5
        ));
    }
    std::fs::write(path, s).expect("write seed graph");
}

/// A 4000-edge PGPBA job grown from the seed graph file at `seed_graph`.
fn pgpba_job(seed_graph: PathBuf) -> csb_serve::JobSpec {
    csb_serve::JobSpec::Generate {
        algorithm: csb_serve::Algorithm::Pgpba,
        seed_graph,
        size: 4000,
        fraction: 0.1,
        seed: 7,
        shards: 0,
        columnar: false,
        chunk_records: Some(512),
    }
}

fn read_reply(stream: &mut TcpStream) -> String {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    line.trim().to_string()
}

#[test]
fn hostile_input_never_wedges_the_daemon() {
    let root = temp_dir("robust");
    let seed = root.join("seed.graph");
    write_seed_graph(&seed);
    let mut cfg = ServeConfig::new(root.join("spool"));
    cfg.workers = 1;
    let server = Server::start(cfg).expect("start server");
    let addr = server.addr();

    // Malformed JSON: structured error reply, connection stays usable.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"this is not json\n").unwrap();
        let reply = read_reply(&mut s);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains("bad JSON"), "{reply}");
        // Truncated JSON on the same connection.
        s.write_all(b"{\"cmd\":\"ping\"\n").unwrap();
        let reply = read_reply(&mut s);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        // Unknown command, unknown job, missing fields: all structured.
        for bad in
            ["{\"cmd\":\"frobnicate\"}\n", "{\"cmd\":\"status\"}\n", "{\"cmd\":\"submit\"}\n"]
        {
            s.write_all(bad.as_bytes()).unwrap();
            let reply = read_reply(&mut s);
            assert!(reply.contains("\"ok\":false"), "{bad:?} -> {reply}");
        }
        // Binary garbage line.
        s.write_all(&[0xff, 0xfe, 0x00, 0x01, b'\n']).unwrap();
        let reply = read_reply(&mut s);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        // The same connection still answers a well-formed request.
        s.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        let reply = read_reply(&mut s);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"pong\":true"), "{reply}");
    }

    // Oversized line: one error reply, then the server closes the stream.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let huge = vec![b'a'; csb_serve::MAX_LINE_BYTES + 4096];
        s.write_all(&huge).unwrap();
        s.flush().unwrap();
        let mut everything = String::new();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.read_to_string(&mut everything).expect("server must close the stream");
        assert!(everything.contains("\"ok\":false"), "{everything}");
        assert!(everything.contains("exceeds"), "{everything}");
    }

    // Mid-request disconnects: write partial lines and hang up, rapidly.
    for i in 0..20 {
        let mut s = TcpStream::connect(addr).expect("connect");
        if i % 3 == 0 {
            s.write_all(b"{\"cmd\":\"pi").unwrap();
        } else if i % 3 == 1 {
            s.write_all(b"{\"cmd\":\"ping\"}\n{\"cmd\":\"li").unwrap();
        }
        drop(s); // immediate disconnect, sometimes mid-line
    }

    // Empty lines are ignored, not errors.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"\n\n{\"cmd\":\"ping\"}\n").unwrap();
        let reply = read_reply(&mut s);
        assert!(reply.contains("\"pong\":true"), "{reply}");
    }

    // A well-formed submit whose config the generator rejects: an error
    // reply at the door, and the job below still finds the single worker.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let line = format!(
            "{{\"cmd\":\"submit\",\"kind\":\"generate\",\"algorithm\":\"pgpba\",\
             \"seed_graph\":\"{}\",\"size\":4000,\"fraction\":0}}\n",
            seed.display()
        );
        s.write_all(line.as_bytes()).unwrap();
        let reply = read_reply(&mut s);
        assert!(reply.contains("\"ok\":false") && reply.contains("fraction"), "{reply}");
    }

    let mut client = Client::connect(addr).expect("client connect");
    assert_eq!(client.ping().expect("ping"), u64::from(csb_serve::PROTO_VERSION));

    // A well-formed seed file with vertices and no edges passes the door
    // (only a worker parses it): its job fails with the reason, and the job
    // below still finds the single worker alive.
    let edgeless = root.join("edgeless.graph");
    std::fs::write(&edgeless, "# csb-graph v1\nv\t0\t167772161\nv\t1\t167772162\n").unwrap();
    let job = client.submit(&pgpba_job(edgeless), csb_serve::Priority::Normal).expect("submit");
    let failed = client.result_wait(&job, Duration::from_secs(30)).expect("job ends");
    assert_eq!(failed.get("state").and_then(|v| v.as_str()), Some("failed"), "{failed:?}");
    let error = failed.get("error").and_then(|v| v.as_str()).unwrap_or_default();
    assert!(error.contains("no edges"), "{failed:?}");

    // After all that abuse a real job still runs to completion.
    let spec = pgpba_job(seed);
    let job = client.submit(&spec, csb_serve::Priority::Normal).expect("submit");
    let done = client.result_wait(&job, Duration::from_secs(120)).expect("job finishes");
    assert_eq!(done.get("state").and_then(|v| v.as_str()), Some("done"), "{done:?}");
    let edges = done.get("edges").and_then(|v| v.as_u64()).unwrap_or(0);
    assert!(edges >= 4000, "expected >= 4000 edges, got {edges}");
    let out = done.get("out").and_then(|v| v.as_str()).expect("out path");
    assert!(std::fs::metadata(out).map(|m| m.len() > 0).unwrap_or(false), "{out} missing");

    // Submitting a nonexistent seed path is rejected up front, not on a
    // worker minutes later.
    let bad = pgpba_job(root.join("no-such-seed.graph"));
    let err = client.submit(&bad, csb_serve::Priority::Normal).expect_err("must reject");
    assert!(err.to_string().contains("not a file"), "{err}");

    client.shutdown(true).expect("shutdown drain");
    server.wait();
    std::fs::remove_dir_all(&root).ok();
}
