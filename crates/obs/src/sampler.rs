//! Background resource sampler: a thread that periodically reads
//! `/proc/self/status` (RSS, thread count) and `/proc/self/io` (bytes
//! actually read/written through syscalls), derives an edge-throughput
//! gauge from store-counter deltas, publishes everything as gauges on a
//! recorder, and keeps the raw timestamped series for post-run analysis
//! (`csb generate` logs the peak RSS from it).
//!
//! On platforms without procfs the samples simply carry zeros — the sampler
//! never fails, it just has less to say.

use crate::metrics::{Counter, Gauge};
use crate::recorder::Recorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One observation of the process, timestamped on the trace-epoch clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Microseconds since the trace epoch.
    pub at_micros: u64,
    /// Resident set size, bytes (`VmRSS`).
    pub rss_bytes: u64,
    /// OS threads in the process.
    pub threads: u64,
    /// Bytes fetched from the storage layer (`read_bytes`).
    pub io_read_bytes: u64,
    /// Bytes sent to the storage layer (`write_bytes`).
    pub io_write_bytes: u64,
    /// Edge records materialized so far (store counter, falling back to
    /// `attach.edges` for in-memory runs).
    pub edge_records: u64,
    /// Edge throughput since the previous sample, edges per second.
    pub edges_per_sec: f64,
}

/// Largest RSS seen across `samples` (0 when empty or procfs-less).
pub fn peak_rss_bytes(samples: &[Sample]) -> u64 {
    samples.iter().map(|s| s.rss_bytes).max().unwrap_or(0)
}

/// `VmRSS` (bytes) and `Threads` from `/proc/self/status` text.
fn parse_proc_status(text: &str) -> (Option<u64>, Option<u64>) {
    let mut rss = None;
    let mut threads = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            rss = rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok().map(|kb| kb * 1024);
        } else if let Some(rest) = line.strip_prefix("Threads:") {
            threads = rest.trim().parse::<u64>().ok();
        }
    }
    (rss, threads)
}

/// `read_bytes` and `write_bytes` from `/proc/self/io` text.
fn parse_proc_io(text: &str) -> (Option<u64>, Option<u64>) {
    let mut rd = None;
    let mut wr = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("read_bytes:") {
            rd = rest.trim().parse::<u64>().ok();
        } else if let Some(rest) = line.strip_prefix("write_bytes:") {
            wr = rest.trim().parse::<u64>().ok();
        }
    }
    (rd, wr)
}

/// A running sampler thread. Create with [`Sampler::start`]; [`Sampler::stop`]
/// takes a final sample, joins the thread, and returns the whole series.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<Sample>>,
}

impl Sampler {
    /// Takes the baseline sample, then spawns the sampling thread at `period`
    /// cadence against `recorder`. The baseline is in the series before this
    /// returns, so whatever the caller materializes next counts toward the
    /// throughput of a later sample instead of racing the thread's first.
    /// Gauges published: `proc.rss_bytes`, `proc.rss_peak_bytes`,
    /// `proc.threads`, `proc.io_read_bytes`, `proc.io_write_bytes`,
    /// `gen.edges_per_sec`.
    pub fn start(recorder: Recorder, period: Duration) -> Sampler {
        crate::span::epoch();
        let mut probe = Probe::new(&recorder);
        probe.sample();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_in = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("csb-obs-sampler".into())
            .spawn(move || run(probe, period, stop_in))
            .expect("spawn sampler thread");
        Sampler { stop, handle }
    }

    /// Stops the thread (after one final sample) and returns the series.
    pub fn stop(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

/// The handles one sample reads and publishes through, and the series so far.
struct Probe {
    g_rss: Arc<Gauge>,
    g_rss_peak: Arc<Gauge>,
    g_threads: Arc<Gauge>,
    g_rd: Arc<Gauge>,
    g_wr: Arc<Gauge>,
    g_eps: Arc<Gauge>,
    c_store: Arc<Counter>,
    c_attach: Arc<Counter>,
    series: Vec<Sample>,
    peak: u64,
}

impl Probe {
    fn new(recorder: &Recorder) -> Probe {
        Probe {
            g_rss: recorder.gauge("proc.rss_bytes"),
            g_rss_peak: recorder.gauge("proc.rss_peak_bytes"),
            g_threads: recorder.gauge("proc.threads"),
            g_rd: recorder.gauge("proc.io_read_bytes"),
            g_wr: recorder.gauge("proc.io_write_bytes"),
            g_eps: recorder.gauge("gen.edges_per_sec"),
            c_store: recorder.counter("store.edge_records_written"),
            c_attach: recorder.counter("attach.edges"),
            series: Vec::new(),
            peak: 0,
        }
    }

    fn sample(&mut self) {
        let (rss, threads) =
            parse_proc_status(&std::fs::read_to_string("/proc/self/status").unwrap_or_default());
        let (rd, wr) = parse_proc_io(&std::fs::read_to_string("/proc/self/io").unwrap_or_default());
        let store_records = self.c_store.get();
        let edge_records = if store_records > 0 { store_records } else { self.c_attach.get() };
        let at_micros = crate::span::now_micros();
        let edges_per_sec = match self.series.last() {
            Some(prev) if at_micros > prev.at_micros => {
                (edge_records.saturating_sub(prev.edge_records)) as f64
                    / ((at_micros - prev.at_micros) as f64 / 1e6)
            }
            _ => 0.0,
        };
        let sample = Sample {
            at_micros,
            rss_bytes: rss.unwrap_or(0),
            threads: threads.unwrap_or(0),
            io_read_bytes: rd.unwrap_or(0),
            io_write_bytes: wr.unwrap_or(0),
            edge_records,
            edges_per_sec,
        };
        self.peak = self.peak.max(sample.rss_bytes);
        self.g_rss.set(sample.rss_bytes as i64);
        self.g_rss_peak.set(self.peak as i64);
        self.g_threads.set(sample.threads as i64);
        self.g_rd.set(sample.io_read_bytes as i64);
        self.g_wr.set(sample.io_write_bytes as i64);
        self.g_eps.set(sample.edges_per_sec as i64);
        self.series.push(sample);
    }
}

fn run(mut probe: Probe, period: Duration, stop: Arc<AtomicBool>) -> Vec<Sample> {
    loop {
        // Sleep in small slices so stop() returns promptly even at a
        // multi-second cadence.
        let mut slept = Duration::ZERO;
        while slept < period && !stop.load(Ordering::Relaxed) {
            let slice = Duration::from_millis(20).min(period - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
        let stopping = stop.load(Ordering::Relaxed);
        probe.sample();
        if stopping {
            return probe.series;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_fields() {
        let text = "Name:\tcsb\nVmPeak:\t  200000 kB\nVmRSS:\t   12345 kB\nThreads:\t7\n";
        let (rss, threads) = parse_proc_status(text);
        assert_eq!(rss, Some(12345 * 1024));
        assert_eq!(threads, Some(7));
    }

    #[test]
    fn parses_proc_io_fields() {
        let text = "rchar: 99\nwchar: 88\nread_bytes: 4096\nwrite_bytes: 8192\n";
        let (rd, wr) = parse_proc_io(text);
        assert_eq!(rd, Some(4096));
        assert_eq!(wr, Some(8192));
    }

    #[test]
    fn missing_fields_parse_to_none() {
        assert_eq!(parse_proc_status(""), (None, None));
        assert_eq!(parse_proc_io("garbage\n"), (None, None));
        assert_eq!(parse_proc_status("VmRSS:\tnot-a-number kB\n").0, None);
    }

    #[test]
    fn sampler_collects_a_series_and_publishes_gauges() {
        let rec = Recorder::new();
        let c = rec.counter("store.edge_records_written");
        let sampler = Sampler::start(rec.clone(), Duration::from_millis(10));
        c.add(50_000);
        std::thread::sleep(Duration::from_millis(60));
        let series = sampler.stop();
        assert!(series.len() >= 2, "expected several samples, got {}", series.len());
        assert!(series.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
        let snap = rec.snapshot_metrics();
        assert!(snap.gauge("proc.rss_bytes").is_some());
        assert!(snap.gauge("gen.edges_per_sec").is_some());
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes(&series) > 0, "procfs must yield an RSS on linux");
            assert!(snap.gauge("proc.threads").unwrap() >= 1);
        }
        // The counter bump shows up in the series and the throughput gauge.
        assert_eq!(series.last().unwrap().edge_records, 50_000);
        assert!(series.iter().any(|s| s.edges_per_sec > 0.0));
    }

    #[test]
    fn stop_returns_promptly_despite_long_period() {
        let rec = Recorder::new();
        let sampler = Sampler::start(rec, Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(30));
        let t0 = std::time::Instant::now();
        let series = sampler.stop();
        assert!(t0.elapsed() < Duration::from_secs(2), "stop must not wait out the period");
        assert!(!series.is_empty());
    }
}
