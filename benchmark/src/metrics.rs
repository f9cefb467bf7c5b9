//! From observations to named metrics.

use crate::layers::Values;
use crate::plan::JobClass;
use crate::section::{SectionObs, Timed};
use crate::stats::{median, percentile, Summary};
use csb_core::PhaseTimings;
use csb_ids::FlowEvalReport;
use csb_net::traffic::campaign::StageKind;
use std::collections::BTreeMap;
use std::time::Duration;

/// One end-to-end metric: its value and, where it comes from repeated
/// timings, what the repetitions looked like.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub samples: Option<Summary>,
}

/// A throughput: the median of the repetitions' own rates.
fn rate(timed: &Timed) -> Measured {
    let rates = timed.rates();
    Measured { value: median(&rates), samples: Some(Summary::of(&rates)) }
}

fn timing(wall: &[f64]) -> Measured {
    Measured { value: median(wall), samples: Some(Summary::of(wall)) }
}

fn single(value: f64) -> Measured {
    Measured { value, samples: None }
}

/// The detector's verdicts summed over every campaign of a run. Each
/// campaign is simulated under its own seed and the detector is
/// host-granular, so one campaign's scores jump as it catches one host more
/// or fewer; the sums over a run's campaigns repeat from seed to seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Pooled {
    pub detections: usize,
    pub true_positives: usize,
    pub false_positives: usize,
    pub false_negatives: usize,
    /// Attack-class code -> (labeled flows, of those detected).
    pub per_class: BTreeMap<u8, (usize, usize)>,
}

impl Pooled {
    pub fn of(evals: &[(usize, FlowEvalReport)]) -> Pooled {
        let mut p = Pooled::default();
        for (detections, eval) in evals {
            p.detections += detections;
            p.true_positives += eval.true_positives;
            p.false_positives += eval.false_positives;
            p.false_negatives += eval.false_negatives;
            for s in &eval.per_stage {
                let class = p.per_class.entry(s.class).or_default();
                class.0 += s.flows;
                class.1 += s.detected;
            }
        }
        p
    }

    fn ratio(hit: usize, of: usize) -> f64 {
        if of == 0 {
            0.0
        } else {
            hit as f64 / of as f64
        }
    }

    pub fn precision(&self) -> f64 {
        Pooled::ratio(self.true_positives, self.true_positives + self.false_positives)
    }

    pub fn recall(&self) -> f64 {
        Pooled::ratio(self.true_positives, self.true_positives + self.false_negatives)
    }

    pub fn f1(&self) -> f64 {
        Pooled::ratio(
            2 * self.true_positives,
            2 * self.true_positives + self.false_positives + self.false_negatives,
        )
    }

    pub fn class_recall(&self, class: u8) -> f64 {
        let (flows, detected) = self.per_class.get(&class).copied().unwrap_or_default();
        Pooled::ratio(detected, flows)
    }
}

/// The end-to-end metrics of one untraced run, by their `BENCHMARK.json`
/// name.
pub fn end_to_end(
    setup_secs: &[f64],
    obs: &SectionObs,
    peak_rss_mb: f64,
) -> BTreeMap<&'static str, Measured> {
    let latencies: Vec<f64> = obs.serve.jobs.iter().map(|j| j.latency_ms).collect();
    let done = obs.serve.jobs.iter().filter(|j| j.done).count();
    let edges_stored = median(&obs.gen_store.runs.work);
    BTreeMap::from([
        ("setup_s", timing(setup_secs)),
        ("pgpba_edges_per_s", rate(&obs.gen_mem.pgpba)),
        ("pgsk_edges_per_s", rate(&obs.gen_mem.pgsk)),
        ("materialize_edges_per_s", rate(&obs.gen_store.runs)),
        ("store_bytes_per_edge", single(obs.gen_store.bytes as f64 / edges_stored)),
        ("veracity_mem_s", timing(&obs.veracity.mem_wall)),
        ("veracity_ooc_s", timing(&obs.veracity.ooc_wall)),
        ("campaign_packets_per_s", rate(&obs.campaign.runs)),
        ("detect_flows_per_s", rate(&obs.campaign.ids)),
        ("serve_jobs_per_s", single(done as f64 / obs.serve.wall_s)),
        ("serve_p50_ms", single(percentile(&latencies, 50.0))),
        ("serve_p95_ms", single(percentile(&latencies, 95.0))),
        ("peak_rss_mb", single(peak_rss_mb)),
    ])
}

fn phase_median(timings: &[PhaseTimings], phase: fn(&PhaseTimings) -> Duration) -> f64 {
    median(&timings.iter().map(|t| phase(t).as_secs_f64()).collect::<Vec<_>>())
}

/// Nearest-rank percentile of a per-job quantity; 0 when no job qualifies.
fn job_percentile(values: impl Iterator<Item = f64>, p: f64) -> f64 {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        0.0
    } else {
        percentile(&values, p)
    }
}

/// The per-layer metrics read off the traced section's observations.
pub fn from_section(obs: &SectionObs, v: &mut Values) {
    let g = &obs.gen_mem;
    v.insert("core.pgpba.grow_s", phase_median(&g.pgpba_timings, |t| t.grow));
    v.insert("core.pgpba.attach_s", phase_median(&g.pgpba_timings, |t| t.attach));
    v.insert("core.pgsk.grow_s", phase_median(&g.pgsk_timings, |t| t.grow));
    v.insert("core.pgsk.inflate_s", phase_median(&g.pgsk_timings, |t| t.inflate));
    v.insert("core.pgsk.attach_s", phase_median(&g.pgsk_timings, |t| t.attach));

    let c = &obs.campaign;
    v.insert("ids.train_s", median(&c.train_s));
    v.insert("ids.detect_s", median(&c.detect_s));
    v.insert("ids.evaluate_s", median(&c.evaluate_s));
    let pooled = Pooled::of(&c.evals);
    v.insert("ids.detections", pooled.detections as f64);
    v.insert("ids.precision", pooled.precision());
    v.insert("ids.recall", pooled.recall());
    v.insert("ids.f1", pooled.f1());
    for (name, kind) in [
        ("ids.recall.recon", StageKind::Recon),
        ("ids.recall.lateral", StageKind::LateralMovement),
        ("ids.recall.c2", StageKind::C2Beacon),
        ("ids.recall.exfil", StageKind::Exfiltration),
    ] {
        v.insert(name, pooled.class_recall(kind.class().code()));
    }

    let s = &obs.serve;
    let jobs = || s.jobs.iter();
    let class_p50 = |class: JobClass| {
        job_percentile(jobs().filter(|j| j.class == class).map(|j| j.latency_ms), 50.0)
    };
    v.insert("serve.ping_rtt_us_p50", job_percentile(s.ping_us.iter().copied(), 50.0));
    v.insert("serve.submit_ms_p50", job_percentile(jobs().map(|j| j.submit_ms), 50.0));
    v.insert("serve.wait_ms_p50", job_percentile(jobs().map(|j| j.wait_ms), 50.0));
    v.insert("serve.wait_ms_p90", job_percentile(jobs().map(|j| j.wait_ms), 90.0));
    v.insert("serve.run_ms_p50", job_percentile(jobs().map(|j| j.run_ms), 50.0));
    v.insert("serve.run_ms_p90", job_percentile(jobs().map(|j| j.run_ms), 90.0));
    v.insert(
        "serve.overhead_ms_p50",
        job_percentile(jobs().map(|j| j.latency_ms - j.wait_ms - j.run_ms), 50.0),
    );
    v.insert("serve.p50_ms.small", class_p50(JobClass::Small));
    v.insert("serve.p50_ms.medium", class_p50(JobClass::Medium));
    v.insert("serve.p50_ms.large", class_p50(JobClass::Large));
    v.insert("serve.p90_ms", job_percentile(jobs().map(|j| j.latency_ms), 90.0));
    v.insert("serve.p97_ms", job_percentile(jobs().map(|j| j.latency_ms), 97.0));
    v.insert("serve.max_queue_depth", s.max_queue_depth as f64);
    v.insert("serve.rejected", s.rejected as f64);
    v.insert("serve.drain_s", s.drain_s);
}
