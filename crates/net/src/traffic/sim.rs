//! The benign traffic simulator: schedules application sessions over a
//! simulated capture window and expands each into a packet exchange.
//!
//! Arrivals are one serial RNG stream; every session has a stream of its own,
//! so [`TrafficSim::generate`] emits sessions in fixed-size parts on the rayon
//! pool and merges the sorted parts — the trace is identical at any width.

use crate::flow::Protocol;
use crate::packet::{Packet, TcpFlags};
use crate::trace::Trace;
use crate::traffic::profiles::{AppProfile, ProfileCatalog, SessionShape};
use crate::traffic::topology::{Topology, TopologyConfig};
use csb_stats::rng::rng_for;
use csb_stats::Exponential;
use rand::rngs::SmallRng;
use rand::Rng;
use rayon::prelude::*;

/// Sessions emitted and sorted as one task. Fixed, not derived from the pool
/// width, so the parts and their merge order are the same on every machine.
const SESSIONS_PER_PART: usize = 2048;

/// Time-of-day modulation of the session arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateProfile {
    /// Constant mean rate over the whole capture.
    Constant,
    /// Sinusoidal diurnal cycle: rate varies between
    /// `mean * (1 - depth)` and `mean * (1 + depth)` over `period_secs`
    /// (business-hours traffic shape; real enterprise captures are strongly
    /// diurnal).
    Diurnal {
        /// Modulation depth in `[0, 1)`.
        depth: f64,
        /// Cycle length in seconds (86400 for a true day; shorter for
        /// laptop-scale captures).
        period_secs: f64,
    },
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct TrafficSimConfig {
    /// Topology sizing.
    pub topology: TopologyConfig,
    /// Capture duration, seconds of simulated time.
    pub duration_secs: f64,
    /// Mean benign session arrival rate (sessions/second).
    pub sessions_per_sec: f64,
    /// Fraction of sessions where an external host initiates toward an
    /// internal server (inbound traffic).
    pub inbound_fraction: f64,
    /// Arrival-rate shape over time.
    pub rate_profile: RateProfile,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for TrafficSimConfig {
    fn default() -> Self {
        TrafficSimConfig {
            topology: TopologyConfig::default(),
            duration_secs: 60.0,
            sessions_per_sec: 50.0,
            inbound_fraction: 0.2,
            rate_profile: RateProfile::Constant,
            seed: 0xC5B_5EED,
        }
    }
}

/// The benign traffic simulator.
#[derive(Debug)]
pub struct TrafficSim {
    topology: Topology,
    catalog: ProfileCatalog,
    cfg: TrafficSimConfig,
}

impl TrafficSim {
    /// Builds a simulator.
    pub fn new(cfg: TrafficSimConfig) -> Self {
        TrafficSim {
            topology: Topology::new(&cfg.topology),
            catalog: ProfileCatalog::enterprise(),
            cfg,
        }
    }

    /// The topology in use (attack injectors need it).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Instantaneous arrival rate at simulated time `t_secs`.
    fn rate_at(&self, t_secs: f64) -> f64 {
        let mean = self.cfg.sessions_per_sec.max(1e-9);
        match self.cfg.rate_profile {
            RateProfile::Constant => mean,
            RateProfile::Diurnal { depth, period_secs } => {
                let phase = std::f64::consts::TAU * t_secs / period_secs.max(1e-9);
                mean * (1.0 + depth * phase.sin()).max(1e-3)
            }
        }
    }

    /// Generates the benign trace. Non-constant rate profiles are realized
    /// by thinning a homogeneous Poisson process at the peak rate.
    ///
    /// The arrival process is drawn serially from the master stream; the
    /// sessions, each under its own `rng_for(seed, session_idx)`, are emitted
    /// and stably sorted in parts of [`SESSIONS_PER_PART`] on the ambient
    /// rayon pool, and the parts folded left to right with
    /// [`Trace::merge_sorted`]. Stable part sorts under left-first stable
    /// merges are the stable sort of the whole emission, so the trace is
    /// ordered by timestamp with ties in emission order — the same bytes at
    /// every pool width.
    pub fn generate(&self) -> Trace {
        let _span = csb_obs::span_cat("traffic.generate", "net");
        let mut rng = rng_for(self.cfg.seed, 0);
        let peak = match self.cfg.rate_profile {
            RateProfile::Constant => self.cfg.sessions_per_sec,
            RateProfile::Diurnal { depth, .. } => self.cfg.sessions_per_sec * (1.0 + depth),
        }
        .max(1e-9);
        let arrivals = Exponential::new(peak);
        let horizon = (self.cfg.duration_secs * 1e6) as u64;
        let mut clock = 0.0f64;
        // Start time of each accepted session; session `k` here runs under
        // RNG stream `k + 1` (stream 0 is the arrival process).
        let mut starts: Vec<u64> = Vec::new();
        loop {
            clock += arrivals.sample(&mut rng) * 1e6;
            let start = clock as u64;
            if start >= horizon {
                break;
            }
            // Thinning: accept with probability rate(t)/peak. Constant
            // profiles skip the draw entirely (it would always accept) so
            // their packet streams are byte-identical to earlier releases.
            if self.cfg.rate_profile != RateProfile::Constant
                && rng.gen::<f64>() >= self.rate_at(clock / 1e6) / peak
            {
                continue;
            }
            starts.push(start);
        }
        let parts: Vec<Trace> = starts
            .par_chunks(SESSIONS_PER_PART)
            .enumerate()
            .map(|(part, starts)| {
                let mut trace = Trace::new();
                let first_idx = (part * SESSIONS_PER_PART + 1) as u64;
                for (session_idx, &start) in (first_idx..).zip(starts) {
                    let mut session_rng = rng_for(self.cfg.seed, session_idx);
                    self.emit_session(start, &mut session_rng, &mut trace);
                }
                trace.sort();
                trace
            })
            .collect();
        let mut trace = Trace::new();
        trace.packets.reserve_exact(parts.iter().map(Trace::len).sum());
        for part in parts {
            trace.merge_sorted(part);
        }
        csb_obs::counter_add("traffic.sessions", starts.len() as u64);
        csb_obs::counter_add("traffic.packets", trace.packets.len() as u64);
        csb_obs::obs_debug!(
            "traffic: {} sessions, {} packets over {:.0}s",
            starts.len(),
            trace.packets.len(),
            self.cfg.duration_secs
        );
        trace
    }

    /// Schedules one session: picks endpoints and an application, then emits
    /// its packets.
    fn emit_session(&self, start: u64, rng: &mut SmallRng, trace: &mut Trace) {
        let profile = self.catalog.pick(rng).clone();
        let inbound = rng.gen::<f64>() < self.cfg.inbound_fraction;
        let (client, server) = if inbound {
            (self.topology.pick_external(rng), self.topology.pick_server(rng))
        } else if profile.internal {
            (self.topology.pick_client(rng), self.topology.pick_server(rng))
        } else {
            (self.topology.pick_client(rng), self.topology.pick_external(rng))
        };
        let shape = profile.sample_session(rng);
        let sport = rng.gen_range(32768..61000);
        emit_flow_packets(&profile, client, sport, server, shape, start, rng, trace);
    }
}

/// Expands one session into packets: a TCP handshake + segmented data + FIN
/// teardown, or a UDP request/response exchange.
///
/// Exposed to the attack injectors, which reuse it for decoy benign-looking
/// flows.
#[allow(clippy::too_many_arguments)]
pub fn emit_flow_packets(
    profile: &AppProfile,
    client: u32,
    client_port: u16,
    server: u32,
    shape: SessionShape,
    start: u64,
    rng: &mut SmallRng,
    trace: &mut Trace,
) {
    let dur_micros = shape.duration_ms.max(1) * 1000;
    match profile.protocol {
        Protocol::Tcp => {
            let seg = profile.segment_size.max(1);
            let req_segs = shape.request_bytes.div_ceil(seg as u64).max(1);
            let resp_segs = shape.response_bytes.div_ceil(seg as u64).max(1);
            // Total packet count: 3 handshake + data + 2 FIN + ACKs folded in.
            let data_pkts = req_segs + resp_segs;
            let total_events = data_pkts + 5;
            let step = (dur_micros / total_events).max(1);
            let mut t = start;
            let mut push = |pkt: Packet| trace.packets.push(pkt);
            push(Packet::tcp(t, client, client_port, server, profile.port, TcpFlags::SYN, 0));
            t += step;
            push(Packet::tcp(t, server, profile.port, client, client_port, TcpFlags::SYN_ACK, 0));
            t += step;
            push(Packet::tcp(t, client, client_port, server, profile.port, TcpFlags::ACK, 0));
            let mut remaining_req = shape.request_bytes;
            for _ in 0..req_segs {
                t += step;
                let chunk = remaining_req.min(seg as u64) as u32;
                remaining_req -= chunk as u64;
                push(Packet::tcp(
                    t,
                    client,
                    client_port,
                    server,
                    profile.port,
                    TcpFlags::PSH | TcpFlags::ACK,
                    chunk,
                ));
            }
            let mut remaining_resp = shape.response_bytes;
            for _ in 0..resp_segs {
                t += step;
                let chunk = remaining_resp.min(seg as u64) as u32;
                remaining_resp -= chunk as u64;
                push(Packet::tcp(
                    t,
                    server,
                    profile.port,
                    client,
                    client_port,
                    TcpFlags::PSH | TcpFlags::ACK,
                    chunk,
                ));
            }
            t += step;
            push(Packet::tcp(
                t,
                client,
                client_port,
                server,
                profile.port,
                TcpFlags::FIN | TcpFlags::ACK,
                0,
            ));
            t += step;
            push(Packet::tcp(
                t,
                server,
                profile.port,
                client,
                client_port,
                TcpFlags::FIN | TcpFlags::ACK,
                0,
            ));
        }
        Protocol::Udp => {
            let seg = profile.segment_size.max(1);
            let req_pkts = shape.request_bytes.div_ceil(seg as u64).max(1);
            let resp_pkts = shape.response_bytes.div_ceil(seg as u64).max(1);
            let step = (dur_micros / (req_pkts + resp_pkts).max(1)).max(1);
            let mut t = start;
            let mut remaining = shape.request_bytes;
            for _ in 0..req_pkts {
                let chunk = remaining.min(seg as u64) as u32;
                remaining -= chunk as u64;
                trace.packets.push(Packet::udp(
                    t,
                    client,
                    client_port,
                    server,
                    profile.port,
                    chunk,
                ));
                t += step;
            }
            let mut remaining = shape.response_bytes;
            for _ in 0..resp_pkts {
                let chunk = remaining.min(seg as u64) as u32;
                remaining -= chunk as u64;
                trace.packets.push(Packet::udp(
                    t,
                    server,
                    profile.port,
                    client,
                    client_port,
                    chunk,
                ));
                t += step;
            }
        }
        Protocol::Icmp => {
            // Ping-style exchange.
            let pkts = shape.request_bytes.div_ceil(64).max(1);
            let step = (dur_micros / (2 * pkts).max(1)).max(1);
            let mut t = start;
            for _ in 0..pkts {
                trace.packets.push(Packet::icmp(t, client, server, 56));
                t += step;
                trace.packets.push(Packet::icmp(t, server, client, 56));
                t += step;
            }
        }
    }
    let _ = rng; // reserved for future per-packet jitter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::FlowAssembler;
    use crate::flow::TcpConnState;

    fn small_cfg(seed: u64) -> TrafficSimConfig {
        TrafficSimConfig {
            duration_secs: 10.0,
            sessions_per_sec: 20.0,
            seed,
            ..TrafficSimConfig::default()
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TrafficSim::new(small_cfg(1)).generate();
        let b = TrafficSim::new(small_cfg(1)).generate();
        assert_eq!(a.packets, b.packets);
        let c = TrafficSim::new(small_cfg(2)).generate();
        assert_ne!(a.packets, c.packets);
    }

    /// `generate` as it was before parts: every session emitted serially
    /// into one trace, then one stable sort.
    fn serial_reference(sim: &TrafficSim) -> Trace {
        let cfg = &sim.cfg;
        let mut trace = Trace::new();
        let mut rng = rng_for(cfg.seed, 0);
        let peak = match cfg.rate_profile {
            RateProfile::Constant => cfg.sessions_per_sec,
            RateProfile::Diurnal { depth, .. } => cfg.sessions_per_sec * (1.0 + depth),
        };
        let arrivals = Exponential::new(peak);
        let horizon = (cfg.duration_secs * 1e6) as u64;
        let mut clock = 0.0f64;
        let mut session_idx = 1u64;
        loop {
            clock += arrivals.sample(&mut rng) * 1e6;
            let start = clock as u64;
            if start >= horizon {
                break;
            }
            if cfg.rate_profile != RateProfile::Constant
                && rng.gen::<f64>() >= sim.rate_at(clock / 1e6) / peak
            {
                continue;
            }
            sim.emit_session(start, &mut rng_for(cfg.seed, session_idx), &mut trace);
            session_idx += 1;
        }
        trace.sort();
        trace
    }

    #[test]
    fn sorted_parts_match_one_serial_sort_at_every_pool_width() {
        for rate_profile in
            [RateProfile::Constant, RateProfile::Diurnal { depth: 0.6, period_secs: 40.0 }]
        {
            let sim = TrafficSim::new(TrafficSimConfig {
                duration_secs: 200.0,
                sessions_per_sec: 45.0,
                rate_profile,
                seed: 77,
                ..TrafficSimConfig::default()
            });
            let reference = serial_reference(&sim);
            let sessions = reference.packets.iter().filter(|p| p.flags.is_syn_only()).count();
            assert!(sessions > 2 * SESSIONS_PER_PART, "{sessions} TCP sessions span < 3 parts");
            for width in [1, 2, 4] {
                let pool =
                    rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool");
                let trace = pool.install(|| sim.generate());
                assert!(trace.packets == reference.packets, "{rate_profile:?} at width {width}");
            }
        }
    }

    #[test]
    fn packets_are_time_ordered() {
        let t = TrafficSim::new(small_cfg(3)).generate();
        assert!(!t.is_empty());
        assert!(t.packets.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    }

    #[test]
    fn sessions_become_clean_flows() {
        let t = TrafficSim::new(small_cfg(4)).generate();
        let flows = FlowAssembler::assemble(&t.packets);
        assert!(flows.len() > 50, "expected many flows, got {}", flows.len());
        // Most TCP sessions are full handshakes and teardowns: SF dominates.
        let tcp: Vec<_> = flows.iter().filter(|f| f.protocol == Protocol::Tcp).collect();
        let sf = tcp.iter().filter(|f| f.state == TcpConnState::Sf).count();
        assert!(
            sf * 10 >= tcp.len() * 9,
            "expected >=90% SF among {} TCP flows, got {}",
            tcp.len(),
            sf
        );
    }

    #[test]
    fn byte_accounting_matches_shapes() {
        // A single explicit session must conserve the requested bytes.
        let catalog = ProfileCatalog::enterprise();
        let http = catalog.by_name("http").expect("http").clone();
        let mut trace = Trace::new();
        let mut rng = rng_for(0, 0);
        let shape = SessionShape { request_bytes: 3000, response_bytes: 10_000, duration_ms: 50 };
        emit_flow_packets(&http, 1, 40000, 2, shape, 0, &mut rng, &mut trace);
        trace.sort();
        let flows = FlowAssembler::assemble(&trace.packets);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].out_bytes, 3000);
        assert_eq!(flows[0].in_bytes, 10_000);
        assert_eq!(flows[0].state, TcpConnState::Sf);
    }

    #[test]
    fn mix_contains_tcp_and_udp() {
        let t = TrafficSim::new(small_cfg(5)).generate();
        let s = t.summary();
        assert!(s.tcp > 0);
        assert!(s.udp > 0);
    }

    #[test]
    fn diurnal_profile_modulates_arrivals() {
        // One full cycle: the peak half (first half, sin > 0) must carry
        // clearly more sessions than the trough half.
        let cfg = TrafficSimConfig {
            duration_secs: 100.0,
            sessions_per_sec: 60.0,
            rate_profile: RateProfile::Diurnal { depth: 0.9, period_secs: 100.0 },
            seed: 8,
            ..TrafficSimConfig::default()
        };
        let t = TrafficSim::new(cfg).generate();
        // Count TCP SYNs as session starts.
        let starts: Vec<u64> =
            t.packets.iter().filter(|p| p.flags.is_syn_only()).map(|p| p.ts_micros).collect();
        assert!(starts.len() > 500, "need enough sessions, got {}", starts.len());
        let half = 50_000_000u64;
        let first = starts.iter().filter(|&&ts| ts < half).count();
        let second = starts.len() - first;
        assert!(first as f64 > second as f64 * 1.5, "peak half {first} vs trough half {second}");
    }

    #[test]
    fn diurnal_mean_rate_matches_constant() {
        // The sinusoid integrates to the mean: total session counts should
        // be comparable across profiles.
        let base = TrafficSimConfig {
            duration_secs: 60.0,
            sessions_per_sec: 40.0,
            seed: 9,
            ..TrafficSimConfig::default()
        };
        let constant = TrafficSim::new(base.clone()).generate();
        let diurnal = TrafficSim::new(TrafficSimConfig {
            rate_profile: RateProfile::Diurnal { depth: 0.8, period_secs: 30.0 },
            ..base
        })
        .generate();
        let ratio = diurnal.packets.len() as f64 / constant.packets.len() as f64;
        assert!((0.6..1.4).contains(&ratio), "packet ratio {ratio}");
    }
}
