//! The flow assembler: the Bro-IDS-equivalent stage of the paper's seed
//! pipeline (Fig. 1, "PCAP -> Netflow").
//!
//! Packets are grouped into flows keyed by the 5-tuple; the first packet of a
//! key determines the originator. TCP flows close on handshake-teardown or
//! RST (after an idle timeout flushes stragglers); UDP/ICMP streams close on
//! idle timeout. `finish()` flushes everything still open.
//!
//! Flows of different keys never interact, so
//! [`FlowAssembler::assemble_partitioned`] splits a capture by key hash into
//! a *partition count* of independent assemblers run on the rayon pool — not
//! a thread count: the pool's width decides what runs at once.

use crate::flow::{FlowRecord, Protocol, TcpConnState};
use crate::packet::{Packet, TcpFlags};
use crate::tcp::{Direction, TcpTracker};
use rayon::prelude::*;
use std::collections::hash_map::{Entry, HashMap};

/// Canonical bidirectional 5-tuple key. The originator's orientation is
/// stored in the builder; the key itself is direction-agnostic so replies
/// find the same entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FlowKey {
    lo_ip: u32,
    hi_ip: u32,
    lo_port: u16,
    hi_port: u16,
    protocol: Protocol,
}

impl FlowKey {
    fn of(p: &Packet) -> Self {
        // Order endpoints so both directions map to the same key.
        if (p.src_ip, p.src_port) <= (p.dst_ip, p.dst_port) {
            FlowKey {
                lo_ip: p.src_ip,
                hi_ip: p.dst_ip,
                lo_port: p.src_port,
                hi_port: p.dst_port,
                protocol: p.protocol,
            }
        } else {
            FlowKey {
                lo_ip: p.dst_ip,
                hi_ip: p.src_ip,
                lo_port: p.dst_port,
                hi_port: p.src_port,
                protocol: p.protocol,
            }
        }
    }

    /// Stable partition id for partitioned assembly, independent of
    /// `HashMap`'s per-process hasher: two multiplies over the tuple packed
    /// into two words, the high bits scaled onto `0..partitions`.
    fn partition(&self, partitions: usize) -> PartitionId {
        let ips = (self.lo_ip as u64) << 32 | self.hi_ip as u64;
        let rest = (self.lo_port as u64) << 24
            | (self.hi_port as u64) << 8
            | self.protocol.number() as u64;
        let h =
            (ips.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rest).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        (((h >> 32) * partitions as u64) >> 32) as PartitionId
    }
}

/// One id per packet in [`FlowAssembler::assemble_partitioned`]; its range
/// caps the partition count.
type PartitionId = u8;

/// The deterministic total order of assembled flow streams: no two distinct
/// flows can share all six fields (same key at the same instant would be one
/// builder), so sequential and partitioned assembly sort identically.
fn flow_sort_key(f: &FlowRecord) -> (u64, u32, u32, u16, u16, u8) {
    (f.first_ts_micros, f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.protocol.number())
}

#[derive(Debug)]
struct FlowBuilder {
    orig_ip: u32,
    orig_port: u16,
    resp_ip: u32,
    resp_port: u16,
    protocol: Protocol,
    first_ts: u64,
    last_ts: u64,
    out_bytes: u64,
    in_bytes: u64,
    out_pkts: u64,
    in_pkts: u64,
    syn_count: u32,
    ack_count: u32,
    tcp: TcpTracker,
}

impl FlowBuilder {
    fn start(p: &Packet) -> Self {
        FlowBuilder {
            orig_ip: p.src_ip,
            orig_port: p.src_port,
            resp_ip: p.dst_ip,
            resp_port: p.dst_port,
            protocol: p.protocol,
            first_ts: p.ts_micros,
            last_ts: p.ts_micros,
            out_bytes: 0,
            in_bytes: 0,
            out_pkts: 0,
            in_pkts: 0,
            syn_count: 0,
            ack_count: 0,
            tcp: TcpTracker::new(),
        }
    }

    fn add(&mut self, p: &Packet) {
        let dir = if p.src_ip == self.orig_ip && p.src_port == self.orig_port {
            Direction::Out
        } else {
            Direction::In
        };
        self.last_ts = self.last_ts.max(p.ts_micros);
        match dir {
            Direction::Out => {
                self.out_bytes += p.payload_len as u64;
                self.out_pkts += 1;
            }
            Direction::In => {
                self.in_bytes += p.payload_len as u64;
                self.in_pkts += 1;
            }
        }
        if self.protocol == Protocol::Tcp {
            if p.flags.contains(TcpFlags::SYN) {
                self.syn_count += 1;
            }
            if p.flags.contains(TcpFlags::ACK) {
                self.ack_count += 1;
            }
            self.tcp.observe(dir, p.flags);
        }
    }

    fn is_tcp_closed(&self) -> bool {
        matches!(
            self.tcp.state(),
            TcpConnState::Sf | TcpConnState::Rej | TcpConnState::Rsto | TcpConnState::Rstr
        )
    }

    fn build(&self) -> FlowRecord {
        let state =
            if self.protocol == Protocol::Tcp { self.tcp.state() } else { TcpConnState::Oth };
        FlowRecord {
            src_ip: self.orig_ip,
            dst_ip: self.resp_ip,
            protocol: self.protocol,
            src_port: self.orig_port,
            dst_port: self.resp_port,
            duration_ms: (self.last_ts - self.first_ts) / 1000,
            out_bytes: self.out_bytes,
            in_bytes: self.in_bytes,
            out_pkts: self.out_pkts,
            in_pkts: self.in_pkts,
            state,
            syn_count: self.syn_count,
            ack_count: self.ack_count,
            first_ts_micros: self.first_ts,
        }
    }
}

/// Streaming flow assembler.
///
/// Feed packets in (roughly) timestamp order with [`FlowAssembler::push`];
/// completed flows become available via [`FlowAssembler::drain_completed`];
/// call [`FlowAssembler::finish`] at end of trace.
#[derive(Debug)]
pub struct FlowAssembler {
    active: HashMap<FlowKey, FlowBuilder>,
    completed: Vec<FlowRecord>,
    /// Idle timeout (microseconds) after which a stream is considered over.
    idle_timeout_micros: u64,
    /// Time of the most recent packet, for timeout sweeps.
    now: u64,
    /// Packets since the last timeout sweep.
    since_sweep: usize,
}

impl FlowAssembler {
    /// Default idle timeout: 60 s, a common NetFlow inactive-timeout value.
    pub const DEFAULT_IDLE_TIMEOUT_MICROS: u64 = 60_000_000;

    /// Creates an assembler with the default idle timeout.
    pub fn new() -> Self {
        Self::with_idle_timeout(Self::DEFAULT_IDLE_TIMEOUT_MICROS)
    }

    /// Creates an assembler with a custom idle timeout in microseconds.
    pub fn with_idle_timeout(idle_timeout_micros: u64) -> Self {
        FlowAssembler {
            active: HashMap::new(),
            completed: Vec::new(),
            idle_timeout_micros,
            now: 0,
            since_sweep: 0,
        }
    }

    /// Observes one packet.
    pub fn push(&mut self, p: &Packet) {
        self.now = self.now.max(p.ts_micros);
        match self.active.entry(FlowKey::of(p)) {
            Entry::Occupied(mut slot) => {
                let builder = slot.get_mut();
                // A packet landing on an idle-expired stream starts a new flow.
                if p.ts_micros.saturating_sub(builder.last_ts) > self.idle_timeout_micros {
                    self.completed.push(builder.build());
                    *builder = FlowBuilder::start(p);
                }
                builder.add(p);
                if p.protocol == Protocol::Tcp && builder.is_tcp_closed() {
                    self.completed.push(slot.remove().build());
                }
            }
            // No TCP state closes a connection on its first packet.
            Entry::Vacant(slot) => slot.insert(FlowBuilder::start(p)).add(p),
        }
        // Amortized timeout sweep so long traces do not accumulate unbounded
        // idle UDP streams.
        self.since_sweep += 1;
        if self.since_sweep >= 4096 {
            self.sweep_idle();
            self.since_sweep = 0;
        }
    }

    /// Processes a whole packet slice and finishes, returning all flows.
    pub fn assemble(packets: &[Packet]) -> Vec<FlowRecord> {
        let _span = csb_obs::span_cat("assembler.assemble", "net");
        let mut a = FlowAssembler::new();
        for p in packets {
            a.push(p);
        }
        a.finish()
    }

    /// Assembly in `workers` partitions on the ambient rayon pool,
    /// byte-identical to [`FlowAssembler::assemble`] for every count.
    ///
    /// `workers` is a partition count, not a thread count: the pool decides
    /// how many partitions run at once, and counts beyond what a
    /// [`PartitionId`] holds are clamped. Flow construction is per-key
    /// independent (timeout splits compare a packet's timestamp against the
    /// *same key's* last packet, never another flow's), so each packet gets
    /// a partition id from a stable hash of its canonical 5-tuple, each
    /// partition's assembler walks the shared slice and pushes only its own
    /// packets — nothing is copied — and the concatenation is re-sorted with
    /// the same total order `finish()` uses. Every partition reads every id,
    /// so a count far beyond the pool's width buys passes, not speed.
    pub fn assemble_partitioned(packets: &[Packet], workers: usize) -> Vec<FlowRecord> {
        if workers <= 1 {
            return Self::assemble(packets);
        }
        let _span = csb_obs::span_cat("assembler.assemble_partitioned", "net");
        let partitions = workers.min(PartitionId::MAX as usize + 1);
        let ids: Vec<PartitionId> =
            packets.par_iter().map(|p| FlowKey::of(p).partition(partitions)).collect();
        // Pool threads do not inherit the caller's recorder scope.
        let recorder = csb_obs::recorder::current();
        let mut out: Vec<FlowRecord> = (0..partitions)
            .into_par_iter()
            .flat_map_iter(|partition| {
                let _obs_scope = recorder.install();
                let mut assembler = FlowAssembler::new();
                for (p, &id) in packets.iter().zip(&ids) {
                    if id as usize == partition {
                        assembler.push(p);
                    }
                }
                assembler.finish()
            })
            .collect();
        out.sort_unstable_by_key(flow_sort_key);
        out
    }

    /// Advances the assembler's clock to `ts_micros` (e.g. a window
    /// boundary) and expires idle streams — the "inactive timeout" export a
    /// real NetFlow exporter performs even when no further packets arrive
    /// on a flow. Time never moves backwards.
    pub fn advance_time(&mut self, ts_micros: u64) {
        self.now = self.now.max(ts_micros);
        self.sweep_idle();
    }

    /// Closes every active stream idle for longer than the timeout.
    fn sweep_idle(&mut self) {
        let cutoff = self.now.saturating_sub(self.idle_timeout_micros);
        self.active.retain(|_, builder| {
            let live = builder.last_ts >= cutoff;
            if !live {
                self.completed.push(builder.build());
            }
            live
        });
    }

    /// Takes the flows completed so far.
    pub fn drain_completed(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.completed)
    }

    /// Number of currently open streams.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Flushes all open streams and returns every completed flow.
    pub fn finish(mut self) -> Vec<FlowRecord> {
        let _span = csb_obs::span_cat("assembler.finish", "net");
        let mut out = std::mem::take(&mut self.completed);
        let mut rest: Vec<FlowRecord> = self.active.values().map(|b| b.build()).collect();
        out.append(&mut rest);
        // Deterministic order regardless of hash iteration.
        out.sort_unstable_by_key(flow_sort_key);
        csb_obs::counter_add("assembler.flows", out.len() as u64);
        csb_obs::obs_debug!("assembler: {} flows finished", out.len());
        out
    }
}

impl Default for FlowAssembler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ip;

    const A: u32 = ip(10, 0, 0, 1);
    const B: u32 = ip(10, 0, 0, 2);

    fn tcp_session(t0: u64, src: u32, sport: u16, dst: u32, dport: u16) -> Vec<Packet> {
        vec![
            Packet::tcp(t0, src, sport, dst, dport, TcpFlags::SYN, 0),
            Packet::tcp(t0 + 100, dst, dport, src, sport, TcpFlags::SYN_ACK, 0),
            Packet::tcp(t0 + 200, src, sport, dst, dport, TcpFlags::ACK, 0),
            Packet::tcp(t0 + 300, src, sport, dst, dport, TcpFlags::PSH | TcpFlags::ACK, 120),
            Packet::tcp(t0 + 400, dst, dport, src, sport, TcpFlags::PSH | TcpFlags::ACK, 900),
            Packet::tcp(t0 + 500, src, sport, dst, dport, TcpFlags::FIN | TcpFlags::ACK, 0),
            Packet::tcp(t0 + 600, dst, dport, src, sport, TcpFlags::FIN | TcpFlags::ACK, 0),
        ]
    }

    #[test]
    fn full_tcp_session_assembles_one_sf_flow() {
        let flows = FlowAssembler::assemble(&tcp_session(1_000, A, 40000, B, 80));
        assert_eq!(flows.len(), 1);
        let f = &flows[0];
        assert_eq!(f.src_ip, A);
        assert_eq!(f.dst_ip, B);
        assert_eq!(f.src_port, 40000);
        assert_eq!(f.dst_port, 80);
        assert_eq!(f.state, TcpConnState::Sf);
        assert_eq!(f.out_bytes, 120);
        assert_eq!(f.in_bytes, 900);
        assert_eq!(f.out_pkts, 4);
        assert_eq!(f.in_pkts, 3);
        assert_eq!(f.syn_count, 2); // SYN + SYN-ACK both carry SYN.
        assert_eq!(f.duration_ms, 0); // 600 us rounds down.
        assert_eq!(f.first_ts_micros, 1_000);
    }

    #[test]
    fn originator_is_first_sender() {
        // B initiates toward A: flow must be oriented B -> A even though
        // A < B in key order.
        let flows = FlowAssembler::assemble(&tcp_session(0, B, 51000, A, 22));
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].src_ip, B);
        assert_eq!(flows[0].dst_ip, A);
    }

    #[test]
    fn unanswered_syn_is_s0_after_finish() {
        let pkts = vec![Packet::tcp(0, A, 1234, B, 80, TcpFlags::SYN, 0)];
        let flows = FlowAssembler::assemble(&pkts);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].state, TcpConnState::S0);
    }

    #[test]
    fn rejected_connection_is_rej() {
        let pkts = vec![
            Packet::tcp(0, A, 1234, B, 23, TcpFlags::SYN, 0),
            Packet::tcp(50, B, 23, A, 1234, TcpFlags::RST | TcpFlags::ACK, 0),
        ];
        let flows = FlowAssembler::assemble(&pkts);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].state, TcpConnState::Rej);
    }

    #[test]
    fn udp_streams_aggregate_until_timeout() {
        let mut pkts = vec![
            Packet::udp(0, A, 5353, B, 53, 60),
            Packet::udp(1_000, B, 53, A, 5353, 300),
            Packet::udp(2_000, A, 5353, B, 53, 60),
        ];
        // A second stream well past the idle timeout on the same 5-tuple.
        pkts.push(Packet::udp(120_000_000, A, 5353, B, 53, 60));
        let mut asm = FlowAssembler::new();
        for p in &pkts {
            asm.push(p);
        }
        // Force the sweep (normally amortized) then finish.
        asm.sweep_idle();
        let flows = asm.finish();
        assert_eq!(flows.len(), 2, "timeout must split the two bursts");
        assert_eq!(flows[0].out_pkts, 2);
        assert_eq!(flows[0].in_pkts, 1);
        assert_eq!(flows[0].in_bytes, 300);
        assert_eq!(flows[0].state, TcpConnState::Oth);
    }

    #[test]
    fn two_sessions_same_endpoints_different_ports_are_distinct() {
        let mut pkts = tcp_session(0, A, 40000, B, 80);
        pkts.extend(tcp_session(10, A, 40001, B, 80));
        let flows = FlowAssembler::assemble(&pkts);
        assert_eq!(flows.len(), 2);
    }

    #[test]
    fn packet_conservation() {
        // Total packets across flows == packets fed in.
        let mut pkts = tcp_session(0, A, 40000, B, 80);
        pkts.extend(tcp_session(5_000, B, 52000, A, 443));
        pkts.push(Packet::udp(7_000, A, 9999, B, 53, 10));
        pkts.push(Packet::icmp(8_000, B, A, 56));
        let n = pkts.len() as u64;
        let flows = FlowAssembler::assemble(&pkts);
        let total: u64 = flows.iter().map(|f| f.total_pkts()).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn partitioned_assembly_matches_sequential_for_any_worker_count() {
        // A busy little trace with splits (idle timeout) and mixed protocols.
        let mut pkts = Vec::new();
        for i in 0..40u16 {
            pkts.extend(tcp_session(i as u64 * 1_000, A, 40_000 + i, B, 80));
            pkts.push(Packet::udp(i as u64 * 1_500, B, 53, A, 9_000 + i, 60));
        }
        pkts.push(Packet::udp(200_000_000, A, 9_000, B, 53, 60));
        pkts.sort_by_key(|p| p.ts_micros);
        let sequential = FlowAssembler::assemble(&pkts);
        for workers in [1usize, 2, 3, 7, 16] {
            let par = FlowAssembler::assemble_partitioned(&pkts, workers);
            assert_eq!(par, sequential, "workers={workers} diverged");
        }
    }

    #[test]
    fn a_worker_is_a_partition_not_a_thread() {
        // One OS thread a worker used to take the process down here.
        let mut pkts = Vec::new();
        for i in 0..300u16 {
            pkts.extend(tcp_session(i as u64 * 700, A, 20_000 + i, B, 443));
            pkts.push(Packet::udp(i as u64 * 900, B, 53, A, 30_000 + i, 60));
        }
        pkts.sort_by_key(|p| p.ts_micros);
        let sequential = FlowAssembler::assemble(&pkts);
        assert_eq!(sequential.len(), 600);
        for workers in [PartitionId::MAX as usize + 1, 100_000] {
            assert_eq!(FlowAssembler::assemble_partitioned(&pkts, workers), sequential);
        }
    }

    #[test]
    fn push_by_push_takes_every_table_arm() {
        let idle = FlowAssembler::DEFAULT_IDLE_TIMEOUT_MICROS;
        let reuse = 4 * idle;
        let mut pkts = vec![
            // Vacant, then occupied; the same key again past the idle
            // timeout splits in place while the key stays live.
            Packet::udp(0, A, 5353, B, 53, 60),
            Packet::udp(1_000, B, 53, A, 5353, 300),
            Packet::udp(2 * idle, A, 5353, B, 53, 61),
            // A SYN answered by RST closes on its second packet and leaves
            // the table through the slot.
            Packet::tcp(3 * idle, A, 1234, B, 23, TcpFlags::SYN, 0),
            Packet::tcp(3 * idle + 50, B, 23, A, 1234, TcpFlags::RST | TcpFlags::ACK, 0),
        ];
        // A full session closes on FIN; the 5-tuple is vacant again for the
        // next one.
        pkts.extend(tcp_session(reuse, A, 40_000, B, 80));
        pkts.extend(tcp_session(reuse + 1_000, A, 40_000, B, 80));

        let mut asm = FlowAssembler::new();
        let mut seen = Vec::new();
        let mut step = |asm: &mut FlowAssembler, p: &Packet, active: usize, completed: usize| {
            asm.push(p);
            let done = asm.drain_completed();
            assert_eq!((asm.active_len(), done.len()), (active, completed), "at {p:?}");
            seen.extend(done);
        };
        step(&mut asm, &pkts[0], 1, 0);
        step(&mut asm, &pkts[1], 1, 0);
        step(&mut asm, &pkts[2], 1, 1);
        step(&mut asm, &pkts[3], 2, 0);
        step(&mut asm, &pkts[4], 1, 1);
        for session in [&pkts[5..12], &pkts[12..19]] {
            for p in &session[..6] {
                step(&mut asm, p, 2, 0);
            }
            step(&mut asm, &session[6], 1, 1);
        }
        assert_eq!((seen[0].out_pkts, seen[0].in_pkts, seen[0].in_bytes), (1, 1, 300));
        assert_eq!(seen[1].state, TcpConnState::Rej);
        assert_eq!((seen[2].state, seen[3].state), (TcpConnState::Sf, TcpConnState::Sf));
        assert_eq!(seen[3].first_ts_micros, reuse + 1_000);

        seen.extend(asm.finish());
        seen.sort_unstable_by_key(flow_sort_key);
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[1].out_bytes, 61, "the split's second half flushes at finish");
        assert_eq!(seen, FlowAssembler::assemble(&pkts));
    }

    #[test]
    fn deterministic_output_order() {
        let mut pkts = tcp_session(100, A, 40000, B, 80);
        pkts.extend(tcp_session(0, B, 52000, A, 443));
        let flows = FlowAssembler::assemble(&pkts);
        assert!(flows.windows(2).all(|w| w[0].first_ts_micros <= w[1].first_ts_micros));
    }
}
