//! A captured trace: time-ordered packets plus ground-truth attack labels.
//!
//! The order contract is global stable order by timestamp, ties in emission
//! order. [`Trace::sort`] establishes it; [`Trace::merge_sorted`] keeps it
//! between two traces that already have it, moving whole runs, so its cost
//! is the stretch where the two overlap rather than their combined length.

use self::summaries::TraceSummary;
use crate::packet::Packet;

/// The category of an injected attack, mirroring the attack taxonomy of paper
/// Section IV (flooding and scanning attacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackKind {
    /// TCP SYN flood toward one victim port.
    SynFlood,
    /// ICMP echo flood.
    IcmpFlood,
    /// UDP datagram flood.
    UdpFlood,
    /// Generic TCP flood (established-looking junk traffic).
    TcpFlood,
    /// Distributed flood: many sources, one victim.
    Ddos,
    /// Port scan of a single host (many destination ports).
    HostScan,
    /// Sweep of many hosts on one port (many destination IPs).
    NetworkScan,
    /// Smurf: ICMP echo requests with the victim's spoofed source sent to a
    /// broadcast population, whose replies flood the victim.
    Smurf,
    /// Fraggle: the UDP variant of Smurf (spoofed echo/chargen datagrams).
    Fraggle,
}

impl AttackKind {
    /// All kinds, for enumeration in tests and reports.
    pub const ALL: [AttackKind; 9] = [
        AttackKind::SynFlood,
        AttackKind::IcmpFlood,
        AttackKind::UdpFlood,
        AttackKind::TcpFlood,
        AttackKind::Ddos,
        AttackKind::HostScan,
        AttackKind::NetworkScan,
        AttackKind::Smurf,
        AttackKind::Fraggle,
    ];
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttackKind::SynFlood => "syn-flood",
            AttackKind::IcmpFlood => "icmp-flood",
            AttackKind::UdpFlood => "udp-flood",
            AttackKind::TcpFlood => "tcp-flood",
            AttackKind::Ddos => "ddos",
            AttackKind::HostScan => "host-scan",
            AttackKind::NetworkScan => "network-scan",
            AttackKind::Smurf => "smurf",
            AttackKind::Fraggle => "fraggle",
        };
        write!(f, "{s}")
    }
}

/// Ground truth for one injected attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackLabel {
    /// What was injected.
    pub kind: AttackKind,
    /// Primary attacker address (one of them, for DDoS).
    pub attacker: u32,
    /// Victim address (the scanned /24 base for network scans).
    pub victim: u32,
    /// Attack window start, microseconds.
    pub start_micros: u64,
    /// Attack window end, microseconds.
    pub end_micros: u64,
}

/// A packet trace with ground-truth labels.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Packets, kept sorted by timestamp.
    pub packets: Vec<Packet>,
    /// Ground-truth labels for injected attacks (empty for benign traces).
    pub labels: Vec<AttackLabel>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts packets by timestamp (stable, so simultaneous packets keep
    /// injection order).
    pub fn sort(&mut self) {
        self.packets.sort_by_key(|p| p.ts_micros);
    }

    /// Appends another trace's packets and labels.
    ///
    /// **Invariant caveat:** this concatenates; it does *not* re-sort, so the
    /// result violates the "packets sorted by timestamp" invariant whenever
    /// the two traces overlap in time. Callers must either call
    /// [`Trace::sort`] afterwards (the attack-injector path does) or use
    /// [`Trace::merge_sorted`], which preserves the invariant directly.
    pub fn merge(&mut self, other: Trace) {
        self.packets.extend(other.packets);
        self.labels.extend(other.labels);
    }

    /// Merges another trace, keeping packets time-ordered.
    ///
    /// Both inputs must already be sorted by timestamp (the documented trace
    /// invariant); the merge is a stable two-way merge, so on timestamp ties
    /// `self`'s packets precede `other`'s and each side keeps its internal
    /// order. The cost is the overlap, not the sum: `self`'s packets at or
    /// before `other`'s first timestamp are never touched, and from there
    /// whole runs of either side move with one block copy each — the
    /// campaign scheduler interleaves stage traces, and the simulator its
    /// sorted parts, without a full re-sort.
    pub fn merge_sorted(&mut self, other: Trace) {
        merge_packets(&mut self.packets, &other.packets);
        self.labels.extend(other.labels);
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if the trace has no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Duration from first to last packet, microseconds (0 when < 2 packets).
    pub fn duration_micros(&self) -> u64 {
        match (self.packets.first(), self.packets.last()) {
            (Some(a), Some(b)) => b.ts_micros.saturating_sub(a.ts_micros),
            _ => 0,
        }
    }

    /// Computes summary statistics of the trace.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::of(self)
    }
}

/// Stable merge of the sorted `src` into the sorted `dst`, ties keeping
/// `dst`'s packets first.
///
/// Only `dst`'s tail past `src`'s first timestamp takes part. A tail longer
/// than `src` (a capture absorbing an attack trace) is merged in place from
/// the back, so nothing but `src`'s length is allocated; a shorter one (a
/// capture absorbing its next sorted part) is set aside and both are appended
/// forward, so the long side is copied once.
fn merge_packets(dst: &mut Vec<Packet>, src: &[Packet]) {
    debug_assert!(dst.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    debug_assert!(src.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    let Some(first) = src.first() else { return };
    let start = dst.partition_point(|p| p.ts_micros <= first.ts_micros);
    let tail_len = dst.len() - start;
    if tail_len > src.len() {
        // Back to front: `write` is where the next (latest) run ends; the
        // gap between the unmerged tail and `write` is always `j` wide.
        dst.extend_from_slice(src);
        let (mut i, mut j, mut write) = (tail_len, src.len(), dst.len());
        while j > 0 && i > 0 {
            let (left, right) = (dst[start + i - 1].ts_micros, src[j - 1].ts_micros);
            if right >= left {
                let run = run_len(j, |k| src[j - 1 - k].ts_micros >= left);
                dst[write - run..write].copy_from_slice(&src[j - run..j]);
                (j, write) = (j - run, write - run);
            } else {
                let run = run_len(i, |k| dst[start + i - 1 - k].ts_micros > right);
                dst.copy_within(start + i - run..start + i, write - run);
                (i, write) = (i - run, write - run);
            }
        }
        dst[start..start + j].copy_from_slice(&src[..j]);
    } else {
        let tail = dst.split_off(start);
        dst.reserve(tail.len() + src.len());
        let (mut i, mut j) = (0, 0);
        while i < tail.len() && j < src.len() {
            let (left, right) = (tail[i].ts_micros, src[j].ts_micros);
            if left <= right {
                let run = run_len(tail.len() - i, |k| tail[i + k].ts_micros <= right);
                dst.extend_from_slice(&tail[i..i + run]);
                i += run;
            } else {
                let run = run_len(src.len() - j, |k| src[j + k].ts_micros < left);
                dst.extend_from_slice(&src[j..j + run]);
                j += run;
            }
        }
        dst.extend_from_slice(&tail[i..]);
        dst.extend_from_slice(&src[j..]);
    }
}

/// How many of the positions `0..n` the monotone `holds` (true, then false)
/// accepts: a galloping search — double the step until it fails, then binary
/// search inside the last step — so a run costs the log of its own length,
/// not of what remains.
fn run_len(n: usize, holds: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step <= n && holds(lo + step - 1) {
        lo += step;
        step *= 2;
    }
    let mut hi = (lo + step - 1).min(n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Summary statistics live in a sibling module to keep this one small.
pub mod summaries {
    use super::Trace;
    use crate::flow::Protocol;
    use std::collections::HashSet;

    /// Aggregate characteristics of a trace.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TraceSummary {
        /// Total packets.
        pub packets: usize,
        /// Distinct hosts appearing as source or destination.
        pub hosts: usize,
        /// TCP packet count.
        pub tcp: usize,
        /// UDP packet count.
        pub udp: usize,
        /// ICMP packet count.
        pub icmp: usize,
        /// Total payload bytes.
        pub bytes: u64,
        /// Trace duration in seconds.
        pub duration_secs: f64,
    }

    impl TraceSummary {
        /// Computes the summary in one pass.
        pub fn of(trace: &Trace) -> Self {
            let mut hosts = HashSet::new();
            let (mut tcp, mut udp, mut icmp) = (0usize, 0usize, 0usize);
            let mut bytes = 0u64;
            for p in &trace.packets {
                hosts.insert(p.src_ip);
                hosts.insert(p.dst_ip);
                match p.protocol {
                    Protocol::Tcp => tcp += 1,
                    Protocol::Udp => udp += 1,
                    Protocol::Icmp => icmp += 1,
                }
                bytes += p.payload_len as u64;
            }
            TraceSummary {
                packets: trace.packets.len(),
                hosts: hosts.len(),
                tcp,
                udp,
                icmp,
                bytes,
                duration_secs: trace.duration_micros() as f64 / 1e6,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{ip, TcpFlags};

    #[test]
    fn sort_orders_by_timestamp() {
        let mut t = Trace::new();
        t.packets.push(Packet::icmp(500, ip(1, 0, 0, 1), ip(1, 0, 0, 2), 8));
        t.packets.push(Packet::icmp(100, ip(1, 0, 0, 3), ip(1, 0, 0, 4), 8));
        t.sort();
        assert_eq!(t.packets[0].ts_micros, 100);
        assert_eq!(t.duration_micros(), 400);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Trace::new();
        a.packets.push(Packet::icmp(0, 1, 2, 8));
        let mut b = Trace::new();
        b.packets.push(Packet::icmp(1, 3, 4, 8));
        b.labels.push(AttackLabel {
            kind: AttackKind::HostScan,
            attacker: 3,
            victim: 4,
            start_micros: 0,
            end_micros: 1,
        });
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.labels.len(), 1);
    }

    #[test]
    fn merge_sorted_interleaves_two_stages() {
        // Two overlapping "stages": merge_sorted must interleave by time
        // where plain merge would leave packets out of order.
        let mut a = Trace::new();
        for t in [0u64, 200, 400, 600] {
            a.packets.push(Packet::icmp(t, 1, 2, 8));
        }
        let mut b = Trace::new();
        for t in [100u64, 300, 400, 500] {
            b.packets.push(Packet::icmp(t, 3, 4, 8));
        }
        b.labels.push(AttackLabel {
            kind: AttackKind::HostScan,
            attacker: 3,
            victim: 4,
            start_micros: 100,
            end_micros: 500,
        });
        let mut concat = a.clone();
        concat.merge(b.clone());
        assert!(
            concat.packets.windows(2).any(|w| w[0].ts_micros > w[1].ts_micros),
            "plain merge of overlapping traces must be out of order (else this test is vacuous)"
        );
        a.merge_sorted(b);
        assert_eq!(a.len(), 8);
        assert_eq!(a.labels.len(), 1);
        assert!(a.packets.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
        // Stable on ties: at t=400 the left trace's packet comes first.
        let at_400: Vec<u32> =
            a.packets.iter().filter(|p| p.ts_micros == 400).map(|p| p.src_ip).collect();
        assert_eq!(at_400, vec![1, 3]);
    }

    #[test]
    fn merge_sorted_handles_empty_sides() {
        let mut a = Trace::new();
        a.merge_sorted(Trace::new());
        assert!(a.is_empty());
        let mut b = Trace::new();
        b.packets.push(Packet::icmp(7, 1, 2, 8));
        a.merge_sorted(b);
        assert_eq!(a.len(), 1);
        let mut c = Trace::new();
        c.packets.push(Packet::icmp(3, 5, 6, 8));
        c.merge_sorted(a);
        assert_eq!(c.packets[0].ts_micros, 3);
        assert_eq!(c.packets[1].ts_micros, 7);
    }

    #[test]
    fn summary_counts_protocols_and_hosts() {
        let mut t = Trace::new();
        t.packets.push(Packet::tcp(0, 1, 10, 2, 80, TcpFlags::SYN, 100));
        t.packets.push(Packet::udp(1_000_000, 1, 10, 3, 53, 50));
        t.packets.push(Packet::icmp(2_000_000, 2, 3, 8));
        let s = t.summary();
        assert_eq!(s.packets, 3);
        assert_eq!(s.hosts, 3);
        assert_eq!(s.tcp, 1);
        assert_eq!(s.udp, 1);
        assert_eq!(s.icmp, 1);
        assert_eq!(s.bytes, 158);
        assert!((s.duration_secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_behaves() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.duration_micros(), 0);
        assert_eq!(t.summary().hosts, 0);
    }
}
