//! Classic libpcap capture-file format, reader and writer.
//!
//! The paper's pipeline consumes traces "in the PCAP format"; this module
//! implements the classic (non-ng) format: a 24-byte global header followed
//! by 16-byte per-record headers and raw link-layer frames. Frames are
//! Ethernet II + IPv4 + TCP/UDP/ICMP, which is what every public IDS dataset
//! ships. Only the header fields the flow pipeline needs are materialized;
//! payload bytes are zero-filled on write and skipped on read (snap length).

use crate::flow::Protocol;
use crate::packet::{Packet, TcpFlags};
use bytes::{Buf, BufMut};
use std::io::{self, Read, Write};

/// PCAP magic for microsecond timestamps, little-endian writer convention.
const MAGIC_LE: u32 = 0xA1B2_C3D4;
/// Same magic byte-swapped: a big-endian capture.
const MAGIC_BE: u32 = 0xD4C3_B2A1;
/// Link type LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u32 = 1;
/// Ethernet header length.
const ETH_LEN: usize = 14;
/// Bytes of each frame actually stored (headers only; payload elided).
const SNAPLEN: u32 = 64;

/// Errors from PCAP parsing.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a classic-pcap stream, or unsupported link type.
    BadFormat(String),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadFormat(m) => write!(f, "bad pcap: {m}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Writes a whole trace to a classic-pcap byte stream.
pub fn write_pcap<W: Write>(mut w: W, packets: &[Packet]) -> Result<(), PcapError> {
    let mut buf = Vec::with_capacity(24 + packets.len() * (16 + SNAPLEN as usize));
    // Global header.
    buf.put_u32_le(MAGIC_LE);
    buf.put_u16_le(2); // version major
    buf.put_u16_le(4); // version minor
    buf.put_i32_le(0); // thiszone
    buf.put_u32_le(0); // sigfigs
    buf.put_u32_le(SNAPLEN);
    buf.put_u32_le(LINKTYPE_ETHERNET);

    for p in packets {
        let frame = encode_frame(p);
        let orig_len = ETH_LEN as u32 + p.wire_len();
        let incl_len = frame.len() as u32;
        buf.put_u32_le((p.ts_micros / 1_000_000) as u32);
        buf.put_u32_le((p.ts_micros % 1_000_000) as u32);
        buf.put_u32_le(incl_len);
        buf.put_u32_le(orig_len);
        buf.extend_from_slice(&frame);
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Encodes the Ethernet+IPv4+transport headers of one packet, truncated to
/// the snap length.
fn encode_frame(p: &Packet) -> Vec<u8> {
    let mut f = Vec::with_capacity(SNAPLEN as usize);
    // Ethernet II: zero MACs, EtherType IPv4.
    f.extend_from_slice(&[0u8; 12]);
    f.put_u16(0x0800);
    // IPv4 header (20 bytes, no options).
    f.put_u8(0x45); // version 4, IHL 5
    f.put_u8(0); // DSCP/ECN
    f.put_u16(saturate_u16(p.wire_len())); // total length
    f.put_u16(0); // identification
    f.put_u16(0x4000); // don't fragment
    f.put_u8(64); // TTL
    f.put_u8(p.protocol.number());
    f.put_u16(0); // checksum (not computed; readers we target don't verify)
    f.put_u32(p.src_ip);
    f.put_u32(p.dst_ip);
    match p.protocol {
        Protocol::Tcp => {
            f.put_u16(p.src_port);
            f.put_u16(p.dst_port);
            f.put_u32(0); // seq
            f.put_u32(0); // ack
            f.put_u8(0x50); // data offset 5
            f.put_u8(p.flags.0);
            f.put_u16(0xFFFF); // window
            f.put_u16(0); // checksum
            f.put_u16(0); // urgent
        }
        Protocol::Udp => {
            f.put_u16(p.src_port);
            f.put_u16(p.dst_port);
            f.put_u16(saturate_u16(p.payload_len.saturating_add(8)));
            f.put_u16(0); // checksum
        }
        Protocol::Icmp => {
            f.put_u8(8); // echo request
            f.put_u8(0); // code
            f.put_u16(0); // checksum
            f.put_u32(0); // identifier/sequence
        }
    }
    f.truncate(SNAPLEN as usize);
    f
}

/// A 16-bit header length field for a length that may not fit one: jumbo
/// payloads saturate (readers recover the true length from `orig_len`).
fn saturate_u16(len: u32) -> u16 {
    u16::try_from(len).unwrap_or(u16::MAX)
}

/// Reads a whole classic-pcap byte stream back into packets.
///
/// Non-IPv4 frames and IPv4 protocols other than TCP/UDP/ICMP are skipped.
pub fn read_pcap<R: Read>(mut r: R) -> Result<Vec<Packet>, PcapError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    let mut buf = &data[..];
    if buf.remaining() < 24 {
        return Err(PcapError::BadFormat("truncated global header".into()));
    }
    let magic = buf.get_u32_le();
    let swapped = match magic {
        MAGIC_LE => false,
        MAGIC_BE => true,
        m => return Err(PcapError::BadFormat(format!("unknown magic {m:#x}"))),
    };
    let read_u32 = |b: &mut &[u8]| if swapped { b.get_u32() } else { b.get_u32_le() };
    let read_u16 = |b: &mut &[u8]| if swapped { b.get_u16() } else { b.get_u16_le() };

    let _vmaj = read_u16(&mut buf);
    let _vmin = read_u16(&mut buf);
    buf.advance(8); // thiszone + sigfigs
    let _snaplen = read_u32(&mut buf);
    let linktype = read_u32(&mut buf);
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::BadFormat(format!("unsupported link type {linktype}")));
    }

    let mut packets = Vec::new();
    while buf.remaining() >= 16 {
        let ts_sec = read_u32(&mut buf) as u64;
        let ts_usec = read_u32(&mut buf) as u64;
        let incl_len = read_u32(&mut buf) as usize;
        let orig_len = read_u32(&mut buf) as usize;
        if buf.remaining() < incl_len {
            return Err(PcapError::BadFormat("truncated record".into()));
        }
        let frame = &buf[..incl_len];
        buf.advance(incl_len);
        if let Some(p) = decode_frame(frame, ts_sec * 1_000_000 + ts_usec, orig_len) {
            packets.push(p);
        }
    }
    Ok(packets)
}

/// Decodes one Ethernet frame; `None` for frames we don't model.
fn decode_frame(frame: &[u8], ts_micros: u64, orig_len: usize) -> Option<Packet> {
    if frame.len() < ETH_LEN + 20 {
        return None;
    }
    let mut b = &frame[12..];
    let ethertype = b.get_u16();
    if ethertype != 0x0800 {
        return None;
    }
    let vihl = b.get_u8();
    if vihl >> 4 != 4 {
        return None;
    }
    let ihl = ((vihl & 0x0F) as usize) * 4;
    b.advance(1); // DSCP
    let _total_len = b.get_u16();
    b.advance(5); // id, frag, ttl
    let proto_num = b.get_u8();
    b.advance(2); // checksum
    let src_ip = b.get_u32();
    let dst_ip = b.get_u32();
    if ihl > 20 {
        let extra = ihl - 20;
        if b.remaining() < extra {
            return None;
        }
        b.advance(extra);
    }
    let protocol = Protocol::from_number(proto_num)?;
    let (src_port, dst_port, flags, header_len) = match protocol {
        Protocol::Tcp => {
            if b.remaining() < 14 {
                return None;
            }
            let sp = b.get_u16();
            let dp = b.get_u16();
            b.advance(8);
            b.advance(1); // data offset
            let fl = TcpFlags(b.get_u8());
            (sp, dp, fl, 20usize)
        }
        Protocol::Udp => {
            if b.remaining() < 4 {
                return None;
            }
            let sp = b.get_u16();
            let dp = b.get_u16();
            (sp, dp, TcpFlags::empty(), 8usize)
        }
        Protocol::Icmp => (0, 0, TcpFlags::empty(), 8usize),
    };
    // Payload length from the *original* length, since the stored frame is
    // snapped.
    let payload_len = orig_len.saturating_sub(ETH_LEN + ihl + header_len) as u32;
    Some(Packet { ts_micros, src_ip, dst_ip, src_port, dst_port, protocol, flags, payload_len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ip;

    fn sample_packets() -> Vec<Packet> {
        vec![
            Packet::tcp(1_234_567, ip(10, 1, 1, 1), 40000, ip(10, 1, 1, 2), 80, TcpFlags::SYN, 0),
            Packet::tcp(
                2_000_001,
                ip(10, 1, 1, 2),
                80,
                ip(10, 1, 1, 1),
                40000,
                TcpFlags::SYN_ACK,
                0,
            ),
            Packet::tcp(
                3_500_000,
                ip(10, 1, 1, 1),
                40000,
                ip(10, 1, 1, 2),
                80,
                TcpFlags::PSH | TcpFlags::ACK,
                1460,
            ),
            Packet::udp(4_000_000, ip(192, 168, 0, 9), 5353, ip(8, 8, 8, 8), 53, 64),
            Packet::icmp(5_000_000, ip(192, 168, 0, 9), ip(8, 8, 4, 4), 56),
        ]
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let original = sample_packets();
        let mut bytes = Vec::new();
        write_pcap(&mut bytes, &original).expect("write");
        let parsed = read_pcap(&bytes[..]).expect("read");
        assert_eq!(parsed, original);
    }

    #[test]
    fn global_header_is_well_formed() {
        let mut bytes = Vec::new();
        write_pcap(&mut bytes, &[]).expect("write");
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &0xA1B2_C3D4u32.to_le_bytes());
        assert_eq!(&bytes[4..6], &2u16.to_le_bytes());
        assert_eq!(&bytes[6..8], &4u16.to_le_bytes());
        assert_eq!(&bytes[20..24], &1u32.to_le_bytes());
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_pcap(&b"not a pcap file at all....."[..]).is_err());
        assert!(read_pcap(&[][..]).is_err());
    }

    #[test]
    fn rejects_truncated_record() {
        let mut bytes = Vec::new();
        write_pcap(&mut bytes, &sample_packets()).expect("write");
        bytes.truncate(bytes.len() - 3);
        assert!(read_pcap(&bytes[..]).is_err());
    }

    #[test]
    fn large_payload_survives_snaplen() {
        let p =
            vec![Packet::tcp(0, ip(1, 1, 1, 1), 1, ip(2, 2, 2, 2), 2, TcpFlags::ACK, 1_000_000)];
        let mut bytes = Vec::new();
        write_pcap(&mut bytes, &p).expect("write");
        let parsed = read_pcap(&bytes[..]).expect("read");
        assert_eq!(parsed[0].payload_len, 1_000_000);
    }

    #[test]
    fn udp_length_fields_saturate_past_u16() {
        // 65 528 is the first payload whose UDP length (8 + payload) leaves
        // 16 bits; the fields saturate and `orig_len` still carries the truth.
        for payload in [65_527u32, 65_528, 70_000] {
            let p = vec![Packet::udp(0, ip(1, 1, 1, 1), 9, ip(2, 2, 2, 2), 53, payload)];
            let mut bytes = Vec::new();
            write_pcap(&mut bytes, &p).expect("write");
            assert_eq!(read_pcap(&bytes[..]).expect("read"), p, "payload {payload}");
            let frame = &bytes[24 + 16..];
            let ip_total = u16::from_be_bytes([frame[16], frame[17]]);
            let udp_len = u16::from_be_bytes([frame[38], frame[39]]);
            assert_eq!(ip_total as u32, (28 + payload).min(65_535));
            assert_eq!(udp_len as u32, (8 + payload).min(65_535));
        }
    }

    #[test]
    fn timestamps_preserved_to_microsecond() {
        let p = vec![Packet::icmp(987_654_321, ip(1, 1, 1, 1), ip(2, 2, 2, 2), 8)];
        let mut bytes = Vec::new();
        write_pcap(&mut bytes, &p).expect("write");
        let parsed = read_pcap(&bytes[..]).expect("read");
        assert_eq!(parsed[0].ts_micros, 987_654_321);
    }
}
