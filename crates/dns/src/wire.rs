//! Binary wire format (RFC 1035 §4.1) with name compression (§4.1.4).
//!
//! The encoder compresses every name it emits (including names embedded in
//! NS/CNAME/SOA/MX/PTR/SRV RDATA, which BIND-era servers also did); the
//! decoder accepts pointers anywhere a name may occur, with strict loop
//! protection: a pointer must target an earlier offset, and the number of
//! jumps per name is bounded.
//!
//! All reads are bounds-checked; malformed input yields a typed
//! [`WireError`], never a panic.

use crate::message::{Flags, Message, Opcode, Question, Rcode};
use crate::name::{DnsName, Label, MAX_NAME_LEN};
use crate::rr::{RData, Record, RrClass, RrType, Soa};
use bytes::{BufMut, BytesMut};
use std::collections::HashMap;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Maximum pointer jumps permitted while decoding one name.
const MAX_POINTER_JUMPS: usize = 64;

/// Errors produced by the wire decoder (and, rarely, the encoder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// A compression pointer pointed forward or at itself.
    BadPointer {
        /// Offset of the pointer.
        at: usize,
        /// Target it named.
        target: usize,
    },
    /// Too many compression jumps (loop suspected).
    PointerLoop,
    /// A label length byte used the reserved `10`/`01` prefixes.
    BadLabelType(u8),
    /// Decoded name exceeded 255 wire bytes.
    NameTooLong,
    /// A label failed validation (bad byte).
    BadLabel,
    /// RDATA length did not match its content.
    BadRdataLength {
        /// The type being decoded.
        rtype: RrType,
    },
    /// Bytes remained after the final section.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer { at, target } => {
                write!(
                    f,
                    "compression pointer at {at} targets {target} (not strictly earlier)"
                )
            }
            WireError::PointerLoop => write!(f, "compression pointer loop"),
            WireError::BadLabelType(b) => write!(f, "unsupported label type byte {b:#04x}"),
            WireError::NameTooLong => write!(f, "decoded name exceeds 255 bytes"),
            WireError::BadLabel => write!(f, "label contains invalid bytes"),
            WireError::BadRdataLength { rtype } => write!(f, "RDATA length mismatch for {rtype}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Streaming encoder with a compression dictionary.
struct Encoder {
    buf: BytesMut,
    /// Lowercased name suffix → offset of its first occurrence.
    seen: HashMap<DnsName, u16>,
}

impl Encoder {
    fn new() -> Encoder {
        Encoder {
            buf: BytesMut::with_capacity(512),
            seen: HashMap::new(),
        }
    }

    fn put_name(&mut self, name: &DnsName) {
        // Try to emit a pointer for the longest suffix already seen; record
        // offsets for the new prefix labels we write out.
        let labels = name.labels();
        for (i, label) in labels.iter().enumerate() {
            let suffix = DnsName::from_labels(labels[i..].to_vec())
                .expect("suffix of a valid name is valid")
                .to_lowercase();
            if let Some(&offset) = self.seen.get(&suffix) {
                self.buf.put_u16(0xC000 | offset);
                return;
            }
            let here = self.buf.len();
            if here < 0x4000 {
                self.seen.insert(suffix, here as u16);
            }
            self.buf.put_u8(label.len() as u8);
            self.buf.put_slice(label.as_bytes());
        }
        self.buf.put_u8(0); // root
    }

    fn put_question(&mut self, q: &Question) {
        self.put_name(&q.name);
        self.buf.put_u16(q.qtype.code());
        self.buf.put_u16(q.qclass.code());
    }

    fn put_record(&mut self, r: &Record) {
        self.put_name(&r.name);
        self.buf.put_u16(r.rtype.code());
        self.buf.put_u16(r.class.code());
        self.buf.put_u32(r.ttl);
        // Reserve the RDLENGTH slot, encode, then backfill.
        let len_at = self.buf.len();
        self.buf.put_u16(0);
        let start = self.buf.len();
        self.put_rdata(&r.rdata);
        let rd_len = (self.buf.len() - start) as u16;
        self.buf[len_at..len_at + 2].copy_from_slice(&rd_len.to_be_bytes());
    }

    fn put_rdata(&mut self, rdata: &RData) {
        match rdata {
            RData::A(ip) => self.buf.put_slice(&ip.octets()),
            RData::Aaaa(ip) => self.buf.put_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => self.put_name(n),
            RData::Soa(soa) => {
                self.put_name(&soa.mname);
                self.put_name(&soa.rname);
                self.buf.put_u32(soa.serial);
                self.buf.put_u32(soa.refresh);
                self.buf.put_u32(soa.retry);
                self.buf.put_u32(soa.expire);
                self.buf.put_u32(soa.minimum);
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                self.buf.put_u16(*preference);
                self.put_name(exchange);
            }
            RData::Txt(strings) => {
                for s in strings {
                    let bytes = s.as_bytes();
                    let chunk = &bytes[..bytes.len().min(255)];
                    self.buf.put_u8(chunk.len() as u8);
                    self.buf.put_slice(chunk);
                }
            }
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => {
                self.buf.put_u16(*priority);
                self.buf.put_u16(*weight);
                self.buf.put_u16(*port);
                self.put_name(target);
            }
            RData::Opaque(bytes) => self.buf.put_slice(bytes),
        }
    }
}

/// Encodes a message to wire bytes.
pub fn encode(message: &Message) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.buf.put_u16(message.id);
    let mut flags: u16 = 0;
    if message.flags.qr {
        flags |= 1 << 15;
    }
    flags |= (message.opcode.code() as u16) << 11;
    if message.flags.aa {
        flags |= 1 << 10;
    }
    if message.flags.tc {
        flags |= 1 << 9;
    }
    if message.flags.rd {
        flags |= 1 << 8;
    }
    if message.flags.ra {
        flags |= 1 << 7;
    }
    flags |= message.rcode.code() as u16;
    enc.buf.put_u16(flags);
    enc.buf.put_u16(message.questions.len() as u16);
    enc.buf.put_u16(message.answers.len() as u16);
    enc.buf.put_u16(message.authority.len() as u16);
    enc.buf.put_u16(message.additional.len() as u16);
    for q in &message.questions {
        enc.put_question(q);
    }
    for r in &message.answers {
        enc.put_record(r);
    }
    for r in &message.authority {
        enc.put_record(r);
    }
    for r in &message.additional {
        enc.put_record(r);
    }
    enc.buf.to_vec()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder { data, pos: 0 }
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take_u16(&mut self) -> Result<u16, WireError> {
        let hi = self.take_u8()? as u16;
        let lo = self.take_u8()? as u16;
        Ok((hi << 8) | lo)
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        let hi = self.take_u16()? as u32;
        let lo = self.take_u16()? as u32;
        Ok((hi << 16) | lo)
    }

    fn take_slice(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        if end > self.data.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Decodes a possibly-compressed name starting at the current position.
    fn take_name(&mut self) -> Result<DnsName, WireError> {
        let mut labels: Vec<Label> = Vec::new();
        let mut wire_len = 1usize; // terminating root octet
        let mut jumps = 0usize;
        // `cursor` walks the name; `self.pos` only advances through the
        // in-line portion (up to and including the first pointer).
        let mut cursor = self.pos;
        let mut followed_pointer = false;
        loop {
            let len_byte = *self.data.get(cursor).ok_or(WireError::Truncated)?;
            match len_byte & 0xC0 {
                0x00 => {
                    if !followed_pointer {
                        self.pos = cursor + 1;
                    }
                    if len_byte == 0 {
                        if !followed_pointer {
                            self.pos = cursor + 1;
                        }
                        break;
                    }
                    let len = len_byte as usize;
                    let end = cursor + 1 + len;
                    if end > self.data.len() {
                        return Err(WireError::Truncated);
                    }
                    wire_len += len + 1;
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    let label =
                        Label::new(&self.data[cursor + 1..end]).map_err(|_| WireError::BadLabel)?;
                    labels.push(label);
                    cursor = end;
                    if !followed_pointer {
                        self.pos = cursor;
                    }
                }
                0xC0 => {
                    let second = *self.data.get(cursor + 1).ok_or(WireError::Truncated)?;
                    let target = (((len_byte & 0x3F) as usize) << 8) | second as usize;
                    if target >= cursor {
                        return Err(WireError::BadPointer { at: cursor, target });
                    }
                    jumps += 1;
                    if jumps > MAX_POINTER_JUMPS {
                        return Err(WireError::PointerLoop);
                    }
                    if !followed_pointer {
                        self.pos = cursor + 2;
                        followed_pointer = true;
                    }
                    cursor = target;
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }
        DnsName::from_labels(labels).map_err(|_| WireError::NameTooLong)
    }

    fn take_question(&mut self) -> Result<Question, WireError> {
        let name = self.take_name()?;
        let qtype = RrType::from_code(self.take_u16()?);
        let qclass = RrClass::from_code(self.take_u16()?);
        Ok(Question {
            name,
            qtype,
            qclass,
        })
    }

    fn take_record(&mut self) -> Result<Record, WireError> {
        let name = self.take_name()?;
        let rtype = RrType::from_code(self.take_u16()?);
        let class = RrClass::from_code(self.take_u16()?);
        let ttl = self.take_u32()?;
        let rd_len = self.take_u16()? as usize;
        let rd_end = self.pos.checked_add(rd_len).ok_or(WireError::Truncated)?;
        if rd_end > self.data.len() {
            return Err(WireError::Truncated);
        }
        let rdata = self.take_rdata(rtype, rd_end)?;
        if self.pos != rd_end {
            return Err(WireError::BadRdataLength { rtype });
        }
        Ok(Record {
            name,
            rtype,
            class,
            ttl,
            rdata,
        })
    }

    fn take_rdata(&mut self, rtype: RrType, rd_end: usize) -> Result<RData, WireError> {
        let rd_len = rd_end - self.pos;
        let rdata = match rtype {
            RrType::A => {
                let octets = self
                    .take_slice(4)
                    .map_err(|_| WireError::BadRdataLength { rtype })?;
                RData::A(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
            }
            RrType::Aaaa => {
                let octets = self
                    .take_slice(16)
                    .map_err(|_| WireError::BadRdataLength { rtype })?;
                let mut segments = [0u8; 16];
                segments.copy_from_slice(octets);
                RData::Aaaa(Ipv6Addr::from(segments))
            }
            RrType::Ns => RData::Ns(self.take_name()?),
            RrType::Cname => RData::Cname(self.take_name()?),
            RrType::Ptr => RData::Ptr(self.take_name()?),
            RrType::Soa => {
                let mname = self.take_name()?;
                let rname = self.take_name()?;
                RData::Soa(Soa {
                    mname,
                    rname,
                    serial: self.take_u32()?,
                    refresh: self.take_u32()?,
                    retry: self.take_u32()?,
                    expire: self.take_u32()?,
                    minimum: self.take_u32()?,
                })
            }
            RrType::Mx => {
                let preference = self.take_u16()?;
                let exchange = self.take_name()?;
                RData::Mx {
                    preference,
                    exchange,
                }
            }
            RrType::Txt => {
                let mut strings = Vec::new();
                while self.pos < rd_end {
                    let len = self.take_u8()? as usize;
                    if self.pos + len > rd_end {
                        return Err(WireError::BadRdataLength { rtype });
                    }
                    let bytes = self.take_slice(len)?;
                    strings.push(String::from_utf8_lossy(bytes).into_owned());
                }
                RData::Txt(strings)
            }
            RrType::Srv => {
                let priority = self.take_u16()?;
                let weight = self.take_u16()?;
                let port = self.take_u16()?;
                let target = self.take_name()?;
                RData::Srv {
                    priority,
                    weight,
                    port,
                    target,
                }
            }
            _ => RData::Opaque(self.take_slice(rd_len)?.to_vec()),
        };
        Ok(rdata)
    }
}

/// Decodes a message from wire bytes. Rejects trailing garbage.
pub fn decode(data: &[u8]) -> Result<Message, WireError> {
    let mut dec = Decoder::new(data);
    let id = dec.take_u16()?;
    let flag_bits = dec.take_u16()?;
    let flags = Flags {
        qr: flag_bits & (1 << 15) != 0,
        aa: flag_bits & (1 << 10) != 0,
        tc: flag_bits & (1 << 9) != 0,
        rd: flag_bits & (1 << 8) != 0,
        ra: flag_bits & (1 << 7) != 0,
    };
    let opcode = Opcode::from_code(((flag_bits >> 11) & 0x0F) as u8);
    let rcode = Rcode::from_code((flag_bits & 0x0F) as u8);
    let qd = dec.take_u16()? as usize;
    let an = dec.take_u16()? as usize;
    let ns = dec.take_u16()? as usize;
    let ar = dec.take_u16()? as usize;

    let mut questions = Vec::with_capacity(qd.min(32));
    for _ in 0..qd {
        questions.push(dec.take_question()?);
    }
    let mut answers = Vec::with_capacity(an.min(64));
    for _ in 0..an {
        answers.push(dec.take_record()?);
    }
    let mut authority = Vec::with_capacity(ns.min(64));
    for _ in 0..ns {
        authority.push(dec.take_record()?);
    }
    let mut additional = Vec::with_capacity(ar.min(64));
    for _ in 0..ar {
        additional.push(dec.take_record()?);
    }
    if dec.pos != data.len() {
        return Err(WireError::TrailingBytes(data.len() - dec.pos));
    }
    Ok(Message {
        id,
        flags,
        opcode,
        rcode,
        questions,
        answers,
        authority,
        additional,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;

    fn sample_message() -> Message {
        let q = Message::query(0x1234, Question::new(name("www.cs.cornell.edu"), RrType::A));
        let mut m = Message::response_to(&q);
        m.flags.aa = true;
        m.answers.push(Record::new(
            name("www.cs.cornell.edu"),
            3600,
            RData::A(Ipv4Addr::new(128, 84, 154, 137)),
        ));
        m.authority.push(Record::new(
            name("cs.cornell.edu"),
            7200,
            RData::Ns(name("simon.cs.cornell.edu")),
        ));
        m.authority.push(Record::new(
            name("cs.cornell.edu"),
            7200,
            RData::Ns(name("dns.cs.wisc.edu")),
        ));
        m.additional.push(Record::new(
            name("simon.cs.cornell.edu"),
            7200,
            RData::A(Ipv4Addr::new(128, 84, 96, 10)),
        ));
        m
    }

    #[test]
    fn round_trip_basic() {
        let m = sample_message();
        let bytes = encode(&m);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn compression_shrinks_output() {
        let m = sample_message();
        let with = encode(&m).len();
        // A naive upper bound: every name written in full.
        let naive: usize = m
            .questions
            .iter()
            .map(|q| q.name.wire_len() + 4)
            .chain(
                m.answers
                    .iter()
                    .chain(&m.authority)
                    .chain(&m.additional)
                    .map(|r| r.name.wire_len() + 10 + 64),
            )
            .sum::<usize>()
            + 12;
        assert!(with < naive, "compressed {with} >= naive bound {naive}");
        // The suffix "cs.cornell.edu" should only appear once in the bytes.
        let bytes = encode(&m);
        let needle = b"\x02cs\x07cornell\x03edu";
        let count = bytes.windows(needle.len()).filter(|w| *w == needle).count();
        assert_eq!(count, 1, "suffix must be emitted exactly once");
    }

    #[test]
    fn round_trip_all_rdata_types() {
        let q = Message::query(9, Question::new(name("t.example"), RrType::Any));
        let mut m = Message::response_to(&q);
        m.answers.push(Record::new(
            name("t.example"),
            1,
            RData::A(Ipv4Addr::new(10, 1, 2, 3)),
        ));
        m.answers.push(Record::new(
            name("t.example"),
            1,
            RData::Aaaa("2001:db8::1".parse().unwrap()),
        ));
        m.answers.push(Record::new(
            name("t.example"),
            1,
            RData::Ns(name("ns.t.example")),
        ));
        m.answers.push(Record::new(
            name("alias.t.example"),
            1,
            RData::Cname(name("t.example")),
        ));
        m.answers.push(Record::new(
            name("t.example"),
            1,
            RData::Ptr(name("host.t.example")),
        ));
        m.answers.push(Record::new(
            name("t.example"),
            1,
            RData::Soa(Soa::synthetic(name("ns.t.example"), 42)),
        ));
        m.answers.push(Record::new(
            name("t.example"),
            1,
            RData::Mx {
                preference: 10,
                exchange: name("mx.t.example"),
            },
        ));
        m.answers.push(Record::new(
            name("t.example"),
            1,
            RData::Txt(vec!["hello".into(), "world".into()]),
        ));
        m.answers.push(Record::new(
            name("_sip._udp.t.example"),
            1,
            RData::Srv {
                priority: 1,
                weight: 2,
                port: 5060,
                target: name("sip.t.example"),
            },
        ));
        m.answers.push(Record::opaque(
            name("t.example"),
            RrType::Unknown(999),
            RrClass::In,
            1,
            vec![1, 2, 3],
        ));
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn empty_txt_and_root_name() {
        let q = Message::query(1, Question::new(DnsName::root(), RrType::Ns));
        let mut m = Message::response_to(&q);
        m.answers
            .push(Record::new(DnsName::root(), 1, RData::Txt(vec![])));
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        let bytes = encode(&sample_message());
        for cut in [0, 1, 5, 11, 12, 13, bytes.len() - 1] {
            let result = decode(&bytes[..cut]);
            assert!(result.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn every_prefix_is_handled_without_panic() {
        let bytes = encode(&sample_message());
        for cut in 0..bytes.len() {
            let _ = decode(&bytes[..cut]); // must not panic
        }
    }

    #[test]
    fn forward_pointer_rejected() {
        // Header + one question whose name is a pointer to itself.
        let mut bytes = vec![0u8; 12];
        bytes[5] = 1; // qdcount = 1
        bytes.extend_from_slice(&[0xC0, 12]); // pointer to offset 12 (itself)
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(decode(&bytes), Err(WireError::BadPointer { .. })));
    }

    #[test]
    fn pointer_chain_depth_is_bounded() {
        // Build a long chain of backwards pointers; each one is valid
        // individually but the chain exceeds the jump budget.
        let mut bytes = vec![0u8; 12];
        bytes[5] = 1; // qdcount = 1
        let base = bytes.len();
        // First entry: a real (empty) name at `base`.
        bytes.push(0);
        // 100 chained pointers each pointing at the previous pointer.
        let mut prev = base;
        for _ in 0..100 {
            let here = bytes.len();
            bytes.extend_from_slice(&[0xC0 | ((prev >> 8) as u8), (prev & 0xFF) as u8]);
            prev = here;
        }
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(err, WireError::PointerLoop | WireError::TrailingBytes(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&sample_message());
        bytes.push(0xAB);
        assert_eq!(decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn rdata_length_mismatch_rejected() {
        let q = Message::query(5, Question::new(name("a.b"), RrType::A));
        let mut m = Message::response_to(&q);
        m.answers
            .push(Record::new(name("a.b"), 1, RData::A(Ipv4Addr::LOCALHOST)));
        let mut bytes = encode(&m);
        // Find the RDLENGTH of the A record (4) and inflate it.
        let pos = bytes.len() - 6; // ...RDLENGTH(2) RDATA(4)
        assert_eq!(u16::from_be_bytes([bytes[pos], bytes[pos + 1]]), 4);
        bytes[pos + 1] = 3;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn flags_round_trip_exhaustively() {
        for bits in 0..32u8 {
            let mut m = Message::query(1, Question::new(name("f.test"), RrType::A));
            m.flags = Flags {
                qr: bits & 1 != 0,
                aa: bits & 2 != 0,
                tc: bits & 4 != 0,
                rd: bits & 8 != 0,
                ra: bits & 16 != 0,
            };
            m.rcode = Rcode::Refused;
            m.opcode = Opcode::Status;
            let decoded = decode(&encode(&m)).unwrap();
            assert_eq!(decoded.flags, m.flags);
            assert_eq!(decoded.rcode, m.rcode);
            assert_eq!(decoded.opcode, m.opcode);
        }
    }

    #[test]
    fn decoding_is_case_preserving_but_compression_case_insensitive() {
        let q = Message::query(2, Question::new(name("WWW.Example.COM"), RrType::A));
        let mut m = Message::response_to(&q);
        m.answers.push(Record::new(
            name("www.example.com"),
            60,
            RData::A(Ipv4Addr::new(1, 1, 1, 1)),
        ));
        let bytes = encode(&m);
        let decoded = decode(&bytes).unwrap();
        // Names are equal case-insensitively.
        assert_eq!(decoded.answers[0].name, m.questions[0].name);
    }
}
