//! DNS substrate for the *Perils of Transitive Trust* reproduction.
//!
//! This crate implements the parts of the Domain Name System the paper's
//! measurement methodology rests on, from scratch:
//!
//! * [`name`] — domain names and labels (RFC 1035 §2.3.1, §3.1), with
//!   case-insensitive comparison and ancestor/subdomain arithmetic;
//! * [`rr`] — record types, classes, and typed RDATA (A, NS, SOA, CNAME,
//!   MX, TXT, AAAA, SRV, PTR, …);
//! * [`message`] — query/response messages, header flags, opcodes, rcodes
//!   (RFC 1035 §4.1);
//! * [`wire`] — the full binary wire format with name compression
//!   (RFC 1035 §4.1.4), bounds-checked and property tested;
//! * [`zone`] — authoritative zones with delegation cuts, glue, wildcards,
//!   the [`zone::ZoneRegistry`] that models an entire namespace, and the
//!   [`zone::ZoneEvent`] stream abstraction for incremental ingestion;
//! * [`master`] — RFC 1035 §5 master-file (zone file) parser, plus the
//!   zone-file-backed [`master::ZoneFileEvents`] event iterator.
//!
//! The crate is IO-free: transport lives in `perils-netsim`, and server
//! behaviour in `perils-authserver`.

#![forbid(unsafe_code)]

pub mod master;
pub mod message;
pub mod name;
pub mod rr;
pub mod wire;
pub mod zone;

pub use master::ZoneFileEvents;
pub use message::{Flags, Message, Opcode, Question, Rcode};
pub use name::{DnsName, Label, NameError};
pub use rr::{RData, Record, RrClass, RrType, Soa};
pub use zone::{Zone, ZoneEvent, ZoneLookup, ZoneRegistry};
