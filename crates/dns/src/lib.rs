//! DNS substrate for the *Perils of Transitive Trust* reproduction.
//!
//! This crate implements the parts of the Domain Name System the paper's
//! measurement methodology rests on, from scratch:
//!
//! * [`name`] — domain names and labels (RFC 1035 §2.3.1, §3.1), with
//!   case-insensitive comparison and ancestor/subdomain arithmetic;
//! * [`rr`] — record types, classes, and typed RDATA (A, NS, SOA, CNAME,
//!   MX, TXT, AAAA, SRV, PTR);
//! * [`message`] — query/response messages, header flags and rcodes
//!   (RFC 1035 §4.1), passed between simulated hosts as values: no
//!   message is ever encoded to bytes;
//! * [`zone`] — authoritative zones with delegation cuts, glue, wildcards,
//!   the [`zone::ZoneRegistry`] that models an entire namespace, and the
//!   [`zone::ZoneEvent`] stream abstraction for incremental ingestion;
//! * [`master`] — the RFC 1035 §5 master-file (zone file) reader,
//!   [`master::ZoneFileEvents`], which streams a file as zone events.
//!
//! The crate is IO-free: transport lives in `perils-netsim`, and server
//! behaviour in `perils-authserver`.

#![forbid(unsafe_code)]

pub mod master;
pub mod message;
pub mod name;
pub mod rr;
pub mod zone;

pub use master::ZoneFileEvents;
pub use message::{Flags, Message, Question, Rcode};
pub use name::{DnsName, Label, NameError};
pub use rr::{RData, Record, RrClass, RrType, Soa};
pub use zone::{Zone, ZoneEvent, ZoneLookup, ZoneRegistry};
