//! Resource records: types, classes, and typed RDATA (RFC 1035 §3.2, §3.3).

use crate::name::DnsName;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Resource record types.
///
/// The set covers what the survey methodology needs (A/NS/SOA/CNAME for
/// delegation walking, TXT for CHAOS `version.bind` fingerprinting) plus the
/// common types a general-purpose library is expected to carry. Every
/// type but [`RrType::Any`] has typed RDATA ([`RData::rr_type`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RrType {
    /// IPv4 host address.
    A,
    /// Authoritative nameserver.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer (reverse mapping).
    Ptr,
    /// Mail exchange.
    Mx,
    /// Text strings (also carries `version.bind` answers).
    Txt,
    /// IPv6 host address.
    Aaaa,
    /// Service locator.
    Srv,
    /// Query-only: any type.
    Any,
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrType::A => write!(f, "A"),
            RrType::Ns => write!(f, "NS"),
            RrType::Cname => write!(f, "CNAME"),
            RrType::Soa => write!(f, "SOA"),
            RrType::Ptr => write!(f, "PTR"),
            RrType::Mx => write!(f, "MX"),
            RrType::Txt => write!(f, "TXT"),
            RrType::Aaaa => write!(f, "AAAA"),
            RrType::Srv => write!(f, "SRV"),
            RrType::Any => write!(f, "ANY"),
        }
    }
}

/// Record classes. `CH` (CHAOS) matters here: `version.bind` fingerprinting
/// is a TXT query in class CH (the technique the paper's survey used).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrClass {
    /// The Internet.
    In,
    /// CHAOS — used for server version/identity queries.
    Ch,
    /// Query-only: any class.
    Any,
}

impl fmt::Display for RrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrClass::In => write!(f, "IN"),
            RrClass::Ch => write!(f, "CH"),
            RrClass::Any => write!(f, "ANY"),
        }
    }
}

/// SOA RDATA (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Soa {
    /// Primary master server name.
    pub mname: DnsName,
    /// Responsible mailbox, encoded as a name.
    pub rname: DnsName,
    /// Zone serial number.
    pub serial: u32,
    /// Secondary refresh interval (seconds).
    pub refresh: u32,
    /// Retry interval (seconds).
    pub retry: u32,
    /// Expiry upper bound (seconds).
    pub expire: u32,
    /// Negative-caching TTL (RFC 2308 reading of `minimum`).
    pub minimum: u32,
}

impl Soa {
    /// A reasonable default SOA for generated zones.
    pub fn synthetic(mname: DnsName, serial: u32) -> Soa {
        Soa {
            rname: mname
                .prepend("hostmaster")
                .unwrap_or_else(|_| mname.clone()),
            mname,
            serial,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 3600,
        }
    }
}

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Nameserver host name.
    Ns(DnsName),
    /// Alias target.
    Cname(DnsName),
    /// Pointer target.
    Ptr(DnsName),
    /// Start of authority.
    Soa(Soa),
    /// Mail exchange: preference and exchanger host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// Mail host name.
        exchange: DnsName,
    },
    /// One or more character strings.
    Txt(Vec<String>),
    /// Service record: priority, weight, port, target.
    Srv {
        /// Lower is tried first.
        priority: u16,
        /// Load-balancing weight.
        weight: u16,
        /// Service port.
        port: u16,
        /// Target host name.
        target: DnsName,
    },
}

impl RData {
    /// The record type this RDATA belongs to.
    pub fn rr_type(&self) -> RrType {
        match self {
            RData::A(_) => RrType::A,
            RData::Aaaa(_) => RrType::Aaaa,
            RData::Ns(_) => RrType::Ns,
            RData::Cname(_) => RrType::Cname,
            RData::Ptr(_) => RrType::Ptr,
            RData::Soa(_) => RrType::Soa,
            RData::Mx { .. } => RrType::Mx,
            RData::Txt(_) => RrType::Txt,
            RData::Srv { .. } => RrType::Srv,
        }
    }
}

/// A resource record. Its type is its RDATA's ([`Record::rtype`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name.
    pub name: DnsName,
    /// Record class.
    pub class: RrClass,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed payload.
    pub rdata: RData,
}

impl Record {
    /// Builds an IN-class record.
    pub fn new(name: DnsName, ttl: u32, rdata: RData) -> Record {
        Record {
            name,
            class: RrClass::In,
            ttl,
            rdata,
        }
    }

    /// The record type, which its RDATA determines.
    pub fn rtype(&self) -> RrType {
        self.rdata.rr_type()
    }

    /// Builds the CHAOS-class TXT record answering `version.bind.`.
    pub fn version_banner(banner: &str) -> Record {
        Record {
            name: DnsName::from_ascii("version.bind").expect("static name"),
            class: RrClass::Ch,
            ttl: 0,
            rdata: RData::Txt(vec![banner.to_string()]),
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} ",
            self.name,
            self.ttl,
            self.class,
            self.rtype()
        )?;
        match &self.rdata {
            RData::A(ip) => write!(f, "{ip}"),
            RData::Aaaa(ip) => write!(f, "{ip}"),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => write!(f, "{n}."),
            RData::Soa(soa) => write!(
                f,
                "{}. {}. {} {} {} {} {}",
                soa.mname, soa.rname, soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum
            ),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}."),
            RData::Txt(strings) => {
                for (i, s) in strings.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))?;
                }
                Ok(())
            }
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => {
                write!(f, "{priority} {weight} {port} {target}.")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;

    #[test]
    fn record_new_derives_type() {
        let r = Record::new(
            name("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(10, 0, 0, 1)),
        );
        assert_eq!(r.rtype(), RrType::A);
        assert_eq!(r.class, RrClass::In);
    }

    #[test]
    fn version_banner_is_chaos_txt() {
        let r = Record::version_banner("BIND 8.2.4");
        assert_eq!(r.class, RrClass::Ch);
        assert_eq!(r.rtype(), RrType::Txt);
        assert_eq!(r.name, name("version.bind"));
        assert_eq!(r.rdata, RData::Txt(vec!["BIND 8.2.4".to_string()]));
    }

    #[test]
    fn display_formats() {
        let r = Record::new(name("example.com"), 60, RData::Ns(name("ns1.example.net")));
        assert_eq!(r.to_string(), "example.com 60 IN NS ns1.example.net.");
        let t = Record::new(name("example.com"), 60, RData::Txt(vec!["he\"llo".into()]));
        assert!(t.to_string().contains("\"he\\\"llo\""));
    }

    #[test]
    fn synthetic_soa_fields() {
        let soa = Soa::synthetic(name("ns1.example.com"), 2004072201);
        assert_eq!(soa.mname, name("ns1.example.com"));
        assert_eq!(soa.rname, name("hostmaster.ns1.example.com"));
        assert!(soa.minimum > 0);
    }
}
