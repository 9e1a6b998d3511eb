//! Authoritative zones and the registry that models a whole namespace.
//!
//! A [`Zone`] holds the records of one contiguous region of the namespace and
//! knows where its authority ends: NS records owned by a name *below* the
//! apex constitute a **zone cut** and turn every query at or beneath that
//! name into a referral (RFC 1034 §4.2.1, §4.3.2). Address records sitting
//! under a cut are retained as **glue** and attached to referrals.
//!
//! A [`ZoneRegistry`] is the set of all zones in a simulated internet. It is
//! the single source of truth that the authoritative servers serve from and
//! that the structural delegation-graph analysis (in `perils-core`) reads
//! directly. Determinism note: zones and names iterate in sorted order so
//! the same registry always produces the same analysis.

use crate::name::{DnsName, Label};
use crate::rr::{RData, Record, RrType, Soa};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Errors when mutating a zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneError {
    /// The record's owner name is not at or below the zone origin.
    OutOfZone {
        /// The offending owner name.
        name: DnsName,
        /// This zone's origin.
        origin: DnsName,
    },
    /// A non-NS, non-address record was added below an existing zone cut.
    BelowZoneCut {
        /// The offending owner name.
        name: DnsName,
        /// The cut that owns it.
        cut: DnsName,
    },
    /// A CNAME cannot coexist with other data at the same owner.
    CnameConflict(DnsName),
}

impl fmt::Display for ZoneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZoneError::OutOfZone { name, origin } => {
                write!(f, "{name} is outside zone {origin}")
            }
            ZoneError::BelowZoneCut { name, cut } => {
                write!(f, "{name} lies below the zone cut at {cut}")
            }
            ZoneError::CnameConflict(name) => {
                write!(f, "CNAME at {name} conflicts with other data")
            }
        }
    }
}

impl std::error::Error for ZoneError {}

/// Result of looking a name up in one zone (RFC 1034 §4.3.2 outcomes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneLookup {
    /// Authoritative records answering the query.
    Answer(Vec<Record>),
    /// The owner exists and has a CNAME; the caller should chase `target`.
    Cname {
        /// The CNAME record itself.
        record: Record,
        /// Its target, for convenience.
        target: DnsName,
    },
    /// The query falls below a zone cut: here are the delegation NS records
    /// and any glue addresses this zone holds.
    Referral {
        /// Owner of the cut.
        cut: DnsName,
        /// NS records at the cut.
        ns_records: Vec<Record>,
        /// A/AAAA glue for in-zone nameserver names.
        glue: Vec<Record>,
    },
    /// The owner exists (possibly as an empty non-terminal) but has no data
    /// of the requested type.
    NoData,
    /// The owner does not exist in this zone.
    NxDomain,
}

/// One incremental observation from a zone-data feed.
///
/// A `ZoneEvent` is the unit of **streaming ingestion**: instead of
/// materializing whole [`Zone`]s before any analysis can start, a zone
/// file is read by [`crate::master::ZoneFileEvents`], which emits its
/// delegation structure one record at a time. (A materialized
/// [`ZoneRegistry`] enters the universe through `perils_core`'s
/// `registry_events`, not through this type.) Events are designed to be
/// order-insensitive under merging: NS sets may arrive fragmented across
/// many [`ZoneEvent::Cut`]s for the same zone (consumers union them), and
/// glue may precede or follow the cut that references it.
/// `perils_core`'s universe builder is the canonical consumer; it models
/// structure, not addresses, so it interns cuts and drops glue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneEvent {
    /// `zone` is served by the `ns` hosts — an apex NS set or a
    /// parent-side delegation cut, possibly only a fragment of the full
    /// NS set (zone files yield one event per NS record).
    Cut {
        /// The delegated zone's origin.
        zone: DnsName,
        /// NS host names observed for it (union with prior events).
        ns: Vec<DnsName>,
    },
    /// An IPv4 address observed for `host` — authoritative or glue under
    /// a cut. Carried for address-aware consumers; the structural
    /// analysis needs only the cuts.
    Glue {
        /// The host the address belongs to.
        host: DnsName,
        /// The observed address.
        addr: Ipv4Addr,
    },
}

/// One authoritative zone.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: DnsName,
    soa: Soa,
    default_ttl: u32,
    /// Owner name → type → records. Sorted for deterministic iteration.
    records: BTreeMap<DnsName, BTreeMap<RrType, Vec<Record>>>,
    /// Zone cuts (names strictly below the origin owning NS records),
    /// kept sorted.
    cuts: BTreeMap<DnsName, ()>,
}

impl Zone {
    /// Creates an empty zone with the given origin and SOA.
    pub fn new(origin: DnsName, soa: Soa) -> Zone {
        let mut zone = Zone {
            origin: origin.clone(),
            soa: soa.clone(),
            default_ttl: 3600,
            records: BTreeMap::new(),
            cuts: BTreeMap::new(),
        };
        let soa_record = Record::new(origin, zone.default_ttl, RData::Soa(soa));
        zone.records
            .entry(soa_record.name.clone())
            .or_default()
            .entry(RrType::Soa)
            .or_default()
            .push(soa_record);
        zone
    }

    /// Convenience constructor with a synthetic SOA.
    pub fn synthetic(origin: DnsName, primary_ns: DnsName) -> Zone {
        Zone::new(origin, Soa::synthetic(primary_ns, 20040722))
    }

    /// The zone origin (apex name).
    pub fn origin(&self) -> &DnsName {
        &self.origin
    }

    /// The zone's SOA.
    pub fn soa(&self) -> &Soa {
        &self.soa
    }

    /// Adds a record, enforcing zone invariants.
    ///
    /// NS records below the apex create a zone cut. Address records below a
    /// cut are accepted as glue; anything else below a cut is rejected.
    pub fn add(&mut self, record: Record) -> Result<(), ZoneError> {
        if !record.name.is_subdomain_of(&self.origin) {
            return Err(ZoneError::OutOfZone {
                name: record.name,
                origin: self.origin.clone(),
            });
        }
        let rtype = record.rtype();
        if let Some(cut) = self.covering_cut(&record.name) {
            let is_glue = matches!(rtype, RrType::A | RrType::Aaaa);
            let is_cut_ns = rtype == RrType::Ns && record.name == cut;
            if !is_glue && !is_cut_ns {
                return Err(ZoneError::BelowZoneCut {
                    name: record.name,
                    cut,
                });
            }
        }
        let node = self.records.entry(record.name.clone()).or_default();
        let has_cname = node.contains_key(&RrType::Cname);
        let has_other = node.keys().any(|t| *t != RrType::Cname);
        if rtype == RrType::Cname && has_other {
            return Err(ZoneError::CnameConflict(record.name));
        }
        if rtype != RrType::Cname && has_cname {
            return Err(ZoneError::CnameConflict(record.name));
        }
        if rtype == RrType::Ns && record.name != self.origin {
            self.cuts.insert(record.name.clone(), ());
        }
        node.entry(rtype).or_default().push(record);
        Ok(())
    }

    /// Adds a record built from parts (IN class, default TTL).
    pub fn add_rdata(&mut self, name: DnsName, rdata: RData) -> Result<(), ZoneError> {
        self.add(Record::new(name, self.default_ttl, rdata))
    }

    /// The deepest zone cut at or above `name` (strictly below the apex),
    /// if any. A name *at* a cut is governed by the cut.
    fn covering_cut(&self, name: &DnsName) -> Option<DnsName> {
        name.ancestors()
            .find(|a| a.is_proper_subdomain_of(&self.origin) && self.cuts.contains_key(a))
    }

    /// True if `name` exists in the zone, counting empty non-terminals.
    fn name_exists(&self, name: &DnsName) -> bool {
        if self.records.contains_key(name) {
            return true;
        }
        // An empty non-terminal exists if any stored owner lies beneath it.
        // (Owners are ordered leftmost-label-first, so subdomains are not
        // contiguous in the map; a scan is required and zones are small.)
        self.records
            .keys()
            .any(|owner| owner.is_proper_subdomain_of(name))
    }

    /// Looks up `name`/`rtype` per RFC 1034 §4.3.2 within this zone only.
    pub fn lookup(&self, name: &DnsName, rtype: RrType) -> ZoneLookup {
        if !name.is_subdomain_of(&self.origin) {
            return ZoneLookup::NxDomain;
        }
        // Step: referral if the name sits at or below a cut.
        if let Some(cut) = self.covering_cut(name) {
            let ns_records = self
                .records
                .get(&cut)
                .and_then(|node| node.get(&RrType::Ns))
                .cloned()
                .unwrap_or_default();
            let glue = self.glue_for_ns_set(&ns_records);
            return ZoneLookup::Referral {
                cut,
                ns_records,
                glue,
            };
        }
        // Exact match.
        if let Some(node) = self.records.get(name) {
            if let Some(matched) = Self::node_lookup(node, rtype) {
                return matched;
            }
            return ZoneLookup::NoData;
        }
        // Wildcard: find the closest encloser, then try `*` beneath it.
        let mut candidate = name.parent();
        while let Some(ancestor) = candidate {
            if !ancestor.is_subdomain_of(&self.origin) {
                break;
            }
            let star = ancestor
                .child(Label::new(b"*").expect("static label"))
                .expect("wildcard name fits");
            if let Some(node) = self.records.get(&star) {
                if let Some(matched) = Self::node_lookup(node, rtype) {
                    // Synthesize owner names on the wildcard match.
                    return match matched {
                        ZoneLookup::Answer(records) => ZoneLookup::Answer(
                            records
                                .into_iter()
                                .map(|mut r| {
                                    r.name = name.clone();
                                    r
                                })
                                .collect(),
                        ),
                        ZoneLookup::Cname { mut record, target } => {
                            record.name = name.clone();
                            ZoneLookup::Cname { record, target }
                        }
                        other => other,
                    };
                }
                return ZoneLookup::NoData;
            }
            if self.name_exists(&ancestor) {
                // Closest encloser exists without a wildcard child: stop.
                break;
            }
            candidate = ancestor.parent();
        }
        if self.name_exists(name) {
            ZoneLookup::NoData
        } else {
            ZoneLookup::NxDomain
        }
    }

    fn node_lookup(node: &BTreeMap<RrType, Vec<Record>>, rtype: RrType) -> Option<ZoneLookup> {
        if rtype == RrType::Any {
            let all: Vec<Record> = node.values().flatten().cloned().collect();
            return if all.is_empty() {
                None
            } else {
                Some(ZoneLookup::Answer(all))
            };
        }
        if let Some(records) = node.get(&rtype) {
            if !records.is_empty() {
                return Some(ZoneLookup::Answer(records.clone()));
            }
        }
        if rtype != RrType::Cname {
            if let Some(cnames) = node.get(&RrType::Cname) {
                if let Some(record) = cnames.first() {
                    if let RData::Cname(target) = &record.rdata {
                        return Some(ZoneLookup::Cname {
                            record: record.clone(),
                            target: target.clone(),
                        });
                    }
                }
            }
        }
        None
    }

    /// A/AAAA records in this zone for the NS names in `ns_records`.
    fn glue_for_ns_set(&self, ns_records: &[Record]) -> Vec<Record> {
        let mut glue = Vec::new();
        for ns in ns_records {
            if let RData::Ns(host) = &ns.rdata {
                if let Some(node) = self.records.get(host) {
                    for t in [RrType::A, RrType::Aaaa] {
                        if let Some(records) = node.get(&t) {
                            glue.extend(records.iter().cloned());
                        }
                    }
                }
            }
        }
        glue
    }

    /// The NS host names at the zone apex.
    pub fn apex_ns_names(&self) -> Vec<DnsName> {
        self.ns_names_at(&self.origin)
    }

    /// The NS host names at `owner` (apex or a cut).
    pub fn ns_names_at(&self, owner: &DnsName) -> Vec<DnsName> {
        self.records
            .get(owner)
            .and_then(|node| node.get(&RrType::Ns))
            .map(|records| {
                records
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Ns(host) => Some(host.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Iterates over the zone cuts (delegated child apexes), sorted.
    pub fn cut_names(&self) -> impl Iterator<Item = &DnsName> {
        self.cuts.keys()
    }

    /// Iterates every record in the zone in sorted owner order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records
            .values()
            .flat_map(|node| node.values().flatten())
    }
}

/// The set of all zones in a simulated namespace.
///
/// # Examples
///
/// ```
/// use perils_dns::{ZoneRegistry, Zone, RData};
/// use perils_dns::name::name;
///
/// let mut registry = ZoneRegistry::new();
/// let mut root = Zone::synthetic(name("."), name("a.root-servers.net"));
/// root.add_rdata(name("."), RData::Ns(name("a.root-servers.net"))).unwrap();
/// registry.insert(root);
/// assert!(registry.get(&name(".")).unwrap().origin().is_root());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ZoneRegistry {
    zones: BTreeMap<DnsName, Zone>,
}

impl ZoneRegistry {
    /// Creates an empty registry.
    pub fn new() -> ZoneRegistry {
        ZoneRegistry::default()
    }

    /// Inserts (or replaces) a zone, keyed by its origin.
    pub fn insert(&mut self, zone: Zone) {
        self.zones.insert(zone.origin().clone(), zone);
    }

    /// The zone with exactly this origin.
    pub fn get(&self, origin: &DnsName) -> Option<&Zone> {
        self.zones.get(origin)
    }

    /// Mutable access to a zone by origin.
    pub fn get_mut(&mut self, origin: &DnsName) -> Option<&mut Zone> {
        self.zones.get_mut(origin)
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// True when no zones are registered.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Iterates zones in sorted origin order.
    pub fn iter(&self) -> impl Iterator<Item = &Zone> {
        self.zones.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;

    fn example_zone() -> Zone {
        let mut z = Zone::synthetic(name("example.com"), name("ns1.example.com"));
        z.add_rdata(name("example.com"), RData::Ns(name("ns1.example.com")))
            .unwrap();
        z.add_rdata(name("example.com"), RData::Ns(name("ns2.example.com")))
            .unwrap();
        z.add_rdata(
            name("ns1.example.com"),
            RData::A("10.0.0.1".parse().unwrap()),
        )
        .unwrap();
        z.add_rdata(
            name("ns2.example.com"),
            RData::A("10.0.0.2".parse().unwrap()),
        )
        .unwrap();
        z.add_rdata(
            name("www.example.com"),
            RData::A("10.0.0.80".parse().unwrap()),
        )
        .unwrap();
        z.add_rdata(
            name("alias.example.com"),
            RData::Cname(name("www.example.com")),
        )
        .unwrap();
        // Delegation: sub.example.com with one glued NS.
        z.add_rdata(
            name("sub.example.com"),
            RData::Ns(name("ns.sub.example.com")),
        )
        .unwrap();
        z.add_rdata(
            name("ns.sub.example.com"),
            RData::A("10.0.1.1".parse().unwrap()),
        )
        .unwrap();
        z
    }

    #[test]
    fn answer_and_nodata_and_nxdomain() {
        let z = example_zone();
        match z.lookup(&name("www.example.com"), RrType::A) {
            ZoneLookup::Answer(records) => assert_eq!(records.len(), 1),
            other => panic!("expected answer, got {other:?}"),
        }
        assert_eq!(
            z.lookup(&name("www.example.com"), RrType::Mx),
            ZoneLookup::NoData
        );
        assert_eq!(
            z.lookup(&name("missing.example.com"), RrType::A),
            ZoneLookup::NxDomain
        );
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let mut z = example_zone();
        z.add_rdata(
            name("host.deep.example.com"),
            RData::A("10.0.2.1".parse().unwrap()),
        )
        .unwrap();
        assert_eq!(
            z.lookup(&name("deep.example.com"), RrType::A),
            ZoneLookup::NoData
        );
    }

    #[test]
    fn cname_is_chased() {
        let z = example_zone();
        match z.lookup(&name("alias.example.com"), RrType::A) {
            ZoneLookup::Cname { target, record } => {
                assert_eq!(target, name("www.example.com"));
                assert_eq!(record.name, name("alias.example.com"));
            }
            other => panic!("expected CNAME, got {other:?}"),
        }
        // Querying the CNAME type itself answers directly.
        assert!(matches!(
            z.lookup(&name("alias.example.com"), RrType::Cname),
            ZoneLookup::Answer(_)
        ));
    }

    #[test]
    fn referral_below_cut_with_glue() {
        let z = example_zone();
        match z.lookup(&name("www.sub.example.com"), RrType::A) {
            ZoneLookup::Referral {
                cut,
                ns_records,
                glue,
            } => {
                assert_eq!(cut, name("sub.example.com"));
                assert_eq!(ns_records.len(), 1);
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].name, name("ns.sub.example.com"));
            }
            other => panic!("expected referral, got {other:?}"),
        }
        // The cut name itself also refers.
        assert!(matches!(
            z.lookup(&name("sub.example.com"), RrType::A),
            ZoneLookup::Referral { .. }
        ));
    }

    #[test]
    fn records_below_cut_rejected_except_glue() {
        let mut z = example_zone();
        let err = z
            .add_rdata(name("www.sub.example.com"), RData::Txt(vec!["x".into()]))
            .unwrap_err();
        assert!(matches!(err, ZoneError::BelowZoneCut { .. }));
        // Glue is fine.
        z.add_rdata(
            name("ns2.sub.example.com"),
            RData::A("10.0.1.2".parse().unwrap()),
        )
        .unwrap();
    }

    #[test]
    fn out_of_zone_rejected() {
        let mut z = example_zone();
        let err = z
            .add_rdata(name("other.org"), RData::A("1.1.1.1".parse().unwrap()))
            .unwrap_err();
        assert!(matches!(err, ZoneError::OutOfZone { .. }));
    }

    #[test]
    fn cname_conflicts_rejected() {
        let mut z = example_zone();
        let err = z
            .add_rdata(name("www.example.com"), RData::Cname(name("example.com")))
            .unwrap_err();
        assert!(matches!(err, ZoneError::CnameConflict(_)));
        let err = z
            .add_rdata(
                name("alias.example.com"),
                RData::A("1.2.3.4".parse().unwrap()),
            )
            .unwrap_err();
        assert!(matches!(err, ZoneError::CnameConflict(_)));
    }

    #[test]
    fn wildcard_synthesis() {
        let mut z = example_zone();
        z.add_rdata(
            name("*.pool.example.com"),
            RData::A("10.9.9.9".parse().unwrap()),
        )
        .unwrap();
        match z.lookup(&name("h42.pool.example.com"), RrType::A) {
            ZoneLookup::Answer(records) => {
                assert_eq!(records[0].name, name("h42.pool.example.com"));
            }
            other => panic!("expected wildcard answer, got {other:?}"),
        }
        // Explicit names shadow the wildcard.
        z.add_rdata(
            name("real.pool.example.com"),
            RData::A("10.8.8.8".parse().unwrap()),
        )
        .unwrap();
        match z.lookup(&name("real.pool.example.com"), RrType::A) {
            ZoneLookup::Answer(records) => match records[0].rdata {
                RData::A(ip) => assert_eq!(ip, "10.8.8.8".parse::<Ipv4Addr>().unwrap()),
                _ => panic!(),
            },
            other => panic!("expected explicit answer, got {other:?}"),
        }
    }

    #[test]
    fn any_query_returns_all() {
        let z = example_zone();
        match z.lookup(&name("example.com"), RrType::Any) {
            ZoneLookup::Answer(records) => {
                assert!(records.iter().any(|r| r.rtype() == RrType::Soa));
                assert!(records.iter().any(|r| r.rtype() == RrType::Ns));
            }
            other => panic!("expected ANY answer, got {other:?}"),
        }
    }

    #[test]
    fn apex_ns_and_cuts() {
        let z = example_zone();
        assert_eq!(
            z.apex_ns_names(),
            vec![name("ns1.example.com"), name("ns2.example.com")]
        );
        assert_eq!(
            z.cut_names().cloned().collect::<Vec<_>>(),
            vec![name("sub.example.com")]
        );
    }
}
