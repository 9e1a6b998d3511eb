//! The iterative resolver.
//!
//! Resolution follows RFC 1034 §5.3.3: start at the root hints, follow
//! referrals downward, fail over across each zone's NS set, and — the part
//! that creates transitive trust — when a referral names a **glueless**
//! nameserver, suspend the current lookup and recursively resolve that
//! server's address first. Every such sub-resolution walks its own
//! delegation chain, which is why the paper finds a typical name depending
//! on 46 servers.

use crate::trace::{QueryEvent, ResolutionTrace, TraceStep};
use perils_dns::message::{Message, Question, Rcode};
use perils_dns::name::DnsName;
use perils_dns::rr::{RData, Record, RrType};
use perils_netsim::SimNet;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Resolver tunables. The network is lossless, so each server gets one
/// query: a second try at a dead, silent or unbound server times out the
/// same way.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Maximum queries per top-level `resolve` call (loops and pathological
    /// topologies are cut off here).
    pub query_budget: u32,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig { query_budget: 2000 }
    }
}

/// Maximum nesting of glueless sub-resolutions.
const MAX_DEPTH: u32 = 12;
/// Maximum CNAME links to follow.
const MAX_CNAME_CHAIN: u32 = 8;

/// Resolution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The name authoritatively does not exist.
    NxDomain(DnsName),
    /// The name exists but has no records of the requested type.
    NoData(DnsName),
    /// Every path to an authoritative answer failed (timeouts, lameness,
    /// unresolvable nameservers).
    Unreachable(DnsName),
    /// The query budget ran out.
    BudgetExhausted,
    /// Sub-resolution nesting exceeded the limit.
    DepthExceeded,
    /// A CNAME chain exceeded the limit or looped.
    CnameChain(DnsName),
    /// A glueless dependency cycle with no glue to break it.
    DependencyCycle(DnsName),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::NxDomain(n) => write!(f, "{n}: NXDOMAIN"),
            ResolveError::NoData(n) => write!(f, "{n}: no data of requested type"),
            ResolveError::Unreachable(n) => write!(f, "{n}: no authoritative path succeeded"),
            ResolveError::BudgetExhausted => write!(f, "query budget exhausted"),
            ResolveError::DepthExceeded => write!(f, "sub-resolution depth exceeded"),
            ResolveError::CnameChain(n) => write!(f, "{n}: CNAME chain too long or looped"),
            ResolveError::DependencyCycle(n) => write!(f, "{n}: glueless dependency cycle"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// A successful resolution.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// Answer records (CNAME chain included, target records last).
    pub records: Vec<Record>,
    /// Everything the lookup did.
    pub trace: ResolutionTrace,
    /// Queries spent.
    pub queries: u32,
}

impl Resolution {
    /// The IPv4 addresses in the answer.
    pub fn v4_addresses(&self) -> Vec<Ipv4Addr> {
        self.records
            .iter()
            .filter_map(|r| match r.rdata {
                RData::A(ip) => Some(ip),
                _ => None,
            })
            .collect()
    }
}

/// A candidate server for the current zone.
#[derive(Debug, Clone)]
struct Candidate {
    ns_name: DnsName,
    addr: Option<Ipv4Addr>,
}

/// Mutable state threaded through one top-level resolve call.
struct Run {
    budget: u32,
    queries: u32,
    trace: ResolutionTrace,
    in_progress: HashSet<(DnsName, RrType)>,
    next_id: u16,
}

/// The iterative resolver.
pub struct IterativeResolver {
    net: Arc<SimNet>,
    roots: Vec<(DnsName, Ipv4Addr)>,
    config: ResolverConfig,
    /// Every non-empty record set learned, answers and referral glue
    /// alike, for as long as the resolver lives. The paper notes that
    /// "while DNS uses glue records, which provide cached IP addresses
    /// for nameservers, as an optimization, glue records are not
    /// authoritative": remembering them changes *which* servers a later
    /// lookup contacts, not the dependency structure. The survey prober
    /// runs on this memo too; its chain walks query every zone cut's
    /// servers directly and record each full NS set, so the memo only
    /// shortens the nameserver-address lookups in between. `DnsName`
    /// compares and hashes case-insensitively, so the key is too.
    memo: Mutex<HashMap<(DnsName, RrType), Vec<Record>>>,
}

impl IterativeResolver {
    /// Creates a resolver with the given root hints.
    pub fn new(
        net: Arc<SimNet>,
        roots: Vec<(DnsName, Ipv4Addr)>,
        config: ResolverConfig,
    ) -> IterativeResolver {
        assert!(!roots.is_empty(), "resolver needs at least one root hint");
        IterativeResolver {
            net,
            roots,
            config,
            memo: Mutex::default(),
        }
    }

    /// The configured root hints.
    pub fn roots(&self) -> &[(DnsName, Ipv4Addr)] {
        &self.roots
    }

    /// The underlying network (used by the prober for raw probes).
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }

    /// Forgets every learned record set.
    pub fn flush_cache(&self) {
        self.memo().clear();
    }

    /// Resolves `qname`/`qtype` iteratively from the roots.
    pub fn resolve(&self, qname: &DnsName, qtype: RrType) -> Result<Resolution, ResolveError> {
        let mut run = Run {
            budget: self.config.query_budget,
            queries: 0,
            trace: ResolutionTrace::new(),
            in_progress: HashSet::new(),
            next_id: 1,
        };
        let records = self.resolve_rec(qname, qtype, 0, &mut run)?;
        Ok(Resolution {
            records,
            queries: run.queries,
            trace: run.trace,
        })
    }

    /// The memo, recovered if a panicking thread held it: an insert is
    /// the only write, so the map is never left half-updated.
    fn memo(&self) -> MutexGuard<'_, HashMap<(DnsName, RrType), Vec<Record>>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn memo_get(&self, name: &DnsName, rtype: RrType) -> Option<Vec<Record>> {
        self.memo().get(&(name.clone(), rtype)).cloned()
    }

    fn memo_put(&self, name: &DnsName, rtype: RrType, records: &[Record]) {
        if !records.is_empty() {
            self.memo().insert((name.clone(), rtype), records.to_vec());
        }
    }

    /// Core recursion: one (name, type) lookup.
    fn resolve_rec(
        &self,
        qname: &DnsName,
        qtype: RrType,
        depth: u32,
        run: &mut Run,
    ) -> Result<Vec<Record>, ResolveError> {
        if depth > MAX_DEPTH {
            return Err(ResolveError::DepthExceeded);
        }
        if let Some(records) = self.memo_get(qname, qtype) {
            return Ok(records);
        }
        let key = (qname.to_lowercase(), qtype);
        if !run.in_progress.insert(key.clone()) {
            return Err(ResolveError::DependencyCycle(qname.clone()));
        }
        let result = self.resolve_uncached(qname, qtype, depth, run);
        run.in_progress.remove(&key);
        result
    }

    fn resolve_uncached(
        &self,
        qname: &DnsName,
        qtype: RrType,
        depth: u32,
        run: &mut Run,
    ) -> Result<Vec<Record>, ResolveError> {
        let mut candidates: Vec<Candidate> = self
            .roots
            .iter()
            .map(|(n, a)| Candidate {
                ns_name: n.clone(),
                addr: Some(*a),
            })
            .collect();
        let mut current_cut = DnsName::root();
        let mut cname_chain: Vec<Record> = Vec::new();
        let mut cnames_followed = 0u32;
        let mut current_name = qname.clone();

        // Each loop iteration consumes one referral level (strictly
        // descending, bounded by label count) or one CNAME hop (bounded by
        // MAX_CNAME_CHAIN); the query budget bounds the total work.
        'descend: loop {
            let ordered = Self::order_candidates(&candidates);
            for candidate in ordered {
                // Obtain an address: glue, memo, or sub-resolution.
                let addr = match candidate.addr {
                    Some(addr) => addr,
                    None => match self.resolve_glueless(&candidate.ns_name, depth, run) {
                        Some(addr) => addr,
                        None => continue,
                    },
                };
                let response =
                    match self.exchange(addr, &candidate.ns_name, &current_name, qtype, run)? {
                        Some(response) => response,
                        None => continue, // timed out; next server
                    };
                // Classify the response.
                if response.rcode == Rcode::NxDomain {
                    self.trace_query(run, &candidate, addr, &current_name, QueryEvent::NxDomain);
                    return Err(ResolveError::NxDomain(current_name.clone()));
                }
                if response.rcode != Rcode::NoError {
                    // REFUSED / SERVFAIL / NOTIMP: lame server.
                    self.trace_query(run, &candidate, addr, &current_name, QueryEvent::Lame);
                    continue;
                }
                if !response.answers.is_empty() && response.flags.aa {
                    // Authoritative answer: direct match or CNAME.
                    let direct: Vec<Record> = response
                        .answers
                        .iter()
                        .filter(|r| {
                            (r.rtype() == qtype || qtype == RrType::Any) && r.name == current_name
                        })
                        .cloned()
                        .collect();
                    if !direct.is_empty() {
                        self.trace_query(run, &candidate, addr, &current_name, QueryEvent::Answer);
                        self.memo_put(&current_name, qtype, &direct);
                        // Some servers chase CNAMEs locally: if the answer
                        // also holds records for a CNAME target, prefer the
                        // direct match semantics (we asked for qtype at
                        // current_name).
                        let mut records = cname_chain;
                        records.extend(direct);
                        return Ok(records);
                    }
                    let cname = response.answers.iter().find_map(|r| match &r.rdata {
                        RData::Cname(target) if r.name == current_name => Some((r, target.clone())),
                        _ => None,
                    });
                    if let Some((cname_record, target)) = cname {
                        self.trace_query(run, &candidate, addr, &current_name, QueryEvent::Answer);
                        if qtype == RrType::Cname {
                            let mut records = cname_chain;
                            records.push(cname_record.clone());
                            return Ok(records);
                        }
                        cnames_followed += 1;
                        if cnames_followed > MAX_CNAME_CHAIN {
                            return Err(ResolveError::CnameChain(qname.clone()));
                        }
                        if cname_chain.iter().any(|r| r.name == target) || target == current_name {
                            return Err(ResolveError::CnameChain(qname.clone()));
                        }
                        cname_chain.push(cname_record.clone());
                        // Maybe the same response already answers the target
                        // (server chased it); otherwise restart from roots.
                        let chased: Vec<Record> = response
                            .answers
                            .iter()
                            .filter(|r| r.rtype() == qtype && r.name == target)
                            .cloned()
                            .collect();
                        if !chased.is_empty() {
                            self.memo_put(&target, qtype, &chased);
                            let mut records = cname_chain;
                            records.extend(chased);
                            return Ok(records);
                        }
                        current_name = target;
                        current_cut = DnsName::root();
                        candidates = self
                            .roots
                            .iter()
                            .map(|(n, a)| Candidate {
                                ns_name: n.clone(),
                                addr: Some(*a),
                            })
                            .collect();
                        continue 'descend;
                    }
                    // Authoritative answer without matching records: treat
                    // as NoData.
                    self.trace_query(run, &candidate, addr, &current_name, QueryEvent::NoData);
                    return Err(ResolveError::NoData(current_name.clone()));
                }
                if response.is_referral() {
                    // Referral must descend toward the query name.
                    let cut = response
                        .authority
                        .iter()
                        .find(|r| r.rtype() == RrType::Ns)
                        .map(|r| r.name.clone())
                        .expect("is_referral guarantees an NS record");
                    let descends = cut.is_proper_subdomain_of(&current_cut)
                        && current_name.is_subdomain_of(&cut);
                    if !descends {
                        self.trace_query(run, &candidate, addr, &current_name, QueryEvent::Lame);
                        continue;
                    }
                    self.trace_query(run, &candidate, addr, &current_name, QueryEvent::Referral);
                    let mut next: Vec<Candidate> = Vec::new();
                    for ns in &response.authority {
                        if let RData::Ns(host) = &ns.rdata {
                            let glue = response.additional.iter().find_map(|g| {
                                if g.name == *host {
                                    match g.rdata {
                                        RData::A(ip) => Some(ip),
                                        _ => None,
                                    }
                                } else {
                                    None
                                }
                            });
                            // Remember glue for later sub-resolutions.
                            if glue.is_some() {
                                let glue_records: Vec<Record> = response
                                    .additional
                                    .iter()
                                    .filter(|g| g.name == *host && g.rtype() == RrType::A)
                                    .cloned()
                                    .collect();
                                self.memo_put(host, RrType::A, &glue_records);
                            }
                            next.push(Candidate {
                                ns_name: host.clone(),
                                addr: glue,
                            });
                        }
                    }
                    if next.is_empty() {
                        self.trace_query(run, &candidate, addr, &current_name, QueryEvent::Lame);
                        continue;
                    }
                    current_cut = cut;
                    candidates = next;
                    continue 'descend;
                }
                // Authoritative empty answer (NoData) without aa, or other
                // odd shapes: count as no-data from this server and move on.
                if response.flags.aa {
                    self.trace_query(run, &candidate, addr, &current_name, QueryEvent::NoData);
                    return Err(ResolveError::NoData(current_name.clone()));
                }
                self.trace_query(run, &candidate, addr, &current_name, QueryEvent::Lame);
            }
            // Every candidate at this level failed.
            return Err(ResolveError::Unreachable(current_name.clone()));
        }
    }

    /// Glue-first candidate ordering (deterministic).
    fn order_candidates(candidates: &[Candidate]) -> Vec<Candidate> {
        let mut ordered: Vec<Candidate> = Vec::with_capacity(candidates.len());
        ordered.extend(candidates.iter().filter(|c| c.addr.is_some()).cloned());
        ordered.extend(candidates.iter().filter(|c| c.addr.is_none()).cloned());
        ordered
    }

    /// Resolves the address of a glueless NS name via a nested resolution.
    fn resolve_glueless(&self, ns_name: &DnsName, depth: u32, run: &mut Run) -> Option<Ipv4Addr> {
        run.trace.steps.push(TraceStep::SubResolutionStart {
            ns_name: ns_name.clone(),
        });
        let result = self.resolve_rec(ns_name, RrType::A, depth + 1, run);
        let addr = match &result {
            Ok(records) => records.iter().find_map(|r| match r.rdata {
                RData::A(ip) => Some(ip),
                _ => None,
            }),
            Err(_) => None,
        };
        run.trace.steps.push(TraceStep::SubResolutionEnd {
            ns_name: ns_name.clone(),
            ok: addr.is_some(),
        });
        addr
    }

    /// Sends one query; `Ok(None)` means it timed out. Errors only on
    /// budget exhaustion.
    fn exchange(
        &self,
        addr: Ipv4Addr,
        server: &DnsName,
        qname: &DnsName,
        qtype: RrType,
        run: &mut Run,
    ) -> Result<Option<Message>, ResolveError> {
        if run.budget == 0 {
            return Err(ResolveError::BudgetExhausted);
        }
        run.budget -= 1;
        run.queries += 1;
        let id = run.next_id;
        run.next_id = run.next_id.wrapping_add(1);
        let query = Message::query(id, Question::new(qname.clone(), qtype));
        let response = self.net.query(addr, &query);
        if response.is_none() {
            run.trace.steps.push(TraceStep::Query {
                server: server.clone(),
                addr,
                qname: qname.clone(),
                event: QueryEvent::Timeout,
            });
        }
        Ok(response)
    }

    fn trace_query(
        &self,
        run: &mut Run,
        candidate: &Candidate,
        addr: Ipv4Addr,
        qname: &DnsName,
        event: QueryEvent,
    ) {
        run.trace.steps.push(TraceStep::Query {
            server: candidate.ns_name.clone(),
            addr,
            qname: qname.clone(),
            event,
        });
    }

    /// Sends a CHAOS `version.bind` probe to `addr`, returning the banner.
    pub fn probe_version(&self, addr: Ipv4Addr) -> Option<String> {
        let query = Message::query(0xBEEF, Question::version_bind());
        self.net
            .query(addr, &query)
            .as_ref()
            .and_then(perils_vulndb::fingerprint::banner_from_response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::name::name;

    fn resolver() -> IterativeResolver {
        IterativeResolver::new(
            Arc::new(SimNet::new()),
            vec![(name("a.root-servers.net"), "1.0.0.1".parse().unwrap())],
            ResolverConfig::default(),
        )
    }

    fn a_record(owner: &str) -> Record {
        Record::new(name(owner), 60, RData::A("10.0.0.1".parse().unwrap()))
    }

    #[test]
    fn type_is_part_of_key() {
        let resolver = resolver();
        resolver.memo_put(&name("x.com"), RrType::A, &[a_record("x.com")]);
        assert!(resolver.memo_get(&name("x.com"), RrType::Ns).is_none());
        assert_eq!(
            resolver.memo_get(&name("X.COM"), RrType::A),
            Some(vec![a_record("x.com")]),
            "case-insensitive"
        );
    }

    #[test]
    fn empty_set_not_stored() {
        let resolver = resolver();
        resolver.memo_put(&name("x.com"), RrType::A, &[]);
        assert!(resolver.memo().is_empty());
    }
}
