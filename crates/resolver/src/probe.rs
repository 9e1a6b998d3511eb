//! The survey prober: full dependency-closure discovery over the wire.
//!
//! For one surveyed name the prober reproduces the paper's methodology:
//! walk the delegation chain from the root recording the complete NS set at
//! every zone cut, then recursively chart the chain of **every nameserver
//! name** discovered, until the closure is exhausted. The result is the raw
//! material of the delegation graph: `zone cut → NS set` plus the set of
//! all servers encountered. Each discovered server is then fingerprinted
//! with a CHAOS `version.bind` probe.

use crate::iterative::{IterativeResolver, ResolveError};
use perils_dns::message::{Message, Question, Rcode};
use perils_dns::name::DnsName;
use perils_dns::rr::{RData, RrType};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::Ipv4Addr;

/// The dependency structure discovered for one surveyed name.
#[derive(Debug, Clone, Default)]
pub struct DependencyReport {
    /// Every zone cut on any chain in the closure, with its NS host names
    /// (as learned from parent referrals).
    pub zone_ns: BTreeMap<DnsName, BTreeSet<DnsName>>,
    /// Every nameserver host name in the closure.
    pub servers: BTreeSet<DnsName>,
    /// `version.bind` banner per server (None: refused / unreachable /
    /// address never resolved).
    pub banners: BTreeMap<DnsName, Option<String>>,
    /// Total queries spent by the prober (walks + fingerprints).
    pub queries: u32,
    /// Names whose chain walk failed outright (unreachable zones).
    pub failed_walks: BTreeSet<DnsName>,
}

impl DependencyReport {
    /// The trusted computing base: every discovered server, excluding the
    /// root servers themselves (the paper's convention: "the sizes reported
    /// here do not include the root nameservers").
    pub fn tcb(&self, root_server_names: &BTreeSet<DnsName>) -> BTreeSet<DnsName> {
        self.servers
            .difference(root_server_names)
            .cloned()
            .collect()
    }
}

/// Walks delegation chains and assembles [`DependencyReport`]s.
pub struct ChainProber<'r> {
    resolver: &'r IterativeResolver,
}

impl<'r> ChainProber<'r> {
    /// Creates a prober over `resolver`.
    pub fn new(resolver: &'r IterativeResolver) -> ChainProber<'r> {
        ChainProber { resolver }
    }

    /// Discovers the full dependency closure of `target`.
    pub fn discover(&self, target: &DnsName) -> DependencyReport {
        let mut report = DependencyReport::default();
        // Every name ever queued: each is walked once, in the order it
        // was first queued.
        let mut queued: BTreeSet<DnsName> = BTreeSet::new();
        let mut worklist: VecDeque<DnsName> = VecDeque::new();
        queued.insert(target.to_lowercase());
        worklist.push_back(target.to_lowercase());

        while let Some(name) = worklist.pop_front() {
            let discovered = self.walk_chain(&name, &mut report);
            if !discovered {
                report.failed_walks.insert(name);
            }
            // Enqueue every server name seen so far that was never queued.
            for server in report.servers.iter() {
                if !queued.contains(server) {
                    queued.insert(server.clone());
                    worklist.push_back(server.clone());
                }
            }
        }

        self.fingerprint_servers(&mut report);
        report
    }

    /// Walks the delegation chain for `name` from the root, recording every
    /// referral's NS set. Returns false when no authoritative endpoint was
    /// reached.
    fn walk_chain(&self, name: &DnsName, report: &mut DependencyReport) -> bool {
        // The resolver already implements failover, glueless resolution and
        // budgets; we re-walk here step by step because we need every NS
        // *set*, not just the path taken. Strategy: query for the name at
        // each level, descending one cut at a time.
        let mut current_cut = DnsName::root();
        let mut candidates: Vec<(DnsName, Option<Ipv4Addr>)> = self
            .resolver
            .roots()
            .iter()
            .map(|(n, a)| (n.clone(), Some(*a)))
            .collect();

        loop {
            let mut advanced = false;
            for (ns_name, glue) in Self::glue_first(&candidates) {
                let addr = match glue.or_else(|| self.address_of(&ns_name, report)) {
                    Some(addr) => addr,
                    None => continue,
                };
                report.queries += 1;
                let query = Message::query(0x5eed, Question::new(name.clone(), RrType::A));
                let Some(response) = self.resolver.net().query(addr, &query) else {
                    continue;
                };
                if response.rcode == Rcode::NxDomain
                    || (response.flags.aa
                        && response.rcode == Rcode::NoError
                        && !response.is_referral())
                {
                    // Terminal: authoritative answer / nodata / nxdomain.
                    return true;
                }
                if response.is_referral() {
                    let Some(cut) = response
                        .authority
                        .iter()
                        .find(|r| r.rtype() == RrType::Ns)
                        .map(|r| r.name.to_lowercase())
                    else {
                        continue;
                    };
                    if !(cut.is_proper_subdomain_of(&current_cut) && name.is_subdomain_of(&cut)) {
                        continue; // lame referral
                    }
                    // Record the FULL NS set at this cut.
                    let entry = report.zone_ns.entry(cut.clone()).or_default();
                    let mut next: Vec<(DnsName, Option<Ipv4Addr>)> = Vec::new();
                    for ns in &response.authority {
                        if let RData::Ns(host) = &ns.rdata {
                            let host = host.to_lowercase();
                            entry.insert(host.clone());
                            report.servers.insert(host.clone());
                            let glue = response.additional.iter().find_map(|g| {
                                if g.name == host {
                                    match g.rdata {
                                        RData::A(ip) => Some(ip),
                                        _ => None,
                                    }
                                } else {
                                    None
                                }
                            });
                            next.push((host, glue));
                        }
                    }
                    current_cut = cut;
                    candidates = next;
                    advanced = true;
                    break;
                }
                // Lame / unexpected: try next candidate.
            }
            if !advanced {
                return false;
            }
        }
    }

    fn glue_first(candidates: &[(DnsName, Option<Ipv4Addr>)]) -> Vec<(DnsName, Option<Ipv4Addr>)> {
        let mut ordered: Vec<(DnsName, Option<Ipv4Addr>)> = Vec::with_capacity(candidates.len());
        ordered.extend(candidates.iter().filter(|(_, g)| g.is_some()).cloned());
        ordered.extend(candidates.iter().filter(|(_, g)| g.is_none()).cloned());
        ordered
    }

    /// Resolves a server's address through the resolver (counted in the
    /// report's query total).
    fn address_of(&self, server: &DnsName, report: &mut DependencyReport) -> Option<Ipv4Addr> {
        match self.resolver.resolve(server, RrType::A) {
            Ok(resolution) => {
                report.queries += resolution.queries;
                resolution.v4_addresses().first().copied()
            }
            Err(ResolveError::BudgetExhausted) | Err(_) => None,
        }
    }

    /// Fingerprints every discovered server.
    fn fingerprint_servers(&self, report: &mut DependencyReport) {
        let servers: Vec<DnsName> = report.servers.iter().cloned().collect();
        for server in servers {
            let addr = self.address_of(&server, report);
            let banner = match addr {
                Some(addr) => {
                    report.queries += 1;
                    self.resolver.probe_version(addr)
                }
                None => None,
            };
            report.banners.insert(server, banner);
        }
    }
}
