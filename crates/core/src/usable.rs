//! Glue-aware clean-resolution reachability.
//!
//! Given a set of *blocked* servers (compromised or DoS'd), which zones can
//! still be resolved using only clean servers? This is the semantic ground
//! truth that the paper's min-cut approximates, and it is what the attack
//! simulator and the exact hijack search build on.
//!
//! Rules (least fixed point, monotone in the set of reachable zones):
//!
//! * the root zone is always reachable (root hints; the paper treats root
//!   servers as out of scope);
//! * a zone `z` is reachable iff its nearest registered ancestor is
//!   reachable **and** some unblocked server `s ∈ NS(z)` is *contactable*;
//! * `s` is contactable iff its address is learnable: either `s`'s name
//!   lies inside `z` itself (the parent's referral carries **glue**,
//!   breaking the circularity of self-hosted zones), or the deepest zone
//!   containing `s`'s name is reachable.
//!
//! A *name* resolves cleanly iff the deepest zone enclosing it is
//! reachable.
//!
//! During the fixed point we record, per zone, the server that first
//! certified it. Following those certificates yields a well-founded
//! **witness**: a set of unblocked servers whose survival alone guarantees
//! the name keeps resolving. Witnesses drive the exact hijack search: any
//! complete hijack must block at least one witness member.
//!
//! # Frame and solve
//!
//! The fixed point is split into a [`Frame`] — everything that does not
//! depend on the blocked set, built once — and [`Frame::solve`], the sweep
//! itself, which allocates nothing once its [`Scratch`] has grown to the
//! frame's size. A frame covers either the whole universe or the zones and
//! servers of one dependency closure, and holds, in dense *local* ids (the
//! rank of a member among the frame's ascending universe ids; the universe
//! ids themselves for a whole-universe frame):
//!
//! * per zone, its nearest ancestor **inside the frame** (taken from
//!   [`Universe::parent_zone_of`], skipping ancestors the frame lacks), and
//!   whether that ancestor is the root or absent — such a zone is delegated
//!   from the hints, which carry glue for every server of it;
//! * per zone, its NS list in universe order, each entry with its `glued`
//!   bit (root server, hint-delegated zone, or name inside the zone);
//! * per server, the deepest zone inside the frame enclosing its name
//!   (from [`Universe::home_zone_of`], likewise lifted into the frame);
//! * the root zone, when the frame has it.
//!
//! Every NS of a frame zone must be a frame server; closures are
//! NS-complete by construction. Because local ids ascend with universe ids
//! and NS order is kept, a restricted frame sweeps zones and prefers
//! certificates in the order the closure rebuilt by name as a universe of
//! its own (the dev-only `perils-oracle` crate's reference) would, so both
//! yield the same reachable set and the same witnesses.
//! [`Reachability::compute`] is a whole-universe frame plus one solve:
//! there is one fixed-point implementation.

use crate::universe::{ServerId, Universe, ZoneId};
use perils_dns::name::DnsName;
use std::collections::BTreeSet;

/// "No zone" in a frame's dense tables.
const NONE: u32 = u32::MAX;

/// One axis (zones or servers) of a frame: which universe ids it holds.
#[derive(Debug, Clone)]
enum Members {
    /// Every id below the count; local id = universe id.
    All(usize),
    /// These universe ids, ascending; local id = rank.
    Listed(Vec<u32>),
}

impl Members {
    fn len(&self) -> usize {
        match self {
            Members::All(n) => *n,
            Members::Listed(ids) => ids.len(),
        }
    }

    fn global(&self, local: usize) -> u32 {
        match self {
            Members::All(_) => local as u32,
            Members::Listed(ids) => ids[local],
        }
    }

    fn local(&self, global: u32) -> Option<u32> {
        match self {
            Members::All(n) => ((global as usize) < *n).then_some(global),
            Members::Listed(ids) => ids.binary_search(&global).ok().map(|rank| rank as u32),
        }
    }

    /// On the zone axis: the local id of `from` or of its nearest ancestor
    /// among the members, [`NONE`] when there is none.
    fn lift(&self, universe: &Universe, from: Option<ZoneId>) -> u32 {
        let mut at = from;
        while let Some(zone) = at {
            if let Some(local) = self.local(zone.0) {
                return local;
            }
            at = universe.parent_zone_of(zone);
        }
        NONE
    }
}

/// One NS entry of a frame zone, packed: the local server id shifted left
/// over the `glued` bit (the referral to the zone carries this server's
/// address). As a struct the whole-universe table is twice the size,
/// which showed as +1 % peak RSS in the census batch.
#[derive(Debug, Clone, Copy)]
struct NsEntry(u32);

impl NsEntry {
    fn new(server: u32, glued: bool) -> NsEntry {
        NsEntry(server << 1 | u32::from(glued))
    }

    fn server(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn glued(self) -> bool {
        self.0 & 1 == 1
    }
}

/// The blocked-set-independent half of the fixed point (module docs).
#[derive(Debug, Clone)]
pub struct Frame {
    zones: Members,
    servers: Members,
    /// Per zone: nearest in-frame ancestor, or [`NONE`].
    parent: Vec<u32>,
    /// Zone `z`'s NS entries are `ns[ns_start[z]..ns_start[z + 1]]`.
    ns_start: Vec<u32>,
    ns: Vec<NsEntry>,
    /// Per server: deepest in-frame zone enclosing its name, or [`NONE`].
    home: Vec<u32>,
    /// The root zone, or [`NONE`] when the frame lacks it.
    root: u32,
}

/// The state of one [`Frame::solve`], reusable across solves and frames.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    reachable: Vec<bool>,
    /// The NS entry (index into the frame's list) that first certified
    /// each reachable zone (derivation order, hence acyclic). [`NONE`] for
    /// unreachable zones and the root.
    cert: Vec<u32>,
    /// Witness walk: zones still to visit, zones already visited.
    pending: Vec<u32>,
    visited: Vec<bool>,
}

impl Scratch {
    /// Whether the zone with local id `zone` was reachable in the last
    /// solve.
    pub fn zone_reachable(&self, zone: usize) -> bool {
        self.reachable[zone]
    }
}

impl Frame {
    /// The frame of the whole universe; local ids are universe ids.
    pub fn whole(universe: &Universe) -> Frame {
        Frame::build(
            universe,
            Members::All(universe.zone_count()),
            Members::All(universe.server_count()),
        )
    }

    /// The frame restricted to one closure's `zones` and `servers`, each
    /// ascending by id (what [`crate::closure::ClosureView`]'s iterators
    /// yield).
    ///
    /// # Panics
    ///
    /// Panics when a zone's NS set names a server outside `servers`.
    pub fn restricted(
        universe: &Universe,
        zones: impl IntoIterator<Item = ZoneId>,
        servers: impl IntoIterator<Item = ServerId>,
    ) -> Frame {
        let zones: Vec<u32> = zones.into_iter().map(|z| z.0).collect();
        let servers: Vec<u32> = servers.into_iter().map(|s| s.0).collect();
        debug_assert!(zones.windows(2).all(|w| w[0] < w[1]), "zones ascend");
        debug_assert!(servers.windows(2).all(|w| w[0] < w[1]), "servers ascend");
        Frame::build(universe, Members::Listed(zones), Members::Listed(servers))
    }

    fn build(universe: &Universe, zones: Members, servers: Members) -> Frame {
        assert!(servers.len() <= 1 << 31, "server ids fit a packed NS entry");
        let mut parent = Vec::with_capacity(zones.len());
        let mut ns_start = Vec::with_capacity(zones.len() + 1);
        let ns_total = (0..zones.len())
            .map(|local| universe.zone(ZoneId(zones.global(local))).ns.len())
            .sum();
        let mut ns = Vec::with_capacity(ns_total);
        for local in 0..zones.len() {
            let zid = ZoneId(zones.global(local));
            let zone = universe.zone(zid);
            let up = zones.lift(universe, universe.parent_zone_of(zid));
            // TLD-style zones: delegated from the root (or straight from
            // the hints). The real root zone file carries glue A records
            // for every TLD nameserver *regardless of bailiwick*, so their
            // addresses never require a recursive chain. (Below the root,
            // glue only covers in-bailiwick names.)
            let from_hints = up == NONE
                || universe
                    .zone(ZoneId(zones.global(up as usize)))
                    .origin
                    .is_root();
            parent.push(up);
            ns_start.push(ns.len() as u32);
            for &sid in &zone.ns {
                let server = universe.server(sid);
                let local = servers
                    .local(sid.0)
                    .expect("every NS of a frame zone is a frame server");
                let glued =
                    from_hints || server.is_root || server.name.is_subdomain_of(&zone.origin);
                ns.push(NsEntry::new(local, glued));
            }
        }
        ns_start.push(ns.len() as u32);
        let home = (0..servers.len())
            .map(|local| {
                zones.lift(
                    universe,
                    universe.home_zone_of(ServerId(servers.global(local))),
                )
            })
            .collect();
        let root = universe
            .zone_id(&DnsName::root())
            .and_then(|z| zones.local(z.0))
            .unwrap_or(NONE);
        Frame {
            zones,
            servers,
            parent,
            ns_start,
            ns,
            home,
            root,
        }
    }

    /// Number of zones (local zone ids are `0..zone_count()`).
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Number of servers (local server ids are `0..server_count()`).
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The universe id of local server `server`.
    pub fn server_id(&self, server: usize) -> ServerId {
        ServerId(self.servers.global(server))
    }

    /// The local id of the deepest frame zone enclosing `name`.
    pub fn enclosing_zone(&self, universe: &Universe, name: &DnsName) -> Option<usize> {
        let local = self.zones.lift(universe, universe.zone_of(name));
        (local != NONE).then_some(local as usize)
    }

    /// One flag per frame server, set for those in `servers`; servers the
    /// frame lacks block nothing. The `blocked` argument of
    /// [`Frame::solve`].
    pub fn blocked_flags<'a>(&self, servers: impl IntoIterator<Item = &'a ServerId>) -> Vec<bool> {
        let mut flags = vec![false; self.server_count()];
        for server in servers {
            if let Some(local) = self.servers.local(server.0) {
                flags[local as usize] = true;
            }
        }
        flags
    }

    /// Runs the fixed point with the servers flagged in `blocked` (indexed
    /// by local server id) unavailable, leaving the result in `scratch`.
    pub fn solve(&self, blocked: &[bool], scratch: &mut Scratch) {
        assert_eq!(blocked.len(), self.server_count(), "one flag per server");
        let Scratch {
            reachable, cert, ..
        } = scratch;
        reachable.clear();
        reachable.resize(self.zone_count(), false);
        cert.clear();
        cert.resize(self.zone_count(), NONE);
        if self.root != NONE {
            reachable[self.root as usize] = true;
        }

        // Monotone iteration to the least fixed point. Each pass only adds
        // zones, and a zone's certificate is chosen when the zone first
        // becomes reachable — i.e. using strictly earlier derivations, so
        // certificate chains are well-founded.
        loop {
            let mut changed = false;
            for zone in 0..self.zone_count() {
                if reachable[zone] {
                    continue;
                }
                // No in-frame ancestor: delegated straight from the
                // trusted hints.
                let up = self.parent[zone];
                if up != NONE && !reachable[up as usize] {
                    continue;
                }
                // Prefer self-contained certificates (root or glued) so
                // witnesses stay small; otherwise any server whose home
                // zone is already derived.
                let mut chosen = NONE;
                for at in self.ns_start[zone]..self.ns_start[zone + 1] {
                    let entry = self.ns[at as usize];
                    if blocked[entry.server()] {
                        continue;
                    }
                    if entry.glued() {
                        chosen = at;
                        break;
                    }
                    let home = self.home[entry.server()];
                    if chosen == NONE && home != NONE && reachable[home as usize] {
                        chosen = at;
                    }
                }
                if chosen != NONE {
                    reachable[zone] = true;
                    cert[zone] = chosen;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Leaves in `witness` (cleared first; ascending local server ids) a
    /// witness that zone `target` was reachable in the last solve of this
    /// frame into `scratch`: unblocked servers whose survival guarantees
    /// it stays reachable (derivation certificates of every zone the
    /// target's chain depends on). Returns `false`, and an empty witness,
    /// when the zone was not reachable.
    pub fn witness_into(
        &self,
        scratch: &mut Scratch,
        target: usize,
        witness: &mut Vec<u32>,
    ) -> bool {
        let Scratch {
            reachable,
            cert,
            pending,
            visited,
        } = scratch;
        self.walk_certificates(reachable, cert, pending, visited, target, witness)
    }

    fn walk_certificates(
        &self,
        reachable: &[bool],
        cert: &[u32],
        pending: &mut Vec<u32>,
        visited: &mut Vec<bool>,
        target: usize,
        witness: &mut Vec<u32>,
    ) -> bool {
        witness.clear();
        if !reachable[target] {
            return false;
        }
        visited.clear();
        visited.resize(self.zone_count(), false);
        pending.clear();
        pending.push(target as u32);
        while let Some(zone) = pending.pop() {
            let zone = zone as usize;
            if std::mem::replace(&mut visited[zone], true) {
                continue;
            }
            if self.parent[zone] != NONE {
                pending.push(self.parent[zone]);
            }
            if cert[zone] == NONE {
                continue; // the root zone
            }
            let entry = self.ns[cert[zone] as usize];
            witness.push(entry.server() as u32);
            // Non-glued certificates drag in their address chain.
            let home = self.home[entry.server()];
            if !entry.glued() && home != NONE {
                pending.push(home);
            }
        }
        witness.sort_unstable();
        witness.dedup();
        true
    }
}

/// Reachability analysis over a universe with a blocked-server set: a
/// whole-universe [`Frame`] and one solve.
#[derive(Debug, Clone)]
pub struct Reachability {
    frame: Frame,
    solved: Scratch,
}

impl Reachability {
    /// Computes the fixed point for `universe` with `blocked` servers.
    pub fn compute(universe: &Universe, blocked: &BTreeSet<ServerId>) -> Reachability {
        let frame = Frame::whole(universe);
        let mut solved = Scratch::default();
        frame.solve(&frame.blocked_flags(blocked), &mut solved);
        Reachability { frame, solved }
    }

    /// Whether zone `z` is cleanly reachable.
    pub fn zone_reachable(&self, z: ZoneId) -> bool {
        self.solved.reachable[z.index()]
    }

    /// Whether `name` resolves cleanly: the deepest zone enclosing it is
    /// reachable (which transitively requires its whole chain).
    pub fn name_resolves(&self, universe: &Universe, name: &DnsName) -> bool {
        match universe.zone_of(name) {
            Some(z) => self.solved.reachable[z.index()],
            None => false,
        }
    }

    /// The deepest zone containing `server`'s name.
    pub fn home_zone_of(&self, server: ServerId) -> Option<ZoneId> {
        let home = self.frame.home[server.index()];
        (home != NONE).then_some(ZoneId(home))
    }

    /// A witness that `name` resolves: unblocked servers whose survival
    /// guarantees continued resolution (see [`Frame::witness_into`]),
    /// ascending. `None` when the name does not resolve.
    pub fn witness(&self, universe: &Universe, name: &DnsName) -> Option<Vec<ServerId>> {
        let target = universe.zone_of(name)?;
        let mut witness = Vec::new();
        self.frame
            .walk_certificates(
                &self.solved.reachable,
                &self.solved.cert,
                &mut Vec::new(),
                &mut Vec::new(),
                target.index(),
                &mut witness,
            )
            .then(|| witness.into_iter().map(ServerId).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use perils_dns::name::{name, DnsName};

    /// root → com → example.com (self-hosted with glue), plus offsite.org
    /// hosted entirely by ns.provider.net, provider.net self-hosted.
    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.gtld-servers.net")]);
        b.add_zone(&name("net"), &[name("a.gtld-servers.net")]);
        b.add_zone(&name("org"), &[name("a.gtld-servers.net")]);
        b.add_zone(&name("gtld-servers.net"), &[name("a.gtld-servers.net")]);
        // Self-hosted: ns1.example.com serves example.com (glue breaks it).
        b.add_zone(&name("example.com"), &[name("ns1.example.com")]);
        // Externally hosted: offsite.org depends on provider.net.
        b.add_zone(&name("provider.net"), &[name("ns.provider.net")]);
        b.add_zone(&name("offsite.org"), &[name("ns.provider.net")]);
        b.finish()
    }

    fn blocked(u: &Universe, names: &[&str]) -> BTreeSet<ServerId> {
        names
            .iter()
            .map(|n| u.server_id(&name(n)).unwrap())
            .collect()
    }

    #[test]
    fn everything_reachable_when_nothing_blocked() {
        let u = universe();
        let r = Reachability::compute(&u, &BTreeSet::new());
        for zid in u.zone_ids() {
            assert!(
                r.zone_reachable(zid),
                "zone {} unreachable",
                u.zone(zid).origin
            );
        }
        assert!(r.name_resolves(&u, &name("www.example.com")));
        assert!(r.name_resolves(&u, &name("www.offsite.org")));
    }

    #[test]
    fn glue_breaks_self_hosting_cycle() {
        let u = universe();
        let r = Reachability::compute(&u, &BTreeSet::new());
        // example.com is served only by a name inside itself; without the
        // glue rule it could never bootstrap.
        assert!(r.zone_reachable(u.zone_id(&name("example.com")).unwrap()));
        // Same for gtld-servers.net ← a.gtld-servers.net.
        assert!(r.zone_reachable(u.zone_id(&name("gtld-servers.net")).unwrap()));
    }

    #[test]
    fn blocking_own_ns_kills_zone() {
        let u = universe();
        let r = Reachability::compute(&u, &blocked(&u, &["ns1.example.com"]));
        assert!(!r.name_resolves(&u, &name("www.example.com")));
        // Unrelated names unaffected.
        assert!(r.name_resolves(&u, &name("www.offsite.org")));
    }

    #[test]
    fn blocking_transitive_provider_kills_dependent_zone() {
        let u = universe();
        // offsite.org's server lives in provider.net; blocking the provider
        // server kills both provider.net and offsite.org.
        let r = Reachability::compute(&u, &blocked(&u, &["ns.provider.net"]));
        assert!(!r.zone_reachable(u.zone_id(&name("provider.net")).unwrap()));
        assert!(!r.name_resolves(&u, &name("www.offsite.org")));
        assert!(r.name_resolves(&u, &name("www.example.com")));
    }

    #[test]
    fn blocking_tld_server_kills_everything_below() {
        let u = universe();
        let r = Reachability::compute(&u, &blocked(&u, &["a.gtld-servers.net"]));
        for zone in [
            "com",
            "net",
            "org",
            "example.com",
            "provider.net",
            "offsite.org",
        ] {
            assert!(
                !r.zone_reachable(u.zone_id(&name(zone)).unwrap()),
                "{zone} should fall"
            );
        }
    }

    #[test]
    fn witness_certifies_resolution() {
        let u = universe();
        let r = Reachability::compute(&u, &BTreeSet::new());
        let w = r.witness(&u, &name("www.offsite.org")).expect("resolves");
        // In this universe the witness is also a cut: blocking all its
        // members must kill the name.
        let b: BTreeSet<ServerId> = w.iter().copied().collect();
        let r2 = Reachability::compute(&u, &b);
        assert!(!r2.name_resolves(&u, &name("www.offsite.org")));
        // Witness members are the derivation certificates.
        let names: Vec<String> = w.iter().map(|&s| u.server(s).name.to_string()).collect();
        assert!(names.contains(&"ns.provider.net".to_string()));
        assert!(names.contains(&"a.gtld-servers.net".to_string()));
    }

    #[test]
    fn witness_survival_guarantees_resolution() {
        // The soundness property the hijack search depends on: blocking
        // anything *disjoint* from the witness never kills the name.
        let u = universe();
        let r = Reachability::compute(&u, &BTreeSet::new());
        let w: BTreeSet<ServerId> = r
            .witness(&u, &name("www.offsite.org"))
            .unwrap()
            .into_iter()
            .collect();
        // Block every non-witness server.
        let others: BTreeSet<ServerId> = u.server_ids().filter(|s| !w.contains(s)).collect();
        let r2 = Reachability::compute(&u, &others);
        assert!(r2.name_resolves(&u, &name("www.offsite.org")));
    }

    #[test]
    fn mutual_certification_cycle_is_not_falsely_reachable() {
        // Zone X served only by a name in Y; zone Y served only by a name
        // in X. Neither has glue: neither can bootstrap.
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("x.com"), &[name("ns.y.com")]);
        b.add_zone(&name("y.com"), &[name("ns.x.com")]);
        let u = b.finish();
        let r = Reachability::compute(&u, &BTreeSet::new());
        assert!(!r.zone_reachable(u.zone_id(&name("x.com")).unwrap()));
        assert!(!r.zone_reachable(u.zone_id(&name("y.com")).unwrap()));
        assert!(r.witness(&u, &name("www.x.com")).is_none());
    }

    #[test]
    fn witness_none_when_unresolvable() {
        let u = universe();
        let b = blocked(&u, &["ns.provider.net"]);
        let r = Reachability::compute(&u, &b);
        assert!(r.witness(&u, &name("www.offsite.org")).is_none());
    }

    #[test]
    fn names_with_no_zone_do_not_resolve() {
        let mut builder = Universe::builder();
        builder.add_zone(&name("com"), &[name("ns.example.org")]);
        let u = builder.finish();
        let r = Reachability::compute(&u, &BTreeSet::new());
        assert!(!r.name_resolves(&u, &name("www.example.zz")));
    }
}
