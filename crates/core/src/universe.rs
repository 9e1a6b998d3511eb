//! The analysis model of a DNS universe.
//!
//! A [`Universe`] is the measured structure of a namespace at one point in
//! time: every zone with its NS host names, and every nameserver with its
//! fingerprint-derived vulnerability facts (the `version.bind` banner
//! itself is assessed as it arrives and not kept). It deliberately
//! contains *only* what the paper's analyses consume, so it can be built
//! equally from a ground-truth [`perils_dns::ZoneRegistry`] (the scalable
//! structural path) or from wire-probed dependency reports.

use crate::namemap::NameIdMap;
use perils_dns::name::{DnsName, Label};
use perils_dns::zone::{ZoneEvent, ZoneRegistry};
use perils_vulndb::{BindVersion, VulnDb};
use std::collections::HashMap;

/// Zone identifier: an index into the universe's zone table, numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneId(pub u32);

impl ZoneId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Server identifier: an index into the universe's server table, numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl ServerId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One zone in the universe.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneEntry {
    /// The zone origin (lowercased).
    pub origin: DnsName,
    /// NS servers (as learned from parent referrals / apex NS sets),
    /// each once, in first-mention order.
    pub ns: Vec<ServerId>,
}

/// One nameserver in the universe: its name and the verdicts its
/// `version.bind` banner was assessed to when it arrived (the banner
/// itself is not kept — no analysis reads it).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerEntry {
    /// Host name (lowercased).
    pub name: DnsName,
    /// Whether the fingerprint matched a version with known advisories.
    /// Unknown/hidden banners are `false` — the paper's optimistic rule.
    pub vulnerable: bool,
    /// Whether a scripted exploit exists (full-compromise capability).
    pub scripted_exploit: bool,
    /// True for root servers (excluded from TCB sizes, trusted as the
    /// resolution starting point).
    pub is_root: bool,
}

/// The measured universe.
#[derive(Debug, Clone, Default)]
pub struct Universe {
    zones: Vec<ZoneEntry>,
    /// Origin → zone id, keyed *into* [`Universe::zones`] rather than by
    /// owned names (see [`NameIdMap`]) — snapshot loads rebuild this
    /// without cloning a single name.
    zone_by_origin: NameIdMap,
    servers: Vec<ServerEntry>,
    server_by_name: NameIdMap,
    /// Per server: the deepest zone enclosing its name (`u32::MAX` when
    /// none). Derived once from the final zone set when the builder
    /// finishes ([`Universe::derive_links`]), so every consumer — the
    /// dependency index, the zombie classification, the misconfiguration
    /// audit — shares one ancestor-walk pass instead of re-resolving per
    /// build.
    server_home: Vec<u32>,
    /// Per zone: the deepest zone **strictly** enclosing its origin
    /// (`u32::MAX` when none). Derived in the same pass; this is what
    /// lets delegation chains be derived by recurrence (`chain(z) =
    /// chain(parent(z)) + z`) instead of one ancestor walk per zone.
    zone_parent: Vec<u32>,
}

/// Equality over the *defining* state only: the lookup maps are pure
/// derivations of the entry tables (and their slot layout depends on
/// insertion history), so they carry no information of their own.
impl PartialEq for Universe {
    fn eq(&self, other: &Universe) -> bool {
        self.zones == other.zones
            && self.servers == other.servers
            && self.server_home == other.server_home
            && self.zone_parent == other.zone_parent
    }
}

impl Universe {
    /// Resolves a zone id back to its origin labels — the probe
    /// callback [`NameIdMap`] needs.
    #[inline]
    fn zone_labels(&self, id: u32) -> &[Label] {
        self.zones[id as usize].origin.labels()
    }

    /// Resolves a server id back to its name labels.
    #[inline]
    fn server_labels(&self, id: u32) -> &[Label] {
        self.servers[id as usize].name.labels()
    }

    /// Starts building a universe by hand (or by streaming events into
    /// [`UniverseBuilder::apply`]).
    pub fn builder() -> UniverseBuilder {
        UniverseBuilder::default()
    }

    /// Borrows the flat state a snapshot archive persists: zones,
    /// servers, and the two ancestor tables. The name→id maps are pure
    /// derivations and are rebuilt on load.
    pub(crate) fn snapshot_parts(&self) -> (&[ZoneEntry], &[ServerEntry], &[u32], &[u32]) {
        (
            &self.zones,
            &self.servers,
            &self.server_home,
            &self.zone_parent,
        )
    }

    /// Reassembles a universe from its [`Universe::snapshot_parts`]
    /// state, rebuilding the name→id lookup maps through the derivation
    /// [`UniverseBuilder::finish_canonical`] also uses. Validates every
    /// cross-table id, that each zone parent is a proper ancestor of its
    /// zone and each home zone encloses its server (label compares, no
    /// lookups), and rejects duplicate names and an NS list that names a
    /// server twice (the builder never writes one), so a corrupt archive yields
    /// an error instead of a structurally inconsistent universe. The links
    /// stay stored rather than re-derived: deriving them costs an ancestor
    /// walk through the origin map per entry.
    pub(crate) fn from_snapshot_parts(
        zones: Vec<ZoneEntry>,
        servers: Vec<ServerEntry>,
        server_home: Vec<u32>,
        zone_parent: Vec<u32>,
    ) -> Result<Universe, String> {
        let zone_count = zones.len() as u32;
        let server_count = servers.len() as u32;
        if server_home.len() != servers.len() {
            return Err(format!(
                "server_home has {} entries for {} servers",
                server_home.len(),
                servers.len()
            ));
        }
        if zone_parent.len() != zones.len() {
            return Err(format!(
                "zone_parent has {} entries for {} zones",
                zone_parent.len(),
                zones.len()
            ));
        }
        // `listed_by[s]`: the last zone whose NS list named server `s`, so
        // a repeat within one list is one comparison, however long it is.
        let mut listed_by = vec![u32::MAX; servers.len()];
        for (i, zone) in zones.iter().enumerate() {
            for s in &zone.ns {
                if s.0 >= server_count {
                    return Err(format!(
                        "zone {i} references server {} of {server_count}",
                        s.0
                    ));
                }
                if std::mem::replace(&mut listed_by[s.index()], i as u32) == i as u32 {
                    return Err(format!("zone {i} lists server {} twice", s.0));
                }
            }
        }
        if let Some(&bad) = server_home
            .iter()
            .find(|&&z| z != u32::MAX && z >= zone_count)
        {
            return Err(format!("server_home references zone {bad} of {zone_count}"));
        }
        if let Some(&bad) = zone_parent
            .iter()
            .find(|&&z| z != u32::MAX && z >= zone_count)
        {
            return Err(format!("zone_parent references zone {bad} of {zone_count}"));
        }
        // A parent's origin is a proper suffix of its child's, so parent
        // walks (`Universe::server_chain_up`) always terminate and stay on
        // the child's ancestors; a home zone's origin encloses its
        // server's name.
        for (z, &p) in zone_parent.iter().enumerate() {
            if p != u32::MAX
                && !zones[z]
                    .origin
                    .is_proper_subdomain_of(&zones[p as usize].origin)
            {
                return Err(format!(
                    "zone_parent of zone {z} is zone {p}, not an ancestor"
                ));
            }
        }
        for (s, &h) in server_home.iter().enumerate() {
            if h != u32::MAX && !servers[s].name.is_subdomain_of(&zones[h as usize].origin) {
                return Err(format!(
                    "server_home of server {s} is zone {h}, which does not enclose it"
                ));
            }
        }
        let (zone_by_origin, server_by_name) = name_maps(&zones, &servers)?;
        Ok(Universe {
            zones,
            zone_by_origin,
            servers,
            server_by_name,
            server_home,
            zone_parent,
        })
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Zone lookup by id.
    pub fn zone(&self, id: ZoneId) -> &ZoneEntry {
        &self.zones[id.index()]
    }

    /// Server lookup by id.
    pub fn server(&self, id: ServerId) -> &ServerEntry {
        &self.servers[id.index()]
    }

    /// Zone id by origin. `DnsName` hashes and compares ASCII
    /// case-insensitively, so no normalization copy is needed here.
    pub fn zone_id(&self, origin: &DnsName) -> Option<ZoneId> {
        self.zone_by_origin
            .get(origin.labels(), |i| self.zone_labels(i))
            .map(ZoneId)
    }

    /// Server id by host name (case-insensitive, like [`Universe::zone_id`]).
    pub fn server_id(&self, name: &DnsName) -> Option<ServerId> {
        self.server_by_name
            .get(name.labels(), |i| self.server_labels(i))
            .map(ServerId)
    }

    /// Iterates all zone ids.
    pub fn zone_ids(&self) -> impl Iterator<Item = ZoneId> {
        (0..self.zones.len() as u32).map(ZoneId)
    }

    /// Iterates all server ids.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> {
        (0..self.servers.len() as u32).map(ServerId)
    }

    /// The zones on `name`'s delegation chain, root-first, **excluding**
    /// the root zone (per the paper, root servers are taken as trusted and
    /// excluded from TCBs).
    pub fn chain_zones(&self, name: &DnsName) -> Vec<ZoneId> {
        let mut chain = Vec::new();
        self.chain_zones_into(name, &mut chain);
        chain
    }

    /// [`Universe::chain_zones`] into a caller-owned buffer (cleared
    /// first), so bulk passes like the dependency-index build reuse one
    /// allocation across hundreds of thousands of servers.
    pub fn chain_zones_into(&self, name: &DnsName, out: &mut Vec<ZoneId>) {
        out.clear();
        // Probe the origin map with borrowed label suffixes: the ancestor
        // walk allocates nothing, which is what keeps the index build and
        // the per-name closure path allocation-free. `skip == label_count`
        // would be the root, which chains exclude.
        let labels = name.labels();
        for skip in 0..labels.len() {
            if let Some(id) = self
                .zone_by_origin
                .get(&labels[skip..], |i| self.zone_labels(i))
            {
                out.push(ZoneId(id));
            }
        }
        out.reverse();
    }

    /// The deepest zone enclosing `name` (including the root zone if
    /// registered and nothing deeper matches).
    pub fn zone_of(&self, name: &DnsName) -> Option<ZoneId> {
        self.deepest_zone(name.labels(), 0).map(ZoneId)
    }

    /// The deepest registered zone whose origin is a suffix of `labels`
    /// with at least `skip` labels dropped: `skip = 0` is
    /// [`Universe::zone_of`], `skip = 1` a zone's strict parent.
    fn deepest_zone(&self, labels: &[Label], skip: usize) -> Option<u32> {
        (skip..=labels.len()).find_map(|from| {
            self.zone_by_origin
                .get(&labels[from..], |i| self.zone_labels(i))
        })
    }

    /// Writes every zone's parent link and every server's home zone,
    /// derived from the final zone set by one ancestor walk per entry
    /// through the origin map. Links are a pure function of that set, so
    /// the arrival order of the events that built it cannot move them.
    /// This is the only writer of `zone_parent` and `server_home` outside
    /// a snapshot load.
    fn derive_links(&mut self) {
        let zone_parent = self
            .zones
            .iter()
            .map(|z| self.deepest_zone(z.origin.labels(), 1).unwrap_or(u32::MAX))
            .collect();
        let server_home = self
            .servers
            .iter()
            .map(|s| self.deepest_zone(s.name.labels(), 0).unwrap_or(u32::MAX))
            .collect();
        self.zone_parent = zone_parent;
        self.server_home = server_home;
    }

    /// The home zone of `server` — [`Universe::zone_of`] of its name,
    /// precomputed at build time (no lookups, no allocation).
    pub fn home_zone_of(&self, server: ServerId) -> Option<ZoneId> {
        match self.server_home[server.index()] {
            u32::MAX => None,
            z => Some(ZoneId(z)),
        }
    }

    /// The zones of [`Universe::chain_zones`] of `server`'s name,
    /// **deepest first**, read off the precomputed home-zone and parent
    /// links instead of probing the origin map per label: the home zone,
    /// its parent, and so on up to (not including) the root.
    pub fn server_chain_up(&self, server: ServerId) -> impl Iterator<Item = ZoneId> + '_ {
        self.chain_up(self.home_zone_of(server))
    }

    /// `zone`, its parent, and so on up to (not including) the root, read
    /// off the precomputed parent links: for `zone ==
    /// self.zone_of(name)`, exactly [`Universe::chain_zones`] of `name`,
    /// **deepest first**. Empty for `None` and for the root zone.
    pub fn chain_up(&self, zone: Option<ZoneId>) -> impl Iterator<Item = ZoneId> + '_ {
        let mut at = zone;
        std::iter::from_fn(move || {
            let zid = at?;
            at = self.parent_zone_of(zid);
            // Only a parentless zone can be the root.
            if at.is_none() && self.zone(zid).origin.is_root() {
                return None;
            }
            Some(zid)
        })
    }

    /// [`Universe::server_chain_up`] root-first — exactly
    /// [`Universe::chain_zones`] of `server`'s name — into a caller-owned
    /// buffer (cleared first).
    pub fn server_chain_into(&self, server: ServerId, out: &mut Vec<ZoneId>) {
        out.clear();
        out.extend(self.server_chain_up(server));
        out.reverse();
    }

    /// The deepest zone strictly enclosing `zone`'s origin, precomputed at
    /// build time (no lookups, no allocation). `None` for the root zone
    /// and for origins with no registered proper ancestor.
    pub fn parent_zone_of(&self, zone: ZoneId) -> Option<ZoneId> {
        match self.zone_parent[zone.index()] {
            u32::MAX => None,
            z => Some(ZoneId(z)),
        }
    }

    /// Decomposes the universe into the event stream that rebuilds it
    /// verbatim: one [`UniverseEvent::ServerFacts`] per server in id
    /// order (the assessed verdicts carried explicitly — the universe
    /// holds no banner to re-assess), then one [`UniverseEvent::Zone`]
    /// per zone in id order.
    /// Replaying through [`UniverseBuilder::apply`] yields an equal
    /// universe with identical ids — this is how prebuilt worlds enter
    /// the streaming ingestion pipeline.
    pub fn into_events(self) -> impl Iterator<Item = UniverseEvent> + Send {
        let Universe { zones, servers, .. } = self;
        let server_names: Vec<DnsName> = servers.iter().map(|s| s.name.clone()).collect();
        let server_events = servers.into_iter().map(|s| UniverseEvent::ServerFacts {
            name: s.name,
            vulnerable: s.vulnerable,
            scripted_exploit: s.scripted_exploit,
            is_root: s.is_root,
        });
        let zone_events = zones.into_iter().map(move |z| UniverseEvent::Zone {
            origin: z.origin,
            ns: z
                .ns
                .iter()
                .map(|s| server_names[s.index()].clone())
                .collect(),
        });
        server_events.chain(zone_events)
    }

    /// The fraction of non-root servers that are vulnerable (0 when
    /// every server is a root).
    pub fn vulnerable_fraction(&self) -> f64 {
        let (eligible, vulnerable) = self
            .servers
            .iter()
            .filter(|s| !s.is_root)
            .fold((0usize, 0usize), |(n, v), s| {
                (n + 1, v + usize::from(s.vulnerable))
            });
        if eligible == 0 {
            return 0.0;
        }
        vulnerable as f64 / eligible as f64
    }
}

/// One observation the [`UniverseBuilder`] consumes. This is the
/// core-layer event vocabulary of the streaming ingestion pipeline:
/// sources (the synthetic generator, packet scenarios, wire probes, zone
/// files via [`ZoneEvent`]) emit events, the builder interns zones and
/// servers as they arrive, and the engine never needs the whole world
/// materialized up front.
///
/// Events are order-insensitive: the builder merges NS-set fragments and
/// fixes up servers first seen as bare NS references once their facts
/// arrive, and the parent/home-zone links are derived from the final
/// zone set when the feed ends. Only *id assignment* depends on arrival
/// order (first mention wins); [`UniverseBuilder::finish_canonical`]
/// renumbers to an order-independent labeling when that matters.
#[derive(Debug, Clone, PartialEq)]
pub enum UniverseEvent {
    /// A nameserver with its `version.bind` banner, assessed against the
    /// run's [`VulnDb`] on arrival; the universe keeps the verdicts, not
    /// the banner.
    Server {
        /// Host name.
        name: DnsName,
        /// The banner, if any was obtained.
        banner: Option<String>,
        /// Whether the server serves the root zone.
        is_root: bool,
    },
    /// A nameserver with explicit vulnerability facts (bypassing banner
    /// assessment) — what [`Universe::into_events`] emits, so a
    /// decomposed universe round-trips verbatim.
    ServerFacts {
        /// Host name.
        name: DnsName,
        /// Whether the fingerprint matched a vulnerable version.
        vulnerable: bool,
        /// Whether a scripted exploit exists.
        scripted_exploit: bool,
        /// Whether the server serves the root zone.
        is_root: bool,
    },
    /// A zone with (a fragment of) its NS set; fragments for the same
    /// origin merge.
    Zone {
        /// The zone origin.
        origin: DnsName,
        /// NS host names (servers are created as unknown-safe
        /// placeholders when not yet seen, and fixed up later).
        ns: Vec<DnsName>,
    },
}

/// Streams a ground-truth [`ZoneRegistry`] as [`UniverseEvent`]s: one
/// server event per NS mention (apex sets first, then parent-side cuts,
/// per zone in registry order, roots flagged from the root zone's
/// apex), then one zone event per zone with its apex ∪ parent-view NS
/// set (covering parent/child NS-set drift). This is the **single**
/// registry walk: a registry enters a universe only by applying these
/// events to a [`UniverseBuilder`], and scenario sources call it with
/// their own banner lookups.
pub fn registry_events(
    registry: &ZoneRegistry,
    mut banner_of: impl FnMut(&DnsName) -> Option<String>,
) -> Vec<UniverseEvent> {
    let mut events = Vec::new();
    // First pass: every server named by any NS record.
    for zone in registry.iter() {
        let is_root_zone = zone.origin().is_root();
        for ns_name in zone.apex_ns_names() {
            events.push(UniverseEvent::Server {
                banner: banner_of(&ns_name),
                name: ns_name,
                is_root: is_root_zone,
            });
        }
        // Parent-side cuts may name servers the child apex does not.
        for cut in zone.cut_names() {
            for ns_name in zone.ns_names_at(cut) {
                events.push(UniverseEvent::Server {
                    banner: banner_of(&ns_name),
                    name: ns_name,
                    is_root: false,
                });
            }
        }
    }
    // Second pass: zones with their NS sets (apex ∪ parent view).
    for zone in registry.iter() {
        let mut ns_names = zone.apex_ns_names();
        // Merge the parent's view of this zone, if the parent is in the
        // registry (covers parent/child NS-set drift).
        if let Some(parent_origin) = zone.origin().parent() {
            for ancestor in
                std::iter::once(parent_origin.clone()).chain(parent_origin.ancestors().skip(1))
            {
                if let Some(parent_zone) = registry.get(&ancestor) {
                    for extra in parent_zone.ns_names_at(zone.origin()) {
                        if !ns_names.contains(&extra) {
                            ns_names.push(extra);
                        }
                    }
                    break;
                }
            }
        }
        events.push(UniverseEvent::Zone {
            origin: zone.origin().clone(),
            ns: ns_names,
        });
    }
    events
}

/// Universe construction from an event feed.
///
/// The builder is the single ingestion point of the streaming pipeline.
/// While events arrive it only *interns*: zones and servers in
/// first-mention order (stable ids — an id never changes once assigned,
/// merges never renumber), NS-set fragments merged per origin, servers
/// upgraded to root status by the root zone's NS set, and servers first
/// seen as bare NS references kept as unknown-safe placeholders until
/// their banner or facts arrive. No derived link is kept while the feed
/// runs, because nothing can read one before it ends:
/// [`UniverseBuilder::finish`] and [`UniverseBuilder::finish_canonical`]
/// derive every zone's parent and every server's home zone once, from
/// the final zone set.
///
/// Peak memory is therefore bounded by the *universe* being built —
/// never by the feed, which can be arbitrarily long and arbitrarily
/// reordered.
#[derive(Debug, Default)]
pub struct UniverseBuilder {
    /// The universe under construction; its link tables stay empty
    /// until finish.
    universe: Universe,
    /// Per server: interned from a bare NS reference, facts pending.
    placeholder: Vec<bool>,
    /// Each banner's verdicts once assessed against the db at address
    /// `verdict_db` (a feed repeats a handful of banners across all its
    /// servers, so each is parsed and matched once). The builder holds
    /// no borrow of the db, so a db at another address clears them.
    verdicts: HashMap<String, (bool, bool)>,
    verdict_db: usize,
}

/// Builds the origin and host-name maps of two entry tables — the one
/// derivation behind [`UniverseBuilder::finish_canonical`] and
/// [`Universe::from_snapshot_parts`]. Fails on a duplicate name.
fn name_maps(
    zones: &[ZoneEntry],
    servers: &[ServerEntry],
) -> Result<(NameIdMap, NameIdMap), String> {
    let mut zone_by_origin = NameIdMap::with_capacity(zones.len());
    for i in 0..zones.len() as u32 {
        if zone_by_origin
            .insert(i, |j| zones[j as usize].origin.labels())
            .is_some()
        {
            return Err("duplicate zone origins".to_string());
        }
    }
    let mut server_by_name = NameIdMap::with_capacity(servers.len());
    for i in 0..servers.len() as u32 {
        if server_by_name
            .insert(i, |j| servers[j as usize].name.labels())
            .is_some()
        {
            return Err("duplicate server names".to_string());
        }
    }
    Ok((zone_by_origin, server_by_name))
}

impl UniverseBuilder {
    /// The `(vulnerable, scripted_exploit)` verdicts of `banner` against
    /// `db`; no banner, or one naming no known version, is safe.
    fn assess(&mut self, banner: Option<String>, db: &VulnDb) -> (bool, bool) {
        let Some(banner) = banner else {
            return (false, false);
        };
        let db_addr = std::ptr::from_ref(db) as usize;
        if self.verdict_db != db_addr {
            self.verdicts.clear();
            self.verdict_db = db_addr;
        }
        if let Some(&verdicts) = self.verdicts.get(&banner) {
            return verdicts;
        }
        let verdicts = match BindVersion::parse(&banner) {
            Some(version) => (
                db.is_vulnerable(&version),
                db.has_scripted_exploit(&version),
            ),
            None => (false, false),
        };
        self.verdicts.insert(banner, verdicts);
        verdicts
    }

    /// Interns a new server (the caller has checked it is absent and
    /// lowercased its name). The name map is keyed by the freshly pushed
    /// entry, so no name is cloned.
    fn intern_server(&mut self, entry: ServerEntry, placeholder: bool) -> ServerId {
        let id = ServerId(self.universe.servers.len() as u32);
        self.universe.servers.push(entry);
        let Universe {
            servers,
            server_by_name,
            ..
        } = &mut self.universe;
        let servers: &[ServerEntry] = servers;
        server_by_name.insert(id.0, |i| servers[i as usize].name.labels());
        self.placeholder.push(placeholder);
        id
    }

    /// Adds (or finds) a server, assessing its banner against `db`. A
    /// new server keeps `name`, lowercased in place.
    ///
    /// A server first seen as a bare NS reference (an unknown-safe
    /// placeholder) is **fixed up in place**: its banner is assessed as if
    /// it had arrived first, so event order does not change the built
    /// universe. A server already carrying facts only upgrades its root
    /// flag.
    pub fn ensure_server(
        &mut self,
        name: DnsName,
        banner: Option<String>,
        db: &VulnDb,
        is_root: bool,
    ) -> ServerId {
        if let Some(id) = self.universe.server_id(&name) {
            if self.placeholder[id.index()] {
                let (vulnerable, scripted_exploit) = self.assess(banner, db);
                let entry = &mut self.universe.servers[id.index()];
                entry.vulnerable = vulnerable;
                entry.scripted_exploit = scripted_exploit;
                self.placeholder[id.index()] = false;
            }
            // Upgrade root status if this server also serves the root.
            self.universe.servers[id.index()].is_root |= is_root;
            return id;
        }
        let (vulnerable, scripted_exploit) = self.assess(banner, db);
        self.intern_server(
            ServerEntry {
                name: name.into_lowercase(),
                vulnerable,
                scripted_exploit,
                is_root,
            },
            false,
        )
    }

    /// Adds a server with explicit vulnerability facts (bypassing banner
    /// assessment) — used by tests and synthetic generators.
    pub fn raw_server(&mut self, name: &DnsName, vulnerable: bool, is_root: bool) -> ServerId {
        self.facts_server(name, vulnerable, vulnerable, is_root)
    }

    /// Adds a server with fully explicit facts (what
    /// [`Universe::into_events`] emits), so decomposed universes
    /// round-trip verbatim.
    fn facts_server(
        &mut self,
        name: &DnsName,
        vulnerable: bool,
        scripted_exploit: bool,
        is_root: bool,
    ) -> ServerId {
        if let Some(id) = self.universe.server_id(name) {
            let entry = &mut self.universe.servers[id.index()];
            self.placeholder[id.index()] = false;
            entry.vulnerable |= vulnerable;
            entry.scripted_exploit |= scripted_exploit;
            entry.is_root |= is_root;
            return id;
        }
        self.intern_server(
            ServerEntry {
                name: name.to_lowercase(),
                vulnerable,
                scripted_exploit,
                is_root,
            },
            false,
        )
    }

    /// Adds a zone with NS host names. Servers not yet seen are created
    /// as unknown-safe placeholders and fixed up when their facts arrive
    /// ([`UniverseBuilder::ensure_server`]). A zone's NS list holds each
    /// server once, in first-mention order: a host named twice (in any
    /// case mix) counts once, and a duplicate origin merges NS sets the
    /// same way. The **root** zone's NS set upgrades its servers to root
    /// status — so a pure [`ZoneEvent`] feed (which has no server events)
    /// classifies roots identically to a [`registry_events`] feed.
    pub fn add_zone(&mut self, origin: &DnsName, ns_names: &[DnsName]) -> ZoneId {
        let at_root = origin.is_root();
        let ns: Vec<ServerId> = ns_names
            .iter()
            .map(|n| {
                let id = match self.universe.server_id(n) {
                    Some(id) => id,
                    None => self.intern_server(
                        ServerEntry {
                            name: n.to_lowercase(),
                            vulnerable: false,
                            scripted_exploit: false,
                            is_root: false,
                        },
                        true,
                    ),
                };
                if at_root {
                    self.universe.servers[id.index()].is_root = true;
                }
                id
            })
            .collect();
        let id = match self.universe.zone_id(origin) {
            Some(existing) => existing,
            None => {
                let id = ZoneId(self.universe.zones.len() as u32);
                self.universe.zones.push(ZoneEntry {
                    origin: origin.to_lowercase(),
                    ns: Vec::with_capacity(ns.len()),
                });
                let Universe {
                    zones,
                    zone_by_origin,
                    ..
                } = &mut self.universe;
                let zones: &[ZoneEntry] = zones;
                zone_by_origin.insert(id.0, |i| zones[i as usize].origin.labels());
                id
            }
        };
        // A first insertion merges into the empty set, so it drops a
        // repeated server exactly as a duplicate origin does.
        let entry = &mut self.universe.zones[id.index()];
        for sid in ns {
            if !entry.ns.contains(&sid) {
                entry.ns.push(sid);
            }
        }
        id
    }

    /// Applies one core-layer event ([`UniverseEvent`]).
    pub fn apply(&mut self, event: UniverseEvent, db: &VulnDb) {
        match event {
            UniverseEvent::Server {
                name,
                banner,
                is_root,
            } => {
                self.ensure_server(name, banner, db, is_root);
            }
            UniverseEvent::ServerFacts {
                name,
                vulnerable,
                scripted_exploit,
                is_root,
            } => {
                self.facts_server(&name, vulnerable, scripted_exploit, is_root);
            }
            UniverseEvent::Zone { origin, ns } => {
                self.add_zone(&origin, &ns);
            }
        }
    }

    /// Applies one dns-layer event ([`ZoneEvent`]): a cut interns its
    /// zone and NS servers, and glue is dropped — the universe models
    /// delegation structure, not addresses, so a glue record interns no
    /// zone and no server.
    pub fn apply_zone_event(&mut self, event: ZoneEvent) {
        match event {
            ZoneEvent::Cut { zone, ns } => {
                self.add_zone(&zone, &ns);
            }
            ZoneEvent::Glue { .. } => {}
        }
    }

    /// Finalizes the universe with first-mention ids, deriving every
    /// parent and home-zone link from the final zone set.
    pub fn finish(self) -> Universe {
        let mut universe = self.universe;
        universe.derive_links();
        universe
    }

    /// Finalizes into the **canonical** labeling: servers renumbered in
    /// name order, zones in origin order, NS sets sorted. Two builders
    /// fed the same observations in any order (and any sharding) produce
    /// byte-identical canonical universes, which is what the
    /// streamed-vs-materialized equivalence tests pin. The default
    /// [`UniverseBuilder::finish`] keeps first-mention ids instead, so
    /// the classic generator path stays bit-compatible with its goldens.
    ///
    /// Entries are moved into their sorted places, and links are derived
    /// only after sorting, so no link needs renumbering.
    pub fn finish_canonical(self) -> Universe {
        let Universe {
            mut zones, servers, ..
        } = self.universe;
        let mut servers: Vec<(u32, ServerEntry)> = (0..).zip(servers).collect();
        servers.sort_unstable_by(|a, b| a.1.name.cmp(&b.1.name));
        let mut new_server = vec![0u32; servers.len()];
        for (new, (old, _)) in servers.iter().enumerate() {
            new_server[*old as usize] = new as u32;
        }
        let servers: Vec<ServerEntry> = servers.into_iter().map(|(_, s)| s).collect();
        for zone in &mut zones {
            for s in &mut zone.ns {
                *s = ServerId(new_server[s.index()]);
            }
            zone.ns.sort_unstable();
        }
        zones.sort_unstable_by(|a, b| a.origin.cmp(&b.origin));
        let (zone_by_origin, server_by_name) =
            name_maps(&zones, &servers).expect("the builder interns each name once");
        let mut universe = Universe {
            zones,
            zone_by_origin,
            servers,
            server_by_name,
            server_home: Vec::new(),
            zone_parent: Vec::new(),
        };
        universe.derive_links();
        universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::name::name;

    fn tiny_universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.raw_server(&name("ns.tld.test"), false, false);
        b.raw_server(&name("ns1.example.com"), true, false);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("ns.tld.test")]);
        b.add_zone(
            &name("example.com"),
            &[name("ns1.example.com"), name("ns2.example.com")],
        );
        b.finish()
    }

    #[test]
    fn builder_dedup_and_lookup() {
        let u = tiny_universe();
        assert_eq!(u.zone_count(), 3);
        assert_eq!(u.server_count(), 4, "ns2 auto-created");
        assert!(
            u.server_id(&name("NS1.EXAMPLE.COM")).is_some(),
            "case-insensitive"
        );
        let ns1 = u.server_id(&name("ns1.example.com")).unwrap();
        assert!(u.server(ns1).vulnerable);
        let ns2 = u.server_id(&name("ns2.example.com")).unwrap();
        assert!(!u.server(ns2).vulnerable, "unknown servers assumed safe");
    }

    #[test]
    fn chain_zones_excludes_root() {
        let u = tiny_universe();
        let chain = u.chain_zones(&name("www.example.com"));
        let origins: Vec<String> = chain
            .iter()
            .map(|&z| u.zone(z).origin.to_string())
            .collect();
        assert_eq!(origins, vec!["com", "example.com"]);
    }

    /// The two empty chains: a root-homed server, and a server no zone
    /// encloses (a universe without a root zone).
    #[test]
    fn server_chains_stop_below_the_root() {
        let u = tiny_universe();
        let root_ns = u.server_id(&name("a.root-servers.net")).unwrap();
        assert_eq!(u.home_zone_of(root_ns), u.zone_id(&DnsName::root()));
        assert_eq!(u.server_chain_up(root_ns).count(), 0);
        let mut b = Universe::builder();
        b.add_zone(&name("x.test"), &[name("ns.elsewhere.org")]);
        let u = b.finish();
        let sid = u.server_id(&name("ns.elsewhere.org")).unwrap();
        assert_eq!(u.home_zone_of(sid), None);
        assert_eq!(u.server_chain_up(sid).count(), 0);
    }

    #[test]
    fn snapshot_parts_reject_a_parent_that_is_not_an_ancestor() {
        let u = tiny_universe();
        let (zones, servers, server_home, zone_parent) = u.snapshot_parts();
        // com ↔ example.com: a parent cycle would never end a chain walk.
        let mut cyclic = zone_parent.to_vec();
        cyclic[u.zone_id(&name("com")).unwrap().index()] =
            u.zone_id(&name("example.com")).unwrap().0;
        let err = Universe::from_snapshot_parts(
            zones.to_vec(),
            servers.to_vec(),
            server_home.to_vec(),
            cyclic,
        )
        .expect_err("cycle rejected");
        assert!(err.contains("not an ancestor"), "{err}");

        // Shorter than its child but not a suffix of it: example.com
        // hung under org would pass a label-count check.
        let mut b = Universe::builder();
        b.raw_server(&name("ns1.example.com"), false, false);
        b.add_zone(&name("com"), &[name("ns.tld.test")]);
        b.add_zone(&name("org"), &[name("ns.tld.test")]);
        b.add_zone(&name("example.com"), &[name("ns1.example.com")]);
        let u = b.finish();
        let (zones, servers, server_home, zone_parent) = u.snapshot_parts();
        let org = u.zone_id(&name("org")).unwrap();
        let mut forged = zone_parent.to_vec();
        forged[u.zone_id(&name("example.com")).unwrap().index()] = org.0;
        let err = Universe::from_snapshot_parts(
            zones.to_vec(),
            servers.to_vec(),
            server_home.to_vec(),
            forged,
        )
        .expect_err("cousin parent rejected");
        assert!(err.contains("not an ancestor"), "{err}");

        // A home zone must enclose its server's name.
        let mut forged = server_home.to_vec();
        forged[u.server_id(&name("ns1.example.com")).unwrap().index()] = org.0;
        let err = Universe::from_snapshot_parts(
            zones.to_vec(),
            servers.to_vec(),
            forged,
            zone_parent.to_vec(),
        )
        .expect_err("foreign home rejected");
        assert!(err.contains("does not enclose"), "{err}");

        // The unforged parts still load.
        Universe::from_snapshot_parts(
            zones.to_vec(),
            servers.to_vec(),
            server_home.to_vec(),
            zone_parent.to_vec(),
        )
        .expect("genuine links load");
    }

    #[test]
    fn zone_of_finds_deepest() {
        let u = tiny_universe();
        assert_eq!(
            u.zone_of(&name("www.example.com")),
            u.zone_id(&name("example.com"))
        );
        assert_eq!(u.zone_of(&name("other.com")), u.zone_id(&name("com")));
        assert_eq!(u.zone_of(&name("other.org")), u.zone_id(&DnsName::root()));
    }

    #[test]
    fn vulnerable_fraction_skips_roots() {
        let u = tiny_universe();
        // 3 non-root servers, 1 vulnerable.
        assert!((u.vulnerable_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_zone_merges_ns() {
        // Mentions differ in case only: one zone and one ns1, interned
        // lowercase.
        let mut b = Universe::builder();
        b.add_zone(&name("x.test"), &[name("NS1.X.test")]);
        b.add_zone(&name("X.Test"), &[name("ns1.x.test"), name("ns2.x.test")]);
        let u = b.finish();
        assert_eq!(u.zone_count(), 1);
        assert_eq!(u.server_count(), 2);
        let z = u.zone(u.zone_id(&name("x.test")).unwrap());
        assert_eq!(z.origin.to_string(), "x.test");
        assert_eq!(z.ns.len(), 2);
        assert_eq!(u.server(z.ns[0]).name.to_string(), "ns1.x.test");
    }

    /// The deepest zone whose origin is one of `name`'s ancestors past the
    /// first `skip`, found by comparing owned ancestor names against every
    /// origin — no origin map, no precomputed link.
    fn ancestor_walk(u: &Universe, name: &DnsName, skip: usize) -> Option<ZoneId> {
        name.ancestors()
            .skip(skip)
            .find_map(|a| u.zone_ids().find(|&z| u.zone(z).origin == a))
    }

    #[test]
    fn links_match_an_ancestor_walk_under_any_insertion_order() {
        // Adversarial order: deep zones and servers first, ancestors
        // later, so a link resolved at arrival would be stale at finish.
        let feed = || {
            let mut b = Universe::builder();
            b.add_zone(&name("a.b.c.test"), &[name("ns.a.b.c.test")]);
            b.raw_server(&name("ns.mid.c.test"), false, false);
            b.add_zone(&name("test"), &[name("ns.test")]);
            b.add_zone(&name("c.test"), &[name("ns.c.test")]);
            b.add_zone(&name("b.c.test"), &[name("ns.b.c.test")]);
            b.add_zone(&DnsName::root(), &[name("ns.test")]);
            // No `example` zone: this parent link skips to the root.
            b.add_zone(&name("x.example"), &[name("ns.x.example")]);
            b
        };
        for u in [feed().finish(), feed().finish_canonical()] {
            for zid in u.zone_ids() {
                assert_eq!(
                    u.parent_zone_of(zid),
                    ancestor_walk(&u, &u.zone(zid).origin, 1),
                    "parent of {}",
                    u.zone(zid).origin
                );
            }
            for sid in u.server_ids() {
                assert_eq!(
                    u.home_zone_of(sid),
                    ancestor_walk(&u, &u.server(sid).name, 0),
                    "home of {}",
                    u.server(sid).name
                );
            }
            let zid = |n: &str| u.zone_id(&name(n)).expect(n);
            assert_eq!(u.parent_zone_of(zid("a.b.c.test")), Some(zid("b.c.test")));
            assert_eq!(u.parent_zone_of(zid("test")), u.zone_id(&DnsName::root()));
            assert_eq!(u.parent_zone_of(u.zone_id(&DnsName::root()).unwrap()), None);
            assert_eq!(
                u.home_zone_of(u.server_id(&name("ns.mid.c.test")).unwrap()),
                Some(zid("c.test")),
                "server seen before its home zone"
            );
        }
    }

    #[test]
    fn placeholder_servers_fix_up_when_facts_arrive() {
        let db = VulnDb::isc_feb_2004();
        // NS reference first: unknown-safe placeholder.
        let mut b = Universe::builder();
        b.add_zone(&name("x.test"), &[name("ns1.x.test")]);
        // Facts arrive later and are applied as if they came first.
        b.ensure_server(name("ns1.x.test"), Some("8.2.4".into()), &db, false);
        let late = b.finish();

        let mut b = Universe::builder();
        b.ensure_server(name("ns1.x.test"), Some("8.2.4".into()), &db, false);
        b.add_zone(&name("x.test"), &[name("ns1.x.test")]);
        let early = b.finish();

        assert_eq!(late, early, "event order must not change the universe");
        let ns1 = late.server_id(&name("ns1.x.test")).unwrap();
        assert!(late.server(ns1).vulnerable);
        // A server that already carries facts is not overwritten.
        let mut b = Universe::builder();
        b.ensure_server(name("ns1.x.test"), Some("9.2.3".into()), &db, false);
        b.ensure_server(name("ns1.x.test"), Some("8.2.4".into()), &db, false);
        let first_wins = b.finish();
        let ns1 = first_wins.server_id(&name("ns1.x.test")).unwrap();
        assert!(!first_wins.server(ns1).vulnerable);
    }

    #[test]
    fn zone_events_ingest_and_glue_interns_nothing() {
        use perils_dns::zone::ZoneEvent;
        let mut b = Universe::builder();
        // Glue before anything references its host, and glue for a host
        // nothing ever references: neither interns a server or a zone.
        for host in ["ns1.x.test", "stray.y.test"] {
            b.apply_zone_event(ZoneEvent::Glue {
                host: name(host),
                addr: "10.0.0.1".parse().unwrap(),
            });
        }
        b.apply_zone_event(ZoneEvent::Cut {
            zone: name("x.test"),
            ns: vec![name("ns1.x.test")],
        });
        b.apply_zone_event(ZoneEvent::Cut {
            zone: name("x.test"),
            ns: vec![name("ns2.x.test")],
        });
        let u = b.finish();
        assert_eq!(u.zone_count(), 1, "glue interns no zone");
        assert_eq!(u.server_count(), 2, "glue interns no server");
        assert_eq!(u.server_id(&name("stray.y.test")), None);
        let z = u.zone(u.zone_id(&name("x.test")).unwrap());
        assert_eq!(z.ns.len(), 2, "NS fragments merge");
    }

    #[test]
    fn canonical_finish_is_order_independent() {
        let db = VulnDb::isc_feb_2004();
        let events = |b: &mut UniverseBuilder, order: &[usize]| {
            let all: Vec<UniverseEvent> = vec![
                UniverseEvent::Server {
                    name: name("ns.tld.test"),
                    banner: Some("9.2.3".into()),
                    is_root: false,
                },
                UniverseEvent::Server {
                    name: name("ns1.example.com"),
                    banner: Some("8.2.4".into()),
                    is_root: false,
                },
                UniverseEvent::Zone {
                    origin: name("com"),
                    ns: vec![name("ns.tld.test")],
                },
                UniverseEvent::Zone {
                    origin: name("example.com"),
                    ns: vec![name("ns1.example.com"), name("ns.tld.test")],
                },
            ];
            for &i in order {
                b.apply(all[i].clone(), &db);
            }
        };
        let mut forward = Universe::builder();
        events(&mut forward, &[0, 1, 2, 3]);
        let forward = forward.finish_canonical();
        let mut backward = Universe::builder();
        events(&mut backward, &[3, 2, 1, 0]);
        let backward = backward.finish_canonical();
        assert_eq!(forward, backward);
        // Canonical ids are name-sorted.
        let names: Vec<String> = forward
            .server_ids()
            .map(|s| forward.server(s).name.to_string())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn into_events_round_trips_verbatim() {
        let u = tiny_universe();
        let db = VulnDb::isc_feb_2004();
        let mut b = Universe::builder();
        for event in u.clone().into_events() {
            b.apply(event, &db);
        }
        assert_eq!(b.finish(), u);
    }

    #[test]
    fn registry_events_build_with_banners() {
        use perils_dns::rr::RData;
        use perils_dns::zone::Zone;
        let mut reg = ZoneRegistry::new();
        let mut root = Zone::synthetic(DnsName::root(), name("a.root-servers.net"));
        root.add_rdata(DnsName::root(), RData::Ns(name("a.root-servers.net")))
            .unwrap();
        root.add_rdata(name("com"), RData::Ns(name("ns.tld.test")))
            .unwrap();
        reg.insert(root);
        let mut com = Zone::synthetic(name("com"), name("ns.tld.test"));
        com.add_rdata(name("com"), RData::Ns(name("ns.tld.test")))
            .unwrap();
        com.add_rdata(name("example.com"), RData::Ns(name("ns1.example.com")))
            .unwrap();
        reg.insert(com);
        let mut example = Zone::synthetic(name("example.com"), name("ns1.example.com"));
        example
            .add_rdata(name("example.com"), RData::Ns(name("ns1.example.com")))
            .unwrap();
        reg.insert(example);

        let db = VulnDb::isc_feb_2004();
        let mut b = Universe::builder();
        for event in registry_events(&reg, |server| {
            if server == &name("ns1.example.com") {
                Some("8.2.4".to_string())
            } else {
                Some("9.2.3".to_string())
            }
        }) {
            b.apply(event, &db);
        }
        let u = b.finish();
        assert_eq!(u.zone_count(), 3);
        let ns1 = u.server_id(&name("ns1.example.com")).unwrap();
        assert!(u.server(ns1).vulnerable);
        assert!(u.server(ns1).scripted_exploit);
        let root_server = u.server_id(&name("a.root-servers.net")).unwrap();
        assert!(u.server(root_server).is_root);
        assert!(!u.server(root_server).vulnerable);
    }

    /// The `(vulnerable, scripted_exploit)` verdicts the builder reaches
    /// for one server event carrying `banner`.
    fn assessed(banner: Option<&str>) -> (bool, bool) {
        let host = name("ns.example.com");
        let mut b = Universe::builder();
        b.apply(
            UniverseEvent::Server {
                name: host.clone(),
                banner: banner.map(str::to_string),
                is_root: false,
            },
            &VulnDb::isc_feb_2004(),
        );
        let u = b.finish();
        let server = u.server(u.server_id(&host).unwrap());
        (server.vulnerable, server.scripted_exploit)
    }

    #[test]
    fn vulnerable_banner() {
        assert_eq!(assessed(Some("BIND 8.2.4")), (true, true));
    }

    #[test]
    fn clean_banner() {
        assert_eq!(assessed(Some("9.2.3")), (false, false));
    }

    #[test]
    fn optimistic_rule_for_hidden_and_unknown() {
        // Servers whose version is hidden or unknown are assumed safe.
        assert_eq!(assessed(Some("none of your business")), (false, false));
        assert_eq!(assessed(None), (false, false));
    }
}
