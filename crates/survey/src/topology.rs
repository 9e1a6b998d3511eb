//! The synthetic internet generator.
//!
//! Plans a world: zones, nameservers, operators and surveyed names whose
//! *generative mechanisms* mirror the ones the paper identifies (see the
//! crate docs). Everything is deterministic in the seed.
//!
//! The same world plan can be materialized two ways, both through
//! [`crate::engine::SyntheticSource`]:
//! * [`WorldSource::stream`](crate::engine::WorldSource::stream) — the
//!   analysis model as an event stream (any scale);
//! * [`SyntheticSource::scenario`](crate::engine::SyntheticSource::scenario)
//!   — a packet-level [`perils_authserver::Scenario`] with real zones,
//!   glue and server specs (small scales; used to cross-validate the
//!   structural analysis against wire-probed discovery).

use crate::params::TopologyParams;
use perils_authserver::deploy::ServerSpec;
use perils_authserver::scenarios::Scenario;
use perils_authserver::software::ServerSoftware;
use perils_core::universe::UniverseEvent;
use perils_dns::name::{name, DnsName};
use perils_dns::rr::RData;
use perils_dns::zone::{Zone, ZoneRegistry};
use perils_netsim::{IpAllocator, Region};
use perils_util::dist::{AliasTable, ZipfTable};
use perils_util::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// The twelve gTLDs of Figure 3, in the paper's plotted order.
pub const GTLDS: [&str; 12] = [
    "aero", "int", "name", "mil", "info", "edu", "biz", "gov", "org", "net", "com", "coop",
];

/// The fifteen worst ccTLDs of Figure 4, in the paper's plotted order,
/// followed by other real codes; synthetic codes fill any remainder.
pub const CCTLD_SEED: [&str; 30] = [
    "ua", "by", "sm", "mt", "my", "pl", "it", "mo", "am", "ie", "tp", "mk", "hk", "tw", "cn", "ws",
    "de", "uk", "fr", "jp", "nl", "ru", "br", "au", "ca", "se", "no", "fi", "es", "gr",
];

/// Number of communities in the volunteer backbone chain.
const BACKBONE_COMMUNITIES: usize = 10;

/// Vulnerable-operator version choices (all in the ISC Feb-2004 matrix).
const VULNERABLE_VERSIONS: [&str; 6] = ["8.2.4", "8.2.2-P5", "8.2.1", "8.3.1", "8.2.3", "9.2.1"];
/// Clean-operator version choices.
const CLEAN_VERSIONS: [&str; 6] = ["9.2.3", "9.2.2", "8.4.4", "8.3.7", "9.3.0", "4.9.11"];

/// Host labels a directory crawl surfaces under one domain, in probe
/// order. Pairwise distinct: the sampler identifies a crawled name by
/// `(domain, slot)`, and [`TopologyParams::validate`] caps `names` at
/// this many per domain.
pub(crate) const CRAWL_HOSTS: [&str; 10] = [
    "www", "web", "mail", "news", "shop", "ftp", "w3", "portal", "images", "search",
];

/// One surveyed (crawled) name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurveyName {
    /// The web-server name (e.g. `www.site123.com`).
    pub name: DnsName,
    /// Popularity rank of its domain (0 = most popular).
    pub popularity_rank: usize,
}

impl SurveyName {
    /// The name's TLD: its last label as a one-label name (the root for
    /// the root name).
    pub fn tld(&self) -> DnsName {
        self.name.tld().unwrap_or_else(DnsName::root)
    }
}

/// A zone in the world plan.
#[derive(Debug, Clone)]
struct ZonePlan {
    origin: DnsName,
    ns: Vec<DnsName>,
    /// The zone's own boxes, as indices into the plan's servers: a
    /// packet-level scenario gives each an A record here, whether or not
    /// decay kept it in the NS set.
    own: Range<usize>,
}

/// A server in the world plan.
#[derive(Debug, Clone)]
struct ServerPlan {
    name: DnsName,
    version: &'static str,
    region: u16,
    is_root: bool,
}

/// Plans a synthetic world without materializing it (deterministic in
/// `params.seed`).
pub(crate) fn plan_world(params: &TopologyParams) -> WorldPlan {
    params.validate();
    Generator::new(params).plan()
}

/// The fully planned world before any materialization: compact zone and
/// server plans, the crawled name sample, and the popularity subset.
///
/// A plan is the only source of truth for synthetic worlds:
/// [`WorldPlan::into_stream_parts`] drains it as an incremental
/// [`UniverseEvent`] feed, so the engine's universe builder — not the
/// generator — owns the only full-world allocation, and
/// [`WorldPlan::build_scenario`] materializes it as packets.
#[derive(Debug)]
pub(crate) struct WorldPlan {
    zones: Vec<ZonePlan>,
    servers: Vec<ServerPlan>,
    roots: Vec<DnsName>,
    /// Index of the first second-level domain zone; every zone from here
    /// on is one, and its surveyed web host is `www.<origin>`.
    first_domain: usize,
    names: Vec<SurveyName>,
    top500: Vec<usize>,
}

impl WorldPlan {
    /// Decomposes the plan into the streaming parts: a lazy
    /// [`UniverseEvent`] iterator (every server with its version banner
    /// in plan order, then every zone with its NS set),
    /// the surveyed names, and the top-500 index subset. Each plan entry
    /// is dropped as its event is consumed.
    pub(crate) fn into_stream_parts(
        self,
    ) -> (
        impl Iterator<Item = UniverseEvent> + Send,
        Vec<SurveyName>,
        Vec<usize>,
    ) {
        let WorldPlan {
            zones,
            servers,
            names,
            top500,
            ..
        } = self;
        let events = servers
            .into_iter()
            .map(|server| UniverseEvent::Server {
                name: server.name,
                banner: Some(server.version.to_string()),
                is_root: server.is_root,
            })
            .chain(zones.into_iter().map(|plan| UniverseEvent::Zone {
                origin: plan.origin,
                ns: plan.ns,
            }));
        (events, names, top500)
    }

    /// Materializes a packet-level scenario: full zones with glue, server
    /// specs, root hints. Intended for small worlds (tests, examples);
    /// memory grows linearly with zones.
    pub(crate) fn build_scenario(&self) -> Scenario {
        let mut registry = ZoneRegistry::new();
        let mut alloc = IpAllocator::new();
        // Allocate addresses deterministically in server order.
        let mut addr_of: BTreeMap<DnsName, std::net::Ipv4Addr> = BTreeMap::new();
        for server in &self.servers {
            addr_of.insert(server.name.clone(), alloc.alloc(Region(server.region)));
        }
        let origins: BTreeSet<DnsName> = self.zones.iter().map(|z| z.origin.clone()).collect();
        // Build zones.
        for plan in &self.zones {
            let primary = plan
                .ns
                .first()
                .cloned()
                .unwrap_or_else(|| name("a.root-servers.net"));
            let mut zone = Zone::synthetic(plan.origin.clone(), primary);
            for ns in &plan.ns {
                zone.add_rdata(plan.origin.clone(), RData::Ns(ns.clone()))
                    .expect("NS at apex is valid");
            }
            registry.insert(zone);
        }
        // Parent-side delegations + glue, plus host A records.
        let mut delegations: Vec<(DnsName, DnsName, Vec<DnsName>)> = Vec::new();
        for plan in &self.zones {
            if plan.origin.is_root() {
                continue;
            }
            let parent = plan
                .origin
                .parent()
                .map(|p| {
                    p.ancestors()
                        .find(|a| origins.contains(a))
                        .expect("root zone exists as ultimate ancestor")
                })
                .unwrap_or_else(DnsName::root);
            delegations.push((parent, plan.origin.clone(), plan.ns.clone()));
        }
        for (parent, child, ns) in delegations {
            let parent_zone = registry.get_mut(&parent).expect("parent zone exists");
            for host in &ns {
                parent_zone
                    .add_rdata(child.clone(), RData::Ns(host.clone()))
                    .expect("delegation NS is valid");
            }
            // Glue for in-bailiwick NS.
            for host in &ns {
                if host.is_proper_subdomain_of(&child) || host == &child {
                    if let Some(&addr) = addr_of.get(host) {
                        let _ = parent_zone.add_rdata(host.clone(), RData::A(addr));
                    }
                }
            }
        }
        // Host A records: each zone's own boxes, then a domain's web host.
        for (i, plan) in self.zones.iter().enumerate() {
            let zone = registry.get_mut(&plan.origin).expect("zone exists");
            for server in &self.servers[plan.own.clone()] {
                let _ = zone.add_rdata(server.name.clone(), RData::A(addr_of[&server.name]));
            }
            if i >= self.first_domain {
                let www = plan.origin.prepend("www").expect("short label");
                let _ = zone.add_rdata(www, RData::A("203.0.113.7".parse().expect("static")));
            }
        }
        // Server specs: a server hosts every zone listing it at the apex.
        let mut zones_of: BTreeMap<DnsName, Vec<DnsName>> = BTreeMap::new();
        for plan in &self.zones {
            for ns in &plan.ns {
                zones_of
                    .entry(ns.clone())
                    .or_default()
                    .push(plan.origin.clone());
            }
        }
        let specs: Vec<ServerSpec> = self
            .servers
            .iter()
            .map(|server| ServerSpec {
                host_name: server.name.clone(),
                addr: addr_of[&server.name],
                software: ServerSoftware::bind(server.version),
                zones: zones_of.remove(&server.name).unwrap_or_default(),
            })
            .collect();
        let roots: Vec<(DnsName, std::net::Ipv4Addr)> =
            self.roots.iter().map(|n| (n.clone(), addr_of[n])).collect();
        Scenario {
            registry,
            specs,
            roots,
        }
    }
}

/// Operator kinds, used for software assignment and Figure 9 grouping.
struct Generator<'p> {
    params: &'p TopologyParams,
    rng: Rng,
    zones: Vec<ZonePlan>,
    servers: Vec<ServerPlan>,
    roots: Vec<DnsName>,
    /// Server names per provider.
    provider_boxes: Vec<Vec<DnsName>>,
    /// Server names per university operator.
    university_boxes: Vec<Vec<DnsName>>,
    /// Indices into `university_boxes` of the volunteer pool (dense
    /// community webs; hosts ccTLD and aero/int slaves).
    pool: Vec<usize>,
    /// Names `crawl_names` built, accepted or not.
    #[cfg(test)]
    names_built: usize,
}

impl<'p> Generator<'p> {
    fn new(params: &'p TopologyParams) -> Generator<'p> {
        Generator {
            params,
            rng: Rng::new(params.seed).fork(0x746f_706f),
            zones: Vec::new(),
            servers: Vec::new(),
            roots: Vec::new(),
            provider_boxes: Vec::new(),
            university_boxes: Vec::new(),
            pool: Vec::new(),
            #[cfg(test)]
            names_built: 0,
        }
    }

    /// Mints a server. No name is minted twice: each sits under its
    /// operator's own zone, and no two operators share an origin.
    fn add_server(&mut self, host: &DnsName, version: &'static str, region: u16, is_root: bool) {
        self.servers.push(ServerPlan {
            name: host.clone(),
            version,
            region,
            is_root,
        });
    }

    /// Adds a zone whose own boxes are the last `own` servers minted.
    fn add_zone(&mut self, origin: DnsName, ns: Vec<DnsName>, own: usize) {
        let end = self.servers.len();
        let own = end - own..end;
        self.zones.push(ZonePlan { origin, ns, own });
    }

    fn pick_version(&mut self, forced_vulnerable: Option<bool>) -> &'static str {
        let vulnerable = match forced_vulnerable {
            Some(v) => v,
            None => self.rng.chance(self.params.vulnerable_operator_fraction),
        };
        if vulnerable {
            VULNERABLE_VERSIONS[self.rng.below_usize(VULNERABLE_VERSIONS.len())]
        } else {
            CLEAN_VERSIONS[self.rng.below_usize(CLEAN_VERSIONS.len())]
        }
    }

    fn plan(mut self) -> WorldPlan {
        self.build_root_and_gtlds();
        let cctld_labels = self.build_cctlds();
        self.build_providers();
        self.build_universities();
        self.wire_cctld_slaves(&cctld_labels);
        let first_domain = self.zones.len();
        let domain_zones = self.build_domains(&cctld_labels);
        let names = self.crawl_names(&domain_zones);
        self.decay_delegations(domain_zones.len());

        // Top-500 by popularity rank.
        let mut by_rank: Vec<usize> = (0..names.len()).collect();
        by_rank.sort_by_key(|&i| names[i].popularity_rank);
        let top500: Vec<usize> = by_rank.into_iter().take(500).collect();

        WorldPlan {
            zones: self.zones,
            servers: self.servers,
            roots: self.roots,
            first_domain,
            names,
            top500,
        }
    }

    /// Root servers and the gTLD registry clusters.
    fn build_root_and_gtlds(&mut self) {
        // 13 root servers, trusted and excluded from TCBs.
        let mut root_ns = Vec::new();
        for letter in b'a'..=b'm' {
            let host = name(&format!("{}.root-servers.net", letter as char));
            self.add_server(&host, "9.2.3", 0, true);
            root_ns.push(host.clone());
            self.roots.push(host);
        }
        self.add_zone(DnsName::root(), root_ns.clone(), 0);
        self.add_zone(name("root-servers.net"), root_ns.clone(), root_ns.len());

        // com/net/org cluster: 13 servers in gtld-servers.net (glued,
        // self-contained) + a support zone nstld.com mirroring Figure 1.
        let mut gtld_ns = Vec::new();
        for letter in b'a'..=b'm' {
            let host = name(&format!("{}.gtld-servers.net", letter as char));
            self.add_server(&host, "9.2.3", 0, false);
            gtld_ns.push(host);
        }
        let mut nstld_ns = Vec::new();
        for letter in b'a'..=b'g' {
            let host = name(&format!("{}2.nstld.com", letter as char));
            self.add_server(&host, "9.2.3", 0, false);
            nstld_ns.push(host);
        }
        self.add_zone(name("gtld-servers.net"), nstld_ns.clone(), 0);
        let own = nstld_ns.len();
        self.add_zone(name("nstld.com"), nstld_ns, own);
        for tld in ["com", "net", "org"] {
            self.add_zone(name(tld), gtld_ns.clone(), 0);
        }

        // Dedicated small clusters for edu/gov/mil/biz/info/name/coop and
        // the volunteer-run aero/int (their pool slaves are wired once the
        // universities exist).
        for (tld, count) in [
            ("edu", 3),
            ("gov", 3),
            ("mil", 3),
            ("biz", 4),
            ("info", 4),
            ("name", 4),
            ("coop", 2),
            ("aero", 2),
            ("int", 2),
        ] {
            let mut ns = Vec::new();
            for i in 1..=count {
                let host = name(&format!("ns{i}.{tld}-servers.net"));
                self.add_server(&host, "9.2.3", 0, false);
                ns.push(host.clone());
            }
            self.add_zone(name(&format!("{tld}-servers.net")), ns.clone(), count);
            self.add_zone(name(tld), ns, 0);
        }
    }

    /// ccTLD labels and their in-country registry servers.
    fn build_cctlds(&mut self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for code in CCTLD_SEED.iter().take(self.params.cctlds) {
            labels.push((*code).to_string());
        }
        let mut n = 0usize;
        while labels.len() < self.params.cctlds {
            let a = (b'a' + (n / 26) as u8 % 26) as char;
            let b = (b'a' + (n % 26) as u8) as char;
            let code = format!("{a}{b}x");
            if !labels.contains(&code) && !GTLDS.contains(&code.as_str()) {
                labels.push(code);
            }
            n += 1;
        }
        for (i, code) in labels.iter().enumerate() {
            let region = (i % 200 + 10) as u16;
            // One or two in-country registry boxes under nic.<cc>.
            let mut ns = Vec::new();
            // .ws runs old BIND everywhere (the paper: some names have
            // their *entire* TCB vulnerable; they belong to .ws). Other
            // country registries patch more slowly than gTLD registries.
            let forced = if code == "ws" {
                Some(true)
            } else {
                Some(
                    self.rng
                        .chance(0.4 * self.params.vulnerable_operator_fraction),
                )
            };
            let version = self.pick_version(forced);
            for k in 1..=2 {
                let host = name(&format!("ns{k}.nic.{code}"));
                self.add_server(&host, version, region, false);
                ns.push(host);
            }
            self.add_zone(name(&format!("nic.{code}")), ns.clone(), ns.len());
            self.add_zone(name(code), ns, 0);
        }
        labels
    }

    /// Hosting providers: Zipf-sized NS fleets, self-hosted with glue.
    ///
    /// Two of the giant registrar operators run vulnerable BIND: the
    /// paper's "about 12 of the 125 high profile nameservers have
    /// well-known loopholes", and the lever that makes 30% of names
    /// completely hijackable from only ~17% vulnerable servers.
    fn build_providers(&mut self) {
        for i in 0..self.params.providers {
            let region = (self.rng.below(200) + 10) as u16;
            let domain = name(&format!("dns{i}.net"));
            let boxes = match i {
                0..=2 => 4,
                3..=15 => 3,
                _ => 2,
            };
            let forced = match i {
                0 | 2 => Some(true),      // vulnerable giant registrars
                1 | 3..=9 => Some(false), // professionally run
                10..=15 => Some(self.rng.chance(0.3)),
                _ => None,
            };
            let version = self.pick_version(forced);
            let mut ns = Vec::new();
            for k in 1..=boxes {
                let host = domain.prepend(&format!("ns{k}")).expect("short label");
                self.add_server(&host, version, region, false);
                ns.push(host);
            }
            self.provider_boxes.push(ns.clone());
            self.add_zone(domain, ns, boxes);
        }
    }

    /// Universities, non-profits and volunteer ISPs.
    ///
    /// The first operators form the **volunteer backbone**: a chain of
    /// communities where community `k` slaves its zones at community
    /// `k-1`. Dependency therefore flows downward: pulling one box of
    /// community `k` pulls an exponentially growing slice of communities
    /// `k-1 … 0`. TLD registries slave at different depths (aero/int at
    /// the deep end, gov/org at the shallow end), which is what produces
    /// Figure 3's ordering and Figure 4's ccTLD slope. The remaining
    /// operators are ordinary universities with sparse mutual-secondary
    /// webs (the cornell/rochester pattern of Figure 1).
    fn build_universities(&mut self) {
        let uni_count = self.params.universities;
        let backbone_ops = (uni_count / 3).min(80);
        // Vulnerability is correlated per community/cluster: an
        // institution's peers run the same distributions and upgrade
        // cycles, so a web is either largely clean or riddled. This is
        // what lets 45% of names see a vulnerable dependency while the
        // per-name count stays clustered (Figure 5's mean of ~4).
        let cluster = 12usize;
        let cluster_count = uni_count.div_ceil(cluster);
        let cluster_vulnerable: Vec<bool> =
            (0..cluster_count).map(|_| self.rng.chance(0.18)).collect();
        // First create every operator's own boxes.
        for i in 0..uni_count {
            let region = (self.rng.below(200) + 10) as u16;
            // Backbone mixes .edu, .org and volunteer ISPs in .net (the
            // paper's §3.3: universities, non-profits "and so forth");
            // ordinary operators are .edu/.org two-to-one.
            let domain = if i < backbone_ops {
                match i % 3 {
                    0 => name(&format!("uni{i}.edu")),
                    1 => name(&format!("npo{i}.org")),
                    _ => name(&format!("isp{i}.net")),
                }
            } else if i % 3 == 2 {
                name(&format!("npo{i}.org"))
            } else {
                name(&format!("uni{i}.edu"))
            };
            let rate = if cluster_vulnerable[i / cluster] {
                0.45
            } else {
                0.02
            };
            let forced = Some(self.rng.chance(rate));
            let version = self.pick_version(forced);
            let mut ns = Vec::new();
            for k in 1..=2 {
                let host = domain.prepend(&format!("ns{k}")).expect("short label");
                self.add_server(&host, version, region, false);
                ns.push(host);
            }
            // NS set filled by the cross-wiring below.
            self.add_zone(domain, Vec::new(), ns.len());
            self.university_boxes.push(ns);
        }
        self.pool = (0..backbone_ops).collect();
        let communities = BACKBONE_COMMUNITIES;
        let per_community = backbone_ops.div_ceil(communities).max(1);
        let zone_base = self.zones.len() - uni_count;
        for i in 0..uni_count {
            let mut ns = self.university_boxes[i].clone();
            if i < backbone_ops {
                let community = i / per_community;
                // Two secondaries from the community below (or peers, at
                // the bottom), plus one at the community-0 hub: the
                // handful of famous volunteer operators everyone slaves
                // at. Those hub boxes end up in a tenth of all closures —
                // the paper's "most valuable nameservers".
                let lower = if community == 0 { 0 } else { community - 1 };
                let lo = lower * per_community;
                let hi = ((lower + 1) * per_community).min(backbone_ops);
                for _ in 0..2 {
                    let other = lo + self.rng.below_usize(hi - lo);
                    if other != i {
                        let boxes = &self.university_boxes[other];
                        let pick = boxes[self.rng.below_usize(boxes.len())].clone();
                        if !ns.contains(&pick) {
                            ns.push(pick);
                        }
                    }
                }
                if community > 0 {
                    let hub = self.rng.below_usize(per_community.min(backbone_ops));
                    let boxes = &self.university_boxes[hub];
                    let pick = boxes[self.rng.below_usize(boxes.len())].clone();
                    if !ns.contains(&pick) {
                        ns.push(pick);
                    }
                }
            } else {
                // Ordinary university: web among ordinary peers (the
                // cornell/rochester/wisc/umich pattern of Figure 1). The
                // expected out-degree sits just below the percolation
                // threshold, giving heavy-tailed but finite webs.
                for p_link in [0.7, 0.2] {
                    if self.rng.chance(p_link) {
                        let other = backbone_ops + self.rng.below_usize(uni_count - backbone_ops);
                        if other != i {
                            let boxes = &self.university_boxes[other];
                            let pick = boxes[self.rng.below_usize(boxes.len())].clone();
                            if !ns.contains(&pick) {
                                ns.push(pick);
                            }
                        }
                    }
                }
            }
            self.zones[zone_base + i].ns = ns;
        }
    }

    /// Picks an ordinary (non-backbone) university index.
    fn nonpool_university(&mut self) -> usize {
        let pool_size = self.pool.len();
        let total = self.university_boxes.len();
        if total > pool_size {
            pool_size + self.rng.below_usize(total - pool_size)
        } else {
            self.rng.below_usize(total)
        }
    }

    /// Picks one box of a backbone operator at community `depth`
    /// (0 = shallow, `BACKBONE_COMMUNITIES - 1` = deep; clamped).
    fn backbone_box(&mut self, depth: usize) -> DnsName {
        let backbone_ops = self.pool.len();
        let per_community = backbone_ops.div_ceil(BACKBONE_COMMUNITIES).max(1);
        let depth = depth.min(BACKBONE_COMMUNITIES - 1);
        let lo = (depth * per_community).min(backbone_ops.saturating_sub(1));
        let hi = ((depth + 1) * per_community).min(backbone_ops);
        let idx = lo + self.rng.below_usize((hi - lo).max(1));
        let boxes = &self.university_boxes[idx];
        boxes[self.rng.below_usize(boxes.len())].clone()
    }

    /// Wires messy ccTLDs and the volunteer-involved gTLDs onto the
    /// backbone, at depths shaped to the Figure 3/4 orderings.
    fn wire_cctld_slaves(&mut self, cctld_labels: &[String]) {
        let deep = BACKBONE_COMMUNITIES - 1;
        let mut slave_sets: Vec<(DnsName, Vec<DnsName>)> = Vec::new();
        for (i, code) in cctld_labels.iter().enumerate() {
            let (slaves, depth) = if i < self.params.messy_cctlds {
                // ua slaves deepest; the 15th-worst noticeably shallower.
                let t = i as f64 / self.params.messy_cctlds.max(1) as f64;
                let slaves = (10.0 - 6.0 * t).round() as usize;
                let depth = deep.saturating_sub((t * 6.0).round() as usize);
                (slaves, depth)
            } else if self.rng.chance(0.15) {
                (1, 0)
            } else {
                (0, 0)
            };
            let mut extra = Vec::new();
            for _ in 0..slaves {
                let pick = self.backbone_box(depth);
                if !extra.contains(&pick) {
                    extra.push(pick);
                }
            }
            slave_sets.push((name(code), extra));
        }
        // Volunteer involvement per gTLD, deep-to-shallow along the
        // Figure 3 ordering: aero and int run almost entirely on donated
        // infrastructure; gov/org barely touch it.
        // edu and org are *not* wired here: like com/net they ran on
        // professional registry infrastructure in 2004, and wiring them
        // would transitively poison every closure containing any
        // .edu-named server (the universities' own chains pass through
        // the edu TLD).
        for (tld, slaves, depth) in [
            ("aero", 8, deep),
            ("int", 6, deep - 1),
            ("name", 4, deep - 2),
            ("mil", 3, deep - 3),
            ("info", 2, deep - 5),
            ("biz", 1, 2),
            ("gov", 1, 1),
        ] {
            let mut extra = Vec::new();
            for _ in 0..slaves {
                let pick = self.backbone_box(depth);
                if !extra.contains(&pick) {
                    extra.push(pick);
                }
            }
            slave_sets.push((name(tld), extra));
        }
        for (origin, extra) in slave_sets {
            if let Some(plan) = self.zones.iter_mut().find(|z| z.origin == origin) {
                for host in extra {
                    if !plan.ns.contains(&host) {
                        plan.ns.push(host);
                    }
                }
            }
        }
    }

    /// Second-level domains with their hosting styles. Returns the zone
    /// origin of each domain.
    fn build_domains(&mut self, cctld_labels: &[String]) -> Vec<DnsName> {
        // TLD mix: com-heavy, as in the DMOZ/Yahoo crawl.
        let gtld_weights: Vec<(DnsName, f64)> = vec![
            (name("com"), 0.46),
            (name("net"), 0.09),
            (name("org"), 0.09),
            (name("edu"), 0.035),
            (name("gov"), 0.012),
            (name("mil"), 0.004),
            (name("biz"), 0.013),
            (name("info"), 0.022),
            (name("name"), 0.003),
            (name("aero"), 0.001),
            (name("int"), 0.001),
            (name("coop"), 0.001),
        ];
        let gtld_total: f64 = gtld_weights.iter().map(|(_, w)| w).sum();
        let cctld_total = 1.0 - gtld_total;
        // ccTLD popularity: Zipf over a shuffled order (the messy ones are
        // not necessarily the populous ones).
        let mut cc_pop: Vec<f64> = Vec::with_capacity(cctld_labels.len());
        let mut harmonic = 0.0;
        for k in 1..=cctld_labels.len() {
            harmonic += 1.0 / k as f64;
        }
        let mut cc_order: Vec<usize> = (0..cctld_labels.len()).collect();
        self.rng.shuffle(&mut cc_order);
        let mut cc_rank = vec![0usize; cctld_labels.len()];
        for (rank, &idx) in cc_order.iter().enumerate() {
            cc_rank[idx] = rank;
        }
        for &rank in &cc_rank {
            cc_pop.push(cctld_total / harmonic / (rank + 1) as f64);
        }
        let mut weights: Vec<f64> = gtld_weights.iter().map(|(_, w)| *w).collect();
        weights.extend(cc_pop);
        let tld_table = AliasTable::new(&weights);
        let tld_names: Vec<DnsName> = gtld_weights
            .iter()
            .map(|(n, _)| n.clone())
            .chain(cctld_labels.iter().map(|c| name(c)))
            .collect();

        // Hosting style table.
        let p_mixed = (1.0
            - self.params.p_self_hosted
            - self.params.p_provider_hosted
            - self.params.p_university_hosted)
            .max(0.0);
        let style_table = AliasTable::new(&[
            self.params.p_self_hosted,
            self.params.p_provider_hosted,
            self.params.p_university_hosted,
            p_mixed,
        ]);
        let mut provider_pick = ZipfTable::new(self.params.providers, self.params.provider_zipf);

        let mut domain_zones = Vec::with_capacity(self.params.domains);
        for j in 0..self.params.domains {
            let tld_idx = tld_table.sample(&mut self.rng);
            let tld = tld_names[tld_idx].clone();
            let origin = tld.prepend(&format!("site{j}")).expect("short label");
            let style = match tld.to_string().as_str() {
                // University domains are university-hosted by definition;
                // military and government sites self-host.
                "edu" => 2,
                "mil" | "gov" => 0,
                // A quarter of .org domains sit on non-profit volunteer
                // infrastructure (lifts the org bar above net/com as in
                // Figure 3).
                "org" if self.rng.chance(0.25) => 2,
                _ => style_table.sample(&mut self.rng),
            };
            let popular = j < 600; // low domain index = popular (crawl rank)
            let first = self.servers.len();
            let mut ns: Vec<DnsName> = Vec::new();
            match style {
                0 => {
                    // Self-hosted, glued.
                    let version = self.pick_version(None);
                    let count = if popular || self.rng.chance(0.5) {
                        3
                    } else {
                        2
                    };
                    for k in 1..=count {
                        let host = origin.prepend(&format!("ns{k}")).expect("short label");
                        self.add_server(&host, version, 0, false);
                        ns.push(host);
                    }
                }
                1 => {
                    // Provider-hosted; ~30% keep one in-domain box as a
                    // hidden primary.
                    let p = provider_pick.sample(&mut self.rng);
                    let take = if popular { 3 } else { 2 };
                    ns.extend(self.provider_boxes[p].iter().take(take).cloned());
                    if self.rng.chance(0.15) {
                        let version = self.pick_version(None);
                        let host = origin.prepend("ns1").expect("short label");
                        self.add_server(&host, version, 0, false);
                        ns.push(host);
                    }
                }
                2 => {
                    // University/volunteer-hosted: one departmental box
                    // plus an ordinary (non-pool) university's servers.
                    let version = self.pick_version(None);
                    let host = origin.prepend("ns1").expect("short label");
                    self.add_server(&host, version, 0, false);
                    ns.push(host);
                    let uni = self.nonpool_university();
                    ns.extend(self.university_boxes[uni].iter().cloned());
                }
                _ => {
                    // Mixed: two own boxes plus an off-site secondary —
                    // usually an ordinary university (the
                    // cornell/rochester pattern), sometimes a shallow
                    // backbone volunteer.
                    let version = self.pick_version(None);
                    for k in 1..=2 {
                        let host = origin.prepend(&format!("ns{k}")).expect("short label");
                        self.add_server(&host, version, 0, false);
                        ns.push(host);
                    }
                    if self.rng.chance(0.25) {
                        let depth = self.rng.below_usize(2);
                        let pick = self.backbone_box(depth);
                        if !ns.contains(&pick) {
                            ns.push(pick);
                        }
                    } else {
                        let uni = self.nonpool_university();
                        let boxes = &self.university_boxes[uni];
                        ns.push(boxes[self.rng.below_usize(boxes.len())].clone());
                    }
                }
            }
            // Popular domains add further off-site secondaries: the
            // availability-vs-security trade the paper highlights (top-500
            // names have *larger* TCBs). Half are additional in-domain
            // boxes at other sites; half are ordinary-university webs.
            if popular {
                for extra in 0..self.params.popular_extra_secondaries {
                    if extra <= 1 {
                        let uni = self.nonpool_university();
                        for pick in &self.university_boxes[uni] {
                            if !ns.contains(pick) {
                                ns.push(pick.clone());
                            }
                        }
                    } else {
                        let version = self.pick_version(None);
                        let host = origin
                            .prepend(&format!("ns{}", 4 + extra))
                            .expect("short label");
                        self.add_server(&host, version, 0, false);
                        ns.push(host);
                    }
                }
            }
            let own = self.servers.len() - first;
            self.add_zone(origin.clone(), ns, own);
            domain_zones.push(origin);
        }
        domain_zones
    }

    /// Applies the stale-delegation knob
    /// ([`TopologyParams::stale_delegation_fraction`]): that fraction of
    /// second-level domains decays. Half of the decayed domains lose their
    /// **entire** NS set to hosts under a vanished `.zz` branch — a zombie
    /// delegation whose names become orphaned — and the rest keep their
    /// live servers but gain one dead secondary (dead-in-TCB signal
    /// without orphaning), mirroring how real delegations rot one expired
    /// registration at a time.
    ///
    /// Decay draws from a dedicated forked RNG stream and runs after
    /// everything else is planned, so a fraction of zero leaves the world
    /// bit-identical to a build without the knob.
    fn decay_delegations(&mut self, domain_count: usize) {
        let fraction = self.params.stale_delegation_fraction;
        if fraction <= 0.0 {
            return;
        }
        let mut rng = Rng::new(self.params.seed).fork(0x7a6f_6d62); // "zomb"

        // Domain zones are the last `domain_count` plans, in build order.
        let base = self.zones.len() - domain_count;
        for j in 0..domain_count {
            if !rng.chance(fraction) {
                continue;
            }
            let plan = &mut self.zones[base + j];
            // `.zz` is reserved: never a generated ccTLD (seed codes are
            // two known letters, synthetic codes end in `x`), so nothing
            // in the universe can supply an address under it.
            if rng.chance(0.5) {
                let count = plan.ns.len().clamp(1, 2);
                plan.ns = (1..=count)
                    .map(|k| name(&format!("ns{k}.ghost{j}.zz")))
                    .collect();
            } else {
                plan.ns.push(name(&format!("ns9.ghost{j}.zz")));
            }
        }
    }

    /// Samples the crawled directory: Zipf-popular domains, one or more
    /// host names each, deduplicated.
    ///
    /// A crawled name is `CRAWL_HOSTS[slot] . domain_zones[rank]`; domain
    /// origins are pairwise distinct and so are the host labels, so one
    /// bit per `(rank, slot)` is the whole dedup set and only an accepted
    /// name is ever built. Every attempt still draws its rank and start
    /// slot, so the RNG stream does not depend on which slots are taken.
    fn crawl_names(&mut self, domain_zones: &[DnsName]) -> Vec<SurveyName> {
        let mut zipf = ZipfTable::new(domain_zones.len(), self.params.popularity_zipf);
        let mut taken = vec![0u16; domain_zones.len()];
        // With every slot taken no further attempt can add a name.
        let slots = domain_zones.len() * CRAWL_HOSTS.len();
        let target = self.params.names.min(slots);
        let mut names: Vec<SurveyName> = Vec::with_capacity(target);
        let mut attempts = 0usize;
        while names.len() < target && attempts < self.params.names * 20 {
            attempts += 1;
            let rank = zipf.sample(&mut self.rng);
            // Mostly www; a directory crawl also surfaces other hosts of
            // popular domains.
            let start = if names.len().is_multiple_of(4) {
                self.rng.below_usize(CRAWL_HOSTS.len())
            } else {
                0
            };
            let slot = (0..CRAWL_HOSTS.len())
                .map(|step| (start + step) % CRAWL_HOSTS.len())
                .find(|slot| taken[rank] & (1 << slot) == 0);
            if let Some(slot) = slot {
                taken[rank] |= 1 << slot;
                #[cfg(test)]
                {
                    self.names_built += 1;
                }
                names.push(SurveyName {
                    name: domain_zones[rank]
                        .prepend(CRAWL_HOSTS[slot])
                        .expect("short label"),
                    popularity_rank: rank,
                });
            }
        }
        names
    }

    /// The sampler as it was before the slot masks, kept as the oracle of
    /// the differential tests: it dedups on the names themselves, builds
    /// one per probe, and never notices that every slot is taken.
    #[cfg(test)]
    fn crawl_names_by_name_set(&mut self, domain_zones: &[DnsName]) -> Vec<SurveyName> {
        let mut zipf = ZipfTable::new(domain_zones.len(), self.params.popularity_zipf);
        let mut seen: BTreeSet<DnsName> = BTreeSet::new();
        let mut names: Vec<SurveyName> = Vec::new();
        let hosts = CRAWL_HOSTS;
        let mut attempts = 0usize;
        while names.len() < self.params.names && attempts < self.params.names * 20 {
            attempts += 1;
            let rank = zipf.sample(&mut self.rng);
            let domain = &domain_zones[rank];
            let start = if names.len().is_multiple_of(4) {
                self.rng.below_usize(hosts.len())
            } else {
                0
            };
            for step in 0..hosts.len() {
                let host_label = hosts[(start + step) % hosts.len()];
                let full = domain.prepend(host_label).expect("short label");
                self.names_built += 1;
                if seen.insert(full.clone()) {
                    names.push(SurveyName {
                        name: full,
                        popularity_rank: rank,
                    });
                    break;
                }
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnalysisWorld, SyntheticSource, WorldSource};
    use crate::params::TopologyParams;
    use proptest::prelude::*;

    fn generate(params: &TopologyParams) -> AnalysisWorld {
        SyntheticSource {
            params: params.clone(),
        }
        .load()
    }

    /// Both samplers over `domains` synthetic domain zones, each from a
    /// fresh generator on the same seed (no `validate`, so over-asking
    /// is reachable): `(slot-mask generator, its sample, name-set
    /// generator, its sample)`.
    fn crawl_both(
        params: &TopologyParams,
    ) -> (
        Generator<'_>,
        Vec<SurveyName>,
        Generator<'_>,
        Vec<SurveyName>,
    ) {
        let tlds = [name("com"), name("org"), name("ua")];
        let domain_zones: Vec<DnsName> = (0..params.domains)
            .map(|j| {
                tlds[j % 3]
                    .prepend(&format!("site{j}"))
                    .expect("short label")
            })
            .collect();
        let mut by_slot = Generator::new(params);
        let mut by_name = Generator::new(params);
        let sample = by_slot.crawl_names(&domain_zones);
        let oracle = by_name.crawl_names_by_name_set(&domain_zones);
        (by_slot, sample, by_name, oracle)
    }

    fn crawl_params(seed: u64, names: usize, domains: usize, zipf: f64) -> TopologyParams {
        TopologyParams {
            names,
            domains,
            popularity_zipf: zipf,
            ..TopologyParams::tiny(seed)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(120))]

        /// The slot-mask sampler returns the name-set sampler's sample and
        /// leaves the RNG where it left it, from sparse crawls through
        /// `names ≈ 10 × domains` to over-asking (`quarters` up to 12
        /// names a domain), and builds no name it does not return.
        #[test]
        fn slot_mask_sampler_equals_name_set_sampler(
            seed in any::<u64>(),
            domains in 1usize..=40,
            quarters in 1usize..=48,
            zipf_centi in 40u32..=160,
        ) {
            let names = (domains * quarters).div_ceil(4);
            let params = crawl_params(seed, names, domains, f64::from(zipf_centi) / 100.0);
            let (mut by_slot, sample, mut by_name, oracle) = crawl_both(&params);
            prop_assert_eq!(&sample, &oracle);
            prop_assert_eq!(by_slot.names_built, sample.len());
            prop_assert!(by_name.names_built >= oracle.len());
            // Only a crawl that filled every slot while asked for more
            // stops early; every other run makes the oracle's draws.
            let slots = domains * CRAWL_HOSTS.len();
            if names <= slots || sample.len() < slots {
                prop_assert_eq!(by_slot.rng.next_u64(), by_name.rng.next_u64());
            }
        }
    }

    #[test]
    fn over_asked_crawl_stops_once_every_slot_is_taken() {
        let params = crawl_params(7, 1000, 3, 0.95);
        let (mut by_slot, sample, mut by_name, oracle) = crawl_both(&params);
        assert_eq!(sample.len(), 3 * CRAWL_HOSTS.len());
        assert_eq!(sample, oracle);
        assert_ne!(
            by_slot.rng.next_u64(),
            by_name.rng.next_u64(),
            "the name-set sampler burns its remaining attempts"
        );
    }

    #[test]
    fn crawl_host_labels_are_pairwise_distinct() {
        let distinct: BTreeSet<&str> = CRAWL_HOSTS.iter().copied().collect();
        assert_eq!(distinct.len(), CRAWL_HOSTS.len());
        assert!(CRAWL_HOSTS.len() <= u16::BITS as usize, "one mask bit each");
    }

    /// No server name is minted twice (in any case mix), which is what
    /// lets the plan keep its servers without a name set: a repeat would
    /// be a second spec in a packet scenario and a banner the universe
    /// builder ignores.
    #[test]
    fn plan_mints_each_server_name_once() {
        let worlds = [1, 11, 2005, 20040722]
            .map(TopologyParams::tiny)
            .into_iter()
            .chain([TopologyParams::default_scaled(2005)]);
        for params in worlds {
            let plan = plan_world(&params);
            let mut seen: BTreeSet<String> = BTreeSet::new();
            for server in &plan.servers {
                let lower = server.name.to_string().to_ascii_lowercase();
                assert!(seen.insert(lower), "{} minted twice", server.name);
            }
        }
    }

    /// The builder assesses each distinct banner once per db: every
    /// version the generator hands out, a hidden banner and no banner get
    /// the verdicts a fresh parse against the db gives, on first sight
    /// and from the memo, and a second db is not answered from the
    /// first's verdicts.
    #[test]
    fn memoized_banner_verdicts_equal_assessment() {
        use perils_core::Universe;
        use perils_vulndb::{BindVersion, VulnDb};
        let isc = VulnDb::isc_feb_2004();
        let none = VulnDb::from_advisories(Vec::new());
        let banners: Vec<Option<&str>> = VULNERABLE_VERSIONS
            .iter()
            .chain(&CLEAN_VERSIONS)
            .map(|v| Some(*v))
            .chain([Some("none of your business"), None])
            .collect();
        let mut builder = Universe::builder();
        let mut expected = Vec::new();
        for (round, db) in [&isc, &isc, &none].into_iter().enumerate() {
            for (i, banner) in banners.iter().enumerate() {
                builder.apply(
                    UniverseEvent::Server {
                        name: name(&format!("ns{i}.round{round}.test")),
                        banner: banner.map(str::to_string),
                        is_root: false,
                    },
                    db,
                );
                let version = banner.and_then(BindVersion::parse);
                expected.push(version.map_or((false, false), |v| {
                    (db.is_vulnerable(&v), db.has_scripted_exploit(&v))
                }));
            }
        }
        let universe = builder.finish();
        let verdicts: Vec<(bool, bool)> = universe
            .server_ids()
            .map(|s| {
                let server = universe.server(s);
                (server.vulnerable, server.scripted_exploit)
            })
            .collect();
        assert_eq!(verdicts, expected);
        assert!(
            expected.contains(&(true, true)),
            "some banner is vulnerable"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&TopologyParams::tiny(7));
        let b = generate(&TopologyParams::tiny(7));
        assert_eq!(a.universe.server_count(), b.universe.server_count());
        assert_eq!(a.universe.zone_count(), b.universe.zone_count());
        assert_eq!(a.names.len(), b.names.len());
        for (x, y) in a.names.iter().zip(&b.names) {
            assert_eq!(x.name, y.name);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TopologyParams::tiny(1));
        let b = generate(&TopologyParams::tiny(2));
        let same = a
            .names
            .iter()
            .zip(&b.names)
            .filter(|(x, y)| x.name == y.name)
            .count();
        assert!(same < a.names.len(), "seeds must matter");
    }

    #[test]
    fn structure_is_complete() {
        let world = generate(&TopologyParams::tiny(3));
        assert!(world.universe.zone_count() > 200);
        assert!(world.universe.server_count() > 100);
        assert!(!world.names.is_empty());
        // Every surveyed name has a zone in the universe.
        for survey_name in &world.names {
            assert!(
                world.universe.zone_of(&survey_name.name).is_some(),
                "{} has no enclosing zone",
                survey_name.name
            );
        }
        // Root servers are flagged.
        let root = world
            .universe
            .server_id(&name("a.root-servers.net"))
            .unwrap();
        assert!(world.universe.server(root).is_root);
    }

    #[test]
    fn vulnerable_fraction_in_band() {
        let world = generate(&TopologyParams::tiny(5));
        let f = world.universe.vulnerable_fraction();
        assert!((0.05..0.45).contains(&f), "vulnerable fraction {f}");
    }

    #[test]
    fn ws_cctld_is_all_vulnerable() {
        let mut params = TopologyParams::tiny(1);
        params.cctlds = 16; // include "ws" (index 15 of the seed list)
        let world = generate(&params);
        let ws = world.universe.zone_id(&name("ws")).expect("ws exists");
        let zone = world.universe.zone(ws);
        let nic_servers: Vec<_> = zone
            .ns
            .iter()
            .filter(|&&s| {
                world
                    .universe
                    .server(s)
                    .name
                    .is_subdomain_of(&name("nic.ws"))
            })
            .collect();
        assert!(!nic_servers.is_empty());
        for &sid in nic_servers {
            assert!(
                world.universe.server(sid).vulnerable,
                "nic.ws boxes run old BIND"
            );
        }
    }

    #[test]
    fn stale_delegation_knob_decays_domains() {
        use perils_core::ZombieIndex;
        let clean = generate(&TopologyParams::tiny(9));
        let mut params = TopologyParams::tiny(9);
        params.stale_delegation_fraction = 0.3;
        let decayed = generate(&params);
        let clean_index = ZombieIndex::build(&clean.universe);
        let decayed_index = ZombieIndex::build(&decayed.universe);
        assert_eq!(
            clean_index.zombie_zones(),
            0,
            "knob off: synthetic worlds have no zombie delegations"
        );
        assert!(
            decayed_index.zombie_zones() > 0,
            "full decay plants zombies"
        );
        let dead_servers = decayed
            .universe
            .server_ids()
            .filter(|&s| decayed_index.is_dead(s))
            .count();
        assert!(
            dead_servers > decayed_index.zombie_zones(),
            "partial decay plants extra dead secondaries"
        );
        // Decay perturbs delegations only — the crawl sample is unchanged.
        assert_eq!(clean.names.len(), decayed.names.len());
        for (a, b) in clean.names.iter().zip(&decayed.names) {
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn top500_is_popularity_ordered() {
        let world = generate(&TopologyParams::tiny(4));
        let ranks: Vec<usize> = world
            .top500
            .iter()
            .map(|&i| world.names[i].popularity_rank)
            .collect();
        for w in ranks.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn tiny_world_builds_packet_scenario() {
        let scenario = SyntheticSource {
            params: TopologyParams::tiny(6),
        }
        .scenario();
        assert!(!scenario.roots.is_empty());
        assert!(scenario.specs.len() > 50);
        // Every root hint has an address and a spec.
        for (host, addr) in &scenario.roots {
            assert!(scenario
                .specs
                .iter()
                .any(|s| &s.host_name == host && &s.addr == addr));
        }
    }
}
