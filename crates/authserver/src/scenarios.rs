//! Hand-built scenario universes from the paper.
//!
//! * [`cornell_figure1`] — the delegation web of Figure 1: Cornell's
//!   `cs.cornell.edu` slaved at Rochester, Rochester's zones slaved at
//!   Cornell and Wisconsin, Wisconsin's at Michigan — mutual trust cycles
//!   included.
//! * [`fbi_case`] — the §3.2 case study: `fbi.gov` served by
//!   `sprintip.com`, which is served by `telemail.net`, where
//!   `reston-ns2.telemail.net` runs BIND 8.2.4 with four known exploits.
//!
//! Each scenario yields the zone registry (the namespace), the server specs
//! (the infrastructure), and the root hints, ready for
//! [`crate::deploy::deploy`].

use crate::deploy::ServerSpec;
use crate::software::ServerSoftware;
use perils_dns::name::{name, DnsName};
use perils_dns::rr::RData;
use perils_dns::zone::{Zone, ZoneRegistry};
use std::net::Ipv4Addr;

/// A fully specified scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// All zones.
    pub registry: ZoneRegistry,
    /// All servers.
    pub specs: Vec<ServerSpec>,
    /// Root hints for resolvers.
    pub roots: Vec<(DnsName, Ipv4Addr)>,
}

/// Builder helpers shared by the scenarios.
struct Builder {
    registry: ZoneRegistry,
    specs: Vec<ServerSpec>,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            registry: ZoneRegistry::new(),
            specs: Vec::new(),
        }
    }

    fn zone(&mut self, origin: &str, primary: &str, build: impl FnOnce(&mut Zone)) {
        let origin = if origin == "." {
            DnsName::root()
        } else {
            name(origin)
        };
        let mut zone = Zone::synthetic(origin, name(primary));
        build(&mut zone);
        self.registry.insert(zone);
    }

    fn server(&mut self, host: &str, addr: &str, version: &str, zones: &[&str]) {
        self.specs.push(ServerSpec {
            host_name: name(host),
            addr: addr.parse().expect("static address"),
            software: ServerSoftware::bind(version),
            zones: zones
                .iter()
                .map(|z| if *z == "." { DnsName::root() } else { name(z) })
                .collect(),
        });
    }
}

fn ns(zone: &mut Zone, owner: &str, host: &str) {
    let owner = if owner == "." {
        DnsName::root()
    } else {
        name(owner)
    };
    zone.add_rdata(owner, RData::Ns(name(host)))
        .expect("scenario NS record");
}

fn a(zone: &mut Zone, owner: &str, addr: &str) {
    zone.add_rdata(name(owner), RData::A(addr.parse().expect("static address")))
        .expect("scenario A record");
}

/// The Figure 1 universe (simplified to its load-bearing edges).
///
/// Key structure:
/// * `cs.cornell.edu` is served by `simon.cs.cornell.edu` (glued) **and**
///   `cayuga.cs.rochester.edu` (off-site, glueless from Cornell's view);
/// * `rochester.edu` is served by `ns1.rochester.edu` and
///   `simon.cs.cornell.edu` — a **mutual-trust cycle** with Cornell;
/// * `cs.wisc.edu` serves as off-site secondary for `cs.rochester.edu`,
///   and `wisc.edu` depends on `itd.umich.edu`, extending the transitive
///   chain exactly as the paper describes ("cornell.edu depends on
///   rochester.edu, which depends on wisc.edu, which in turn depends on
///   umich.edu").
pub fn cornell_figure1() -> Scenario {
    let mut b = Builder::new();

    // --- root and TLD infrastructure ---
    b.zone(".", "a.root-servers.net", |z| {
        ns(z, ".", "a.root-servers.net");
        a(z, "a.root-servers.net", "1.0.0.1");
        // TLD delegations with glue.
        ns(z, "edu", "a.edu-servers.net");
        a(z, "a.edu-servers.net", "2.0.0.1");
        ns(z, "net", "a.gtld-servers.net");
        a(z, "a.gtld-servers.net", "2.0.0.2");
    });
    b.zone("net", "a.gtld-servers.net", |z| {
        ns(z, "net", "a.gtld-servers.net");
        // Self-referential hosting broken by glue, as in the real net zone.
        ns(z, "gtld-servers.net", "a.gtld-servers.net");
        a(z, "a.gtld-servers.net", "2.0.0.2");
        ns(z, "edu-servers.net", "a.edu-servers.net");
        a(z, "a.edu-servers.net", "2.0.0.1");
        ns(z, "root-servers.net", "a.root-servers.net");
        a(z, "a.root-servers.net", "1.0.0.1");
    });
    b.zone("gtld-servers.net", "a.gtld-servers.net", |z| {
        ns(z, "gtld-servers.net", "a.gtld-servers.net");
        a(z, "a.gtld-servers.net", "2.0.0.2");
    });
    b.zone("edu-servers.net", "a.edu-servers.net", |z| {
        ns(z, "edu-servers.net", "a.edu-servers.net");
        a(z, "a.edu-servers.net", "2.0.0.1");
    });
    b.zone("root-servers.net", "a.root-servers.net", |z| {
        ns(z, "root-servers.net", "a.root-servers.net");
        a(z, "a.root-servers.net", "1.0.0.1");
    });
    b.zone("edu", "a.edu-servers.net", |z| {
        ns(z, "edu", "a.edu-servers.net");
        // cornell.edu: glued.
        ns(z, "cornell.edu", "cudns.cit.cornell.edu");
        a(z, "cudns.cit.cornell.edu", "3.0.0.1");
        // rochester.edu: one glued NS, one glueless off-site secondary at
        // Cornell (the cycle edge).
        ns(z, "rochester.edu", "ns1.rochester.edu");
        ns(z, "rochester.edu", "simon.cs.cornell.edu");
        a(z, "ns1.rochester.edu", "4.0.0.1");
        // wisc.edu: one glued NS plus a glueless secondary at Michigan.
        ns(z, "wisc.edu", "dns.wisc.edu");
        ns(z, "wisc.edu", "dns2.itd.umich.edu");
        a(z, "dns.wisc.edu", "5.0.0.1");
        // umich.edu: glued.
        ns(z, "umich.edu", "dns.itd.umich.edu");
        a(z, "dns.itd.umich.edu", "6.0.0.1");
    });

    // --- cornell ---
    b.zone("cornell.edu", "cudns.cit.cornell.edu", |z| {
        ns(z, "cornell.edu", "cudns.cit.cornell.edu");
        a(z, "cudns.cit.cornell.edu", "3.0.0.1");
        a(z, "www.cornell.edu", "3.0.0.80");
        // cs.cornell.edu: simon glued; cayuga off-site and glueless.
        ns(z, "cs.cornell.edu", "simon.cs.cornell.edu");
        ns(z, "cs.cornell.edu", "cayuga.cs.rochester.edu");
        a(z, "simon.cs.cornell.edu", "3.0.0.2");
    });
    b.zone("cs.cornell.edu", "simon.cs.cornell.edu", |z| {
        ns(z, "cs.cornell.edu", "simon.cs.cornell.edu");
        ns(z, "cs.cornell.edu", "cayuga.cs.rochester.edu");
        a(z, "simon.cs.cornell.edu", "3.0.0.2");
        a(z, "www.cs.cornell.edu", "3.0.0.88");
        z.add_rdata(
            name("web.cs.cornell.edu"),
            RData::Cname(name("www.cs.cornell.edu")),
        )
        .expect("scenario CNAME");
    });

    // --- rochester (cycle with cornell; leans on wisc) ---
    b.zone("rochester.edu", "ns1.rochester.edu", |z| {
        ns(z, "rochester.edu", "ns1.rochester.edu");
        ns(z, "rochester.edu", "simon.cs.cornell.edu");
        a(z, "ns1.rochester.edu", "4.0.0.1");
        // cs.rochester.edu: cayuga/slate glued, plus an off-site glueless
        // secondary at Wisconsin.
        ns(z, "cs.rochester.edu", "cayuga.cs.rochester.edu");
        ns(z, "cs.rochester.edu", "slate.cs.rochester.edu");
        ns(z, "cs.rochester.edu", "dns.cs.wisc.edu");
        a(z, "cayuga.cs.rochester.edu", "4.0.0.2");
        a(z, "slate.cs.rochester.edu", "4.0.0.3");
    });
    b.zone("cs.rochester.edu", "cayuga.cs.rochester.edu", |z| {
        ns(z, "cs.rochester.edu", "cayuga.cs.rochester.edu");
        ns(z, "cs.rochester.edu", "slate.cs.rochester.edu");
        ns(z, "cs.rochester.edu", "dns.cs.wisc.edu");
        a(z, "cayuga.cs.rochester.edu", "4.0.0.2");
        a(z, "slate.cs.rochester.edu", "4.0.0.3");
    });

    // --- wisconsin (leans on michigan) ---
    b.zone("wisc.edu", "dns.wisc.edu", |z| {
        ns(z, "wisc.edu", "dns.wisc.edu");
        ns(z, "wisc.edu", "dns2.itd.umich.edu");
        a(z, "dns.wisc.edu", "5.0.0.1");
        ns(z, "cs.wisc.edu", "dns.cs.wisc.edu");
        a(z, "dns.cs.wisc.edu", "5.0.0.2");
    });
    b.zone("cs.wisc.edu", "dns.cs.wisc.edu", |z| {
        ns(z, "cs.wisc.edu", "dns.cs.wisc.edu");
        a(z, "dns.cs.wisc.edu", "5.0.0.2");
    });

    // --- michigan ---
    b.zone("umich.edu", "dns.itd.umich.edu", |z| {
        ns(z, "umich.edu", "dns.itd.umich.edu");
        a(z, "dns.itd.umich.edu", "6.0.0.1");
        a(z, "dns2.itd.umich.edu", "6.0.0.2");
    });

    // --- servers ---
    b.server(
        "a.root-servers.net",
        "1.0.0.1",
        "9.2.3",
        &[".", "root-servers.net"],
    );
    b.server(
        "a.gtld-servers.net",
        "2.0.0.2",
        "9.2.3",
        &["net", "gtld-servers.net"],
    );
    b.server(
        "a.edu-servers.net",
        "2.0.0.1",
        "9.2.3",
        &["edu", "edu-servers.net"],
    );
    b.server(
        "cudns.cit.cornell.edu",
        "3.0.0.1",
        "9.2.2",
        &["cornell.edu"],
    );
    b.server(
        "simon.cs.cornell.edu",
        "3.0.0.2",
        "9.2.3",
        &["cs.cornell.edu", "rochester.edu"],
    );
    b.server("ns1.rochester.edu", "4.0.0.1", "8.4.4", &["rochester.edu"]);
    b.server(
        "cayuga.cs.rochester.edu",
        "4.0.0.2",
        "8.2.4",
        &["cs.rochester.edu", "cs.cornell.edu"],
    );
    b.server(
        "slate.cs.rochester.edu",
        "4.0.0.3",
        "9.2.1",
        &["cs.rochester.edu"],
    );
    b.server("dns.wisc.edu", "5.0.0.1", "9.2.3", &["wisc.edu"]);
    b.server(
        "dns.cs.wisc.edu",
        "5.0.0.2",
        "8.2.2-P5",
        &["cs.wisc.edu", "cs.rochester.edu"],
    );
    b.server("dns.itd.umich.edu", "6.0.0.1", "9.2.3", &["umich.edu"]);
    b.server(
        "dns2.itd.umich.edu",
        "6.0.0.2",
        "9.2.3",
        &["umich.edu", "wisc.edu"],
    );

    Scenario {
        registry: b.registry,
        specs: b.specs,
        roots: vec![(name("a.root-servers.net"), "1.0.0.1".parse().unwrap())],
    }
}

/// The fbi.gov case study (§3.2).
///
/// `fbi.gov` is served by `dns.sprintip.com` and `dns2.sprintip.com`;
/// `sprintip.com` is served by `reston-ns{1,2,3}.telemail.net`, of which
/// `reston-ns2` runs BIND 8.2.4 — the four-exploit box the paper describes
/// compromising to divert `dns.sprintip.com` and thereby hijack
/// `www.fbi.gov`.
pub fn fbi_case() -> Scenario {
    let mut b = Builder::new();

    b.zone(".", "a.root-servers.net", |z| {
        ns(z, ".", "a.root-servers.net");
        a(z, "a.root-servers.net", "1.0.0.1");
        ns(z, "gov", "a.gov-servers.net");
        a(z, "a.gov-servers.net", "2.0.1.1");
        ns(z, "com", "a.gtld-servers.net");
        a(z, "a.gtld-servers.net", "2.0.0.2");
        ns(z, "net", "a.gtld-servers.net");
    });
    b.zone("gov", "a.gov-servers.net", |z| {
        ns(z, "gov", "a.gov-servers.net");
        // fbi.gov delegated to Sprint-operated servers: glueless (names
        // under .com) — the transitive step.
        ns(z, "fbi.gov", "dns.sprintip.com");
        ns(z, "fbi.gov", "dns2.sprintip.com");
        // usdoj.gov: one live glued NS plus a stale record pointing into
        // an unmodeled namespace — the lame delegation the survey found
        // everywhere. Off www.fbi.gov's dependency chain by design.
        ns(z, "usdoj.gov", "ns1.usdoj.gov");
        a(z, "ns1.usdoj.gov", "2.0.2.1");
        ns(z, "usdoj.gov", "ns.usdoj-archive.zz");
        // fedworld.gov: the registry still carries the cut, but the child
        // zone itself is long gone — its NS glue is orphaned.
        ns(z, "fedworld.gov", "ns.fedworld.zz");
    });
    b.zone("com", "a.gtld-servers.net", |z| {
        ns(z, "com", "a.gtld-servers.net");
        // sprintip.com delegated to telemail.net servers: glueless again.
        ns(z, "sprintip.com", "reston-ns1.telemail.net");
        ns(z, "sprintip.com", "reston-ns2.telemail.net");
        ns(z, "sprintip.com", "reston-ns3.telemail.net");
    });
    b.zone("net", "a.gtld-servers.net", |z| {
        ns(z, "net", "a.gtld-servers.net");
        a(z, "a.gtld-servers.net", "2.0.0.2");
        ns(z, "telemail.net", "reston-ns1.telemail.net");
        ns(z, "telemail.net", "reston-ns2.telemail.net");
        a(z, "reston-ns1.telemail.net", "7.0.0.1");
        a(z, "reston-ns2.telemail.net", "7.0.0.2");
        ns(z, "gov-servers.net", "a.gov-servers.net");
        a(z, "a.gov-servers.net", "2.0.1.1");
        ns(z, "root-servers.net", "a.root-servers.net");
        a(z, "a.root-servers.net", "1.0.0.1");
    });
    b.zone("gov-servers.net", "a.gov-servers.net", |z| {
        ns(z, "gov-servers.net", "a.gov-servers.net");
        a(z, "a.gov-servers.net", "2.0.1.1");
    });
    b.zone("root-servers.net", "a.root-servers.net", |z| {
        ns(z, "root-servers.net", "a.root-servers.net");
        a(z, "a.root-servers.net", "1.0.0.1");
    });
    b.zone("fbi.gov", "dns.sprintip.com", |z| {
        ns(z, "fbi.gov", "dns.sprintip.com");
        ns(z, "fbi.gov", "dns2.sprintip.com");
        a(z, "www.fbi.gov", "8.0.0.80");
    });
    b.zone("sprintip.com", "reston-ns1.telemail.net", |z| {
        ns(z, "sprintip.com", "reston-ns1.telemail.net");
        ns(z, "sprintip.com", "reston-ns2.telemail.net");
        ns(z, "sprintip.com", "reston-ns3.telemail.net");
        a(z, "dns.sprintip.com", "9.0.0.1");
        a(z, "dns2.sprintip.com", "9.0.0.2");
    });
    b.zone("telemail.net", "reston-ns1.telemail.net", |z| {
        ns(z, "telemail.net", "reston-ns1.telemail.net");
        ns(z, "telemail.net", "reston-ns2.telemail.net");
        a(z, "reston-ns1.telemail.net", "7.0.0.1");
        a(z, "reston-ns2.telemail.net", "7.0.0.2");
        a(z, "reston-ns3.telemail.net", "7.0.0.3");
    });
    b.zone("usdoj.gov", "ns1.usdoj.gov", |z| {
        ns(z, "usdoj.gov", "ns1.usdoj.gov");
        a(z, "ns1.usdoj.gov", "2.0.2.1");
        a(z, "www.usdoj.gov", "8.0.1.80");
    });

    b.server(
        "a.root-servers.net",
        "1.0.0.1",
        "9.2.3",
        &[".", "root-servers.net"],
    );
    b.server("a.gtld-servers.net", "2.0.0.2", "9.2.3", &["com", "net"]);
    b.server(
        "a.gov-servers.net",
        "2.0.1.1",
        "9.2.3",
        &["gov", "gov-servers.net"],
    );
    b.server(
        "dns.sprintip.com",
        "9.0.0.1",
        "9.2.2",
        &["fbi.gov", "sprintip.com"],
    );
    b.server("dns2.sprintip.com", "9.0.0.2", "9.2.2", &["fbi.gov"]);
    b.server(
        "reston-ns1.telemail.net",
        "7.0.0.1",
        "9.2.2",
        &["telemail.net", "sprintip.com"],
    );
    // The paper's vulnerable box: BIND 8.2.4 with libbind, negcache,
    // sigrec and DoS multi.
    b.server(
        "reston-ns2.telemail.net",
        "7.0.0.2",
        "8.2.4",
        &["telemail.net", "sprintip.com"],
    );
    b.server(
        "reston-ns3.telemail.net",
        "7.0.0.3",
        "9.2.2",
        &["sprintip.com"],
    );
    b.server("ns1.usdoj.gov", "2.0.2.1", "9.2.3", &["usdoj.gov"]);

    Scenario {
        registry: b.registry,
        specs: b.specs,
        roots: vec![(name("a.root-servers.net"), "1.0.0.1".parse().unwrap())],
    }
}

/// A deliberately pathological universe that trips every built-in lint
/// rule at least once — the lint engine's golden fixture.
///
/// Under a healthy root and a two-server `test` TLD:
///
/// * `solo.test` — one NS (`single-server`);
/// * `corr.test` — both NS under `prov.test` (`single-operator`);
/// * `dangling.test` — one live NS plus a dead `.zz` host
///   (`lame-delegation`);
/// * `x.test` ↔ `y.test` — mutually glueless, unbootstrappable
///   (`glueless-cycle`);
/// * `stale.test` — every NS dead (`zombie-ns`);
/// * `deep0.test → deep1 → deep2 → deep3` — a glueless chain three
///   levels deep (`deep-chain` on `www.deep0.test`);
/// * `fat.test → bloat1 → … → bloat4` — one delegated NS dragging in a
///   five-server closure (`tcb-inflation` on `www.fat.test`);
/// * `choke.test` — a single glued NS every path crosses
///   (`choke-point` on `www.choke.test`);
/// * a `ghostchild.test` cut whose child zone no longer exists
///   (`orphaned-glue` on `ns.ghostchild-legacy.zz`).
///
/// Not part of the healthy-scenario test lists: this universe is *meant*
/// to be broken.
pub fn lint_tripwire() -> Scenario {
    let mut b = Builder::new();

    b.zone(".", "a.root-servers.net", |z| {
        ns(z, ".", "a.root-servers.net");
        a(z, "a.root-servers.net", "1.0.0.1");
        ns(z, "test", "ns1.test");
        ns(z, "test", "ns2.test");
        a(z, "ns1.test", "2.0.0.1");
        a(z, "ns2.test", "2.0.0.2");
        ns(z, "root-servers.net", "a.root-servers.net");
    });
    b.zone("test", "ns1.test", |z| {
        ns(z, "test", "ns1.test");
        ns(z, "test", "ns2.test");
        a(z, "ns1.test", "2.0.0.1");
        a(z, "ns2.test", "2.0.0.2");
        // One pathology per delegation, each glued where the rule needs
        // the zone alive and glueless where it needs it broken.
        ns(z, "solo.test", "ns1.solo.test");
        a(z, "ns1.solo.test", "3.0.0.1");
        ns(z, "corr.test", "ns1.prov.test");
        ns(z, "corr.test", "ns2.prov.test");
        ns(z, "prov.test", "ns1.prov.test");
        ns(z, "prov.test", "ns2.prov.test");
        a(z, "ns1.prov.test", "3.0.1.1");
        a(z, "ns2.prov.test", "3.0.1.2");
        ns(z, "dangling.test", "ns1.dangling.test");
        ns(z, "dangling.test", "ns.ghost.zz");
        a(z, "ns1.dangling.test", "3.0.2.1");
        ns(z, "x.test", "ns.y.test");
        ns(z, "y.test", "ns.x.test");
        ns(z, "stale.test", "ns1.gone.zz");
        ns(z, "stale.test", "ns2.gone.zz");
        ns(z, "deep0.test", "ns.deep1.test");
        ns(z, "deep1.test", "ns.deep2.test");
        ns(z, "deep2.test", "ns.deep3.test");
        ns(z, "deep3.test", "ns.deep3.test");
        a(z, "ns.deep3.test", "3.0.3.1");
        ns(z, "fat.test", "ns.bloat1.test");
        ns(z, "bloat1.test", "ns.bloat2.test");
        ns(z, "bloat2.test", "ns.bloat3.test");
        ns(z, "bloat3.test", "ns.bloat4.test");
        ns(z, "bloat4.test", "ns.bloat4.test");
        a(z, "ns.bloat4.test", "3.0.4.1");
        ns(z, "choke.test", "ns1.choke.test");
        a(z, "ns1.choke.test", "3.0.5.1");
        // The orphan: a cut whose child zone has vanished.
        ns(z, "ghostchild.test", "ns.ghostchild-legacy.zz");
    });
    b.zone("root-servers.net", "a.root-servers.net", |z| {
        ns(z, "root-servers.net", "a.root-servers.net");
        a(z, "a.root-servers.net", "1.0.0.1");
    });
    b.zone("solo.test", "ns1.solo.test", |z| {
        ns(z, "solo.test", "ns1.solo.test");
        a(z, "ns1.solo.test", "3.0.0.1");
        a(z, "www.solo.test", "4.0.0.80");
    });
    b.zone("corr.test", "ns1.prov.test", |z| {
        ns(z, "corr.test", "ns1.prov.test");
        ns(z, "corr.test", "ns2.prov.test");
        a(z, "www.corr.test", "4.0.1.80");
    });
    b.zone("prov.test", "ns1.prov.test", |z| {
        ns(z, "prov.test", "ns1.prov.test");
        ns(z, "prov.test", "ns2.prov.test");
        a(z, "ns1.prov.test", "3.0.1.1");
        a(z, "ns2.prov.test", "3.0.1.2");
    });
    b.zone("dangling.test", "ns1.dangling.test", |z| {
        ns(z, "dangling.test", "ns1.dangling.test");
        ns(z, "dangling.test", "ns.ghost.zz");
        a(z, "ns1.dangling.test", "3.0.2.1");
        a(z, "www.dangling.test", "4.0.2.80");
    });
    b.zone("x.test", "ns.y.test", |z| {
        ns(z, "x.test", "ns.y.test");
        a(z, "www.x.test", "4.0.3.80");
    });
    b.zone("y.test", "ns.x.test", |z| {
        ns(z, "y.test", "ns.x.test");
    });
    b.zone("stale.test", "ns1.gone.zz", |z| {
        ns(z, "stale.test", "ns1.gone.zz");
        ns(z, "stale.test", "ns2.gone.zz");
        a(z, "www.stale.test", "4.0.4.80");
    });
    b.zone("deep0.test", "ns.deep1.test", |z| {
        ns(z, "deep0.test", "ns.deep1.test");
        a(z, "www.deep0.test", "4.0.5.80");
    });
    b.zone("deep1.test", "ns.deep2.test", |z| {
        ns(z, "deep1.test", "ns.deep2.test");
    });
    b.zone("deep2.test", "ns.deep3.test", |z| {
        ns(z, "deep2.test", "ns.deep3.test");
    });
    b.zone("deep3.test", "ns.deep3.test", |z| {
        ns(z, "deep3.test", "ns.deep3.test");
        a(z, "ns.deep3.test", "3.0.3.1");
    });
    b.zone("fat.test", "ns.bloat1.test", |z| {
        ns(z, "fat.test", "ns.bloat1.test");
        a(z, "www.fat.test", "4.0.6.80");
    });
    b.zone("bloat1.test", "ns.bloat2.test", |z| {
        ns(z, "bloat1.test", "ns.bloat2.test");
    });
    b.zone("bloat2.test", "ns.bloat3.test", |z| {
        ns(z, "bloat2.test", "ns.bloat3.test");
    });
    b.zone("bloat3.test", "ns.bloat4.test", |z| {
        ns(z, "bloat3.test", "ns.bloat4.test");
    });
    b.zone("bloat4.test", "ns.bloat4.test", |z| {
        ns(z, "bloat4.test", "ns.bloat4.test");
        a(z, "ns.bloat4.test", "3.0.4.1");
    });
    b.zone("choke.test", "ns1.choke.test", |z| {
        ns(z, "choke.test", "ns1.choke.test");
        a(z, "ns1.choke.test", "3.0.5.1");
        a(z, "www.choke.test", "4.0.7.80");
    });

    b.server(
        "a.root-servers.net",
        "1.0.0.1",
        "9.2.3",
        &[".", "root-servers.net"],
    );
    b.server("ns1.test", "2.0.0.1", "9.2.3", &["test"]);
    b.server("ns2.test", "2.0.0.2", "9.2.3", &["test"]);
    b.server("ns1.solo.test", "3.0.0.1", "9.2.3", &["solo.test"]);
    b.server(
        "ns1.prov.test",
        "3.0.1.1",
        "9.2.3",
        &["corr.test", "prov.test"],
    );
    b.server(
        "ns2.prov.test",
        "3.0.1.2",
        "9.2.3",
        &["corr.test", "prov.test"],
    );
    b.server("ns1.dangling.test", "3.0.2.1", "8.2.4", &["dangling.test"]);
    b.server("ns.deep1.test", "3.0.3.2", "9.2.3", &["deep0.test"]);
    b.server("ns.deep2.test", "3.0.3.3", "9.2.3", &["deep1.test"]);
    b.server(
        "ns.deep3.test",
        "3.0.3.1",
        "9.2.3",
        &["deep2.test", "deep3.test"],
    );
    b.server("ns.bloat1.test", "3.0.4.2", "9.2.3", &["fat.test"]);
    b.server("ns.bloat2.test", "3.0.4.3", "9.2.3", &["bloat1.test"]);
    b.server("ns.bloat3.test", "3.0.4.4", "9.2.3", &["bloat2.test"]);
    b.server(
        "ns.bloat4.test",
        "3.0.4.1",
        "9.2.3",
        &["bloat3.test", "bloat4.test"],
    );
    b.server("ns1.choke.test", "3.0.5.1", "9.2.3", &["choke.test"]);

    Scenario {
        registry: b.registry,
        specs: b.specs,
        roots: vec![(name("a.root-servers.net"), "1.0.0.1".parse().unwrap())],
    }
}

/// The survey targets the lint goldens check `lint_tripwire` against:
/// one name per pathology family.
pub fn lint_tripwire_targets() -> Vec<DnsName> {
    [
        "www.solo.test",
        "www.corr.test",
        "www.dangling.test",
        "www.x.test",
        "www.stale.test",
        "www.deep0.test",
        "www.fat.test",
        "www.choke.test",
    ]
    .iter()
    .map(|n| name(n))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::deploy;
    use perils_netsim::SimNet;

    #[test]
    fn scenarios_deploy_cleanly() {
        for scenario in [cornell_figure1(), fbi_case()] {
            let net = SimNet::new();
            deploy(&net, &scenario.registry, &scenario.specs).expect("scenario deploys");
            assert!(net.endpoint_count() >= 8);
            assert!(!scenario.roots.is_empty());
        }
    }

    #[test]
    fn every_spec_zone_exists() {
        for scenario in [cornell_figure1(), fbi_case()] {
            for spec in &scenario.specs {
                for zone in &spec.zones {
                    assert!(
                        scenario.registry.get(zone).is_some(),
                        "zone {zone} of {} missing",
                        spec.host_name
                    );
                }
            }
        }
    }

    #[test]
    fn every_apex_ns_has_a_server_spec() {
        for scenario in [cornell_figure1(), fbi_case()] {
            let hosts: std::collections::BTreeSet<&DnsName> =
                scenario.specs.iter().map(|s| &s.host_name).collect();
            for zone in scenario.registry.iter() {
                for ns in zone.apex_ns_names() {
                    assert!(
                        hosts.contains(&ns),
                        "no server spec for {ns} (zone {})",
                        zone.origin()
                    );
                }
            }
        }
    }
}
