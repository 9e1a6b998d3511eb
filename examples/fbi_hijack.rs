//! The §3.2 case study: hijacking www.fbi.gov through telemail.net.
//!
//! "The fbi.gov domain is served by two machines named dns.sprintip.com
//! and dns2.sprintip.com. The sprintip.com domain is in turn served by
//! three machines named reston-ns[123].telemail.net. Of these machines,
//! reston-ns2.telemail.net is running an old nameserver (BIND 8.2.4), with
//! four different known exploits against it."
//!
//! ```text
//! cargo run --release --example fbi_hijack
//! ```

use perils::authserver::scenarios::fbi_case;
use perils::core::attack::AttackSim;
use perils::core::closure::DependencyIndex;
use perils::dns::name::name;
use perils::survey::scenario::universe_from_scenario;
use perils::vulndb::{BindVersion, VulnDb};
use std::collections::BTreeSet;

fn main() {
    let scenario = fbi_case();
    let universe = universe_from_scenario(&scenario);
    let index = DependencyIndex::build(&universe);
    let sim = AttackSim::new(&universe, &index);
    let db = VulnDb::isc_feb_2004();
    let target = name("www.fbi.gov");

    // Step 0: what the fingerprint shows — the banner the server's spec
    // exposes (the scenario's ground truth; the universe keeps only the
    // verdicts assessed from it).
    let ns2 = name("reston-ns2.telemail.net");
    let banner = scenario
        .specs
        .iter()
        .find(|spec| spec.host_name == ns2)
        .and_then(|spec| spec.software.banner())
        .expect("reston-ns2 exposes its banner");
    let version = BindVersion::parse(&banner).expect("banner parses");
    println!("reston-ns2.telemail.net runs BIND {version}; known exploits:");
    for advisory in db.affecting(&version) {
        println!(
            "    {:10}  {} ({}{})",
            advisory.key,
            advisory.title,
            advisory.severity,
            if advisory.scripted_exploit {
                ", scripted exploit circulating"
            } else {
                ""
            }
        );
    }

    // Step 1: compromise every scripted-vulnerable box (just reston-ns2).
    let foothold = sim.all_scripted_vulnerable();
    println!(
        "\nStep 1 — compromise via scripted exploits: {:?}",
        foothold
            .iter()
            .map(|&s| universe.server(s).name.to_string())
            .collect::<Vec<_>>()
    );

    // Step 2: partial hijack of fbi.gov is already possible.
    let outcome = sim.assess(&target, &foothold, &BTreeSet::new());
    println!(
        "Step 2 — {target}: partial hijack possible = {}, complete = {}",
        outcome.partial, outcome.complete
    );
    println!("        (queries for dns.sprintip.com that hit reston-ns2 can be diverted)");

    // Step 3: escalate — divert sprintip resolutions, capture the fbi.gov
    // servers' identities.
    let owned = sim.escalate(&foothold, &BTreeSet::new(), true);
    println!("Step 3 — escalation captures:");
    for &sid in owned.difference(&foothold) {
        println!("    {}", universe.server(sid).name);
    }

    // Step 4: with a DoS on the two clean telemail boxes, the hijack is
    // complete — every resolution path for www.fbi.gov is attacker-owned.
    let dosed: BTreeSet<_> = ["reston-ns1.telemail.net", "reston-ns3.telemail.net"]
        .iter()
        .filter_map(|h| universe.server_id(&name(h)))
        .collect();
    let outcome = sim.assess(&target, &foothold, &dosed);
    println!(
        "Step 4 — with DoS on reston-ns1/ns3: complete hijack = {}",
        outcome.complete
    );

    println!(
        "\n\"A malicious agent can easily compromise that server, use it to hijack\n\
         additional domains, and ultimately take control of FBI's namespace.\" (§1)"
    );
}
