//! The authoritative server: RFC 1034 §4.3.2 query processing.

use crate::software::ServerSoftware;
use perils_dns::message::{Message, Question, Rcode};
use perils_dns::name::DnsName;
use perils_dns::rr::{RData, Record, RrClass, RrType};
use perils_dns::zone::{Zone, ZoneLookup};
use perils_netsim::Endpoint;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Maximum CNAME links chased inside one response.
const MAX_CNAME_CHAIN: usize = 8;

/// An authoritative nameserver instance.
///
/// A server hosts zero or more zones (zero models a decommissioned or
/// misconfigured box that answers REFUSED to everything — a lame server).
pub struct AuthServer {
    host_name: DnsName,
    addr: Ipv4Addr,
    software: ServerSoftware,
    /// Hosted zones, shared with whoever built the universe.
    zones: Vec<Arc<Zone>>,
}

impl AuthServer {
    /// Creates a server with no zones.
    pub fn new(host_name: DnsName, addr: Ipv4Addr, software: ServerSoftware) -> AuthServer {
        AuthServer {
            host_name,
            addr,
            software,
            zones: Vec::new(),
        }
    }

    /// Adds a hosted zone.
    pub fn add_zone(&mut self, zone: Arc<Zone>) {
        self.zones.push(zone);
    }

    /// The server's host name.
    pub fn host_name(&self) -> &DnsName {
        &self.host_name
    }

    /// The server's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// The software this server runs.
    pub fn software(&self) -> &ServerSoftware {
        &self.software
    }

    /// The deepest hosted zone enclosing `name`.
    fn zone_for(&self, name: &DnsName) -> Option<&Arc<Zone>> {
        self.zones
            .iter()
            .filter(|z| name.is_subdomain_of(z.origin()))
            .max_by_key(|z| z.origin().label_count())
    }

    /// Processes one query, producing the full response message.
    pub fn respond(&self, query: &Message) -> Message {
        let mut response = Message::response_to(query);
        let Some(question) = query.question().cloned() else {
            response.rcode = Rcode::FormErr;
            return response;
        };
        match question.qclass {
            RrClass::Ch => self.respond_chaos(&question, response),
            RrClass::In | RrClass::Any => self.respond_in(&question, response),
        }
    }

    /// CHAOS class: `version.bind` probes.
    fn respond_chaos(&self, question: &Question, mut response: Message) -> Message {
        let is_version_bind = question.qtype == RrType::Txt
            && question.name == DnsName::from_ascii("version.bind").expect("static");
        if !is_version_bind {
            response.rcode = Rcode::Refused;
            return response;
        }
        match self.software.banner() {
            Some(banner) => {
                response.flags.aa = true;
                response.answers.push(Record::version_banner(&banner));
            }
            None => response.rcode = Rcode::Refused,
        }
        response
    }

    /// IN class: authoritative data.
    fn respond_in(&self, question: &Question, mut response: Message) -> Message {
        let Some(zone) = self.zone_for(&question.name) else {
            // Not authoritative and recursion is not offered.
            response.rcode = Rcode::Refused;
            return response;
        };
        let mut current_zone = zone;
        let mut current_name = question.name.clone();
        for _ in 0..MAX_CNAME_CHAIN {
            match current_zone.lookup(&current_name, question.qtype) {
                ZoneLookup::Answer(records) => {
                    response.flags.aa = true;
                    response.answers.extend(records);
                    // Attach apex NS in authority for completeness.
                    self.attach_authority_ns(current_zone, &mut response);
                    return response;
                }
                ZoneLookup::Cname { record, target } => {
                    response.flags.aa = true;
                    response.answers.push(record);
                    // Chase the target while we are authoritative for it.
                    match self.zone_for(&target) {
                        Some(next_zone) => {
                            current_zone = next_zone;
                            current_name = target;
                        }
                        None => return response,
                    }
                }
                ZoneLookup::Referral {
                    ns_records, glue, ..
                } => {
                    response.flags.aa = false;
                    response.authority.extend(ns_records);
                    response.additional.extend(glue);
                    return response;
                }
                ZoneLookup::NoData => {
                    response.flags.aa = true;
                    self.attach_soa(current_zone, &mut response);
                    return response;
                }
                ZoneLookup::NxDomain => {
                    response.flags.aa = true;
                    response.rcode = Rcode::NxDomain;
                    self.attach_soa(current_zone, &mut response);
                    return response;
                }
            }
        }
        // CNAME chain too long.
        response.rcode = Rcode::ServFail;
        response
    }

    fn attach_soa(&self, zone: &Zone, response: &mut Message) {
        response.authority.push(Record::new(
            zone.origin().clone(),
            zone.soa().minimum,
            RData::Soa(zone.soa().clone()),
        ));
    }

    fn attach_authority_ns(&self, zone: &Zone, response: &mut Message) {
        if let ZoneLookup::Answer(ns) = zone.lookup(zone.origin(), RrType::Ns) {
            // Skip when the answer section already holds these (NS query at
            // the apex).
            if response.answers.iter().any(|r| r.rtype() == RrType::Ns) {
                return;
            }
            response.authority.extend(ns);
        }
    }
}

impl Endpoint for AuthServer {
    fn handle(&self, query: &Message) -> Option<Message> {
        Some(self.respond(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::name::name;
    use perils_dns::rr::Soa;

    fn example_server() -> AuthServer {
        let mut zone = Zone::new(
            name("example.com"),
            Soa::synthetic(name("ns1.example.com"), 1),
        );
        zone.add_rdata(name("example.com"), RData::Ns(name("ns1.example.com")))
            .unwrap();
        zone.add_rdata(
            name("ns1.example.com"),
            RData::A("10.0.0.1".parse().unwrap()),
        )
        .unwrap();
        zone.add_rdata(
            name("www.example.com"),
            RData::A("10.0.0.80".parse().unwrap()),
        )
        .unwrap();
        zone.add_rdata(
            name("web.example.com"),
            RData::Cname(name("www.example.com")),
        )
        .unwrap();
        zone.add_rdata(
            name("sub.example.com"),
            RData::Ns(name("ns.sub.example.com")),
        )
        .unwrap();
        zone.add_rdata(
            name("ns.sub.example.com"),
            RData::A("10.0.1.1".parse().unwrap()),
        )
        .unwrap();
        let mut server = AuthServer::new(
            name("ns1.example.com"),
            "10.0.0.1".parse().unwrap(),
            ServerSoftware::bind("8.2.4"),
        );
        server.add_zone(Arc::new(zone));
        server
    }

    fn ask(server: &AuthServer, qname: &str, qtype: RrType) -> Message {
        server.respond(&Message::query(42, Question::new(name(qname), qtype)))
    }

    #[test]
    fn authoritative_answer() {
        let server = example_server();
        let response = ask(&server, "www.example.com", RrType::A);
        assert!(response.flags.aa && response.rcode == Rcode::NoError);
        assert_eq!(response.answers.len(), 1);
        assert!(response.authority.iter().any(|r| r.rtype() == RrType::Ns));
    }

    #[test]
    fn cname_chased_locally() {
        let server = example_server();
        let response = ask(&server, "web.example.com", RrType::A);
        assert!(response.flags.aa);
        assert_eq!(response.answers.len(), 2, "CNAME plus target A");
        assert_eq!(response.answers[0].rtype(), RrType::Cname);
        assert_eq!(response.answers[1].rtype(), RrType::A);
    }

    #[test]
    fn referral_with_glue() {
        let server = example_server();
        let response = ask(&server, "deep.sub.example.com", RrType::A);
        assert!(response.is_referral());
        assert!(!response.flags.aa);
        assert_eq!(response.authority[0].name, name("sub.example.com"));
        assert_eq!(response.additional.len(), 1);
    }

    #[test]
    fn nxdomain_and_nodata_carry_soa() {
        let server = example_server();
        let response = ask(&server, "missing.example.com", RrType::A);
        assert_eq!(response.rcode, Rcode::NxDomain);
        assert!(response.authority.iter().any(|r| r.rtype() == RrType::Soa));

        let response = ask(&server, "www.example.com", RrType::Mx);
        assert_eq!(response.rcode, Rcode::NoError);
        assert!(response.answers.is_empty());
        assert!(response.authority.iter().any(|r| r.rtype() == RrType::Soa));
    }

    #[test]
    fn refused_outside_authority_models_lameness() {
        let server = example_server();
        let response = ask(&server, "www.other.org", RrType::A);
        assert_eq!(response.rcode, Rcode::Refused);
        // A server with no zones refuses everything.
        let lame = AuthServer::new(
            name("lame.example.net"),
            "10.0.0.9".parse().unwrap(),
            ServerSoftware::bind("9.2.3"),
        );
        let response = lame.respond(&Message::query(
            1,
            Question::new(name("x.example.net"), RrType::A),
        ));
        assert_eq!(response.rcode, Rcode::Refused);
    }

    #[test]
    fn version_bind_probe() {
        let server = example_server();
        let response = server.respond(&Message::query(7, Question::version_bind()));
        assert!(response.flags.aa);
        assert_eq!(
            perils_vulndb::fingerprint::banner_from_response(&response),
            Some("8.2.4".to_string())
        );
        // Other CHAOS queries are refused.
        let other = server.respond(&Message::query(
            8,
            Question {
                name: name("hostname.bind"),
                qtype: RrType::Txt,
                qclass: RrClass::Ch,
            },
        ));
        assert_eq!(other.rcode, Rcode::Refused);
    }

    #[test]
    fn banner_refusal() {
        let mut software = ServerSoftware::bind("8.2.4");
        software.banner_policy = crate::software::BannerPolicy::Refuse;
        let server = AuthServer::new(name("ns.hidden.org"), "10.0.0.2".parse().unwrap(), software);
        let response = server.respond(&Message::query(7, Question::version_bind()));
        assert_eq!(response.rcode, Rcode::Refused);
    }

    #[test]
    fn deepest_zone_wins() {
        // Server hosts both example.com and sub.example.com: queries under
        // sub go to the child zone (no referral).
        let mut parent = Zone::new(
            name("example.com"),
            Soa::synthetic(name("ns1.example.com"), 1),
        );
        parent
            .add_rdata(name("example.com"), RData::Ns(name("ns1.example.com")))
            .unwrap();
        parent
            .add_rdata(name("sub.example.com"), RData::Ns(name("ns1.example.com")))
            .unwrap();
        let mut child = Zone::new(
            name("sub.example.com"),
            Soa::synthetic(name("ns1.example.com"), 1),
        );
        child
            .add_rdata(name("sub.example.com"), RData::Ns(name("ns1.example.com")))
            .unwrap();
        child
            .add_rdata(
                name("www.sub.example.com"),
                RData::A("10.0.2.2".parse().unwrap()),
            )
            .unwrap();
        let mut server = AuthServer::new(
            name("ns1.example.com"),
            "10.0.0.1".parse().unwrap(),
            ServerSoftware::bind("9.2.3"),
        );
        server.add_zone(Arc::new(parent));
        server.add_zone(Arc::new(child));
        let response = ask(&server, "www.sub.example.com", RrType::A);
        assert!(
            response.flags.aa && response.rcode == Rcode::NoError,
            "child zone answers authoritatively"
        );
    }

    #[test]
    fn formerr_on_empty_question() {
        let server = example_server();
        let mut query = Message::query(1, Question::new(name("x.example.com"), RrType::A));
        query.questions.clear();
        assert_eq!(server.respond(&query).rcode, Rcode::FormErr);
    }
}
