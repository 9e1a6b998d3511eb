//! Deployment: binding a zone registry onto the simulated internet.
//!
//! A [`ServerSpec`] says which host serves which zones, at which address,
//! running which software. [`deploy`] instantiates the [`AuthServer`]s and
//! binds them into a [`SimNet`] — the step that turns a *namespace*
//! (zones and delegations) into an *infrastructure* (servers that can be
//! compromised, DoS'd, or fingerprinted).

use crate::server::AuthServer;
use crate::software::ServerSoftware;
use perils_dns::name::DnsName;
use perils_dns::zone::ZoneRegistry;
use perils_netsim::SimNet;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One server to deploy.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// The server's host name (should have an A record somewhere in the
    /// registry, or glue at its parent, for the world to reach it).
    pub host_name: DnsName,
    /// Address to bind.
    pub addr: Ipv4Addr,
    /// Software (version + banner policy).
    pub software: ServerSoftware,
    /// Origins of the zones this server hosts. Empty = a lame server.
    pub zones: Vec<DnsName>,
}

/// Deployment failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// A spec referenced a zone origin missing from the registry.
    UnknownZone {
        /// The server being deployed.
        server: DnsName,
        /// The zone it wanted.
        zone: DnsName,
    },
    /// Two specs bound the same address.
    AddressCollision(Ipv4Addr),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::UnknownZone { server, zone } => {
                write!(f, "server {server} hosts unknown zone {zone}")
            }
            DeployError::AddressCollision(addr) => write!(f, "address {addr} bound twice"),
        }
    }
}

impl std::error::Error for DeployError {}

/// Instantiates and binds every server in `specs`.
///
/// Zones are cloned out of the registry and shared (`Arc`) between servers
/// hosting the same zone.
pub fn deploy(
    net: &SimNet,
    registry: &ZoneRegistry,
    specs: &[ServerSpec],
) -> Result<(), DeployError> {
    // Share one Arc per zone across all its servers.
    let mut shared: std::collections::BTreeMap<DnsName, Arc<perils_dns::zone::Zone>> =
        std::collections::BTreeMap::new();
    let mut bound: std::collections::HashSet<Ipv4Addr> = std::collections::HashSet::new();
    for spec in specs {
        if !bound.insert(spec.addr) {
            return Err(DeployError::AddressCollision(spec.addr));
        }
        let mut server = AuthServer::new(spec.host_name.clone(), spec.addr, spec.software.clone());
        for origin in &spec.zones {
            let zone = match shared.get(origin) {
                Some(zone) => zone.clone(),
                None => {
                    let zone = registry
                        .get(origin)
                        .ok_or_else(|| DeployError::UnknownZone {
                            server: spec.host_name.clone(),
                            zone: origin.clone(),
                        })?;
                    let arc = Arc::new(zone.clone());
                    shared.insert(origin.clone(), arc.clone());
                    arc
                }
            };
            server.add_zone(zone);
        }
        net.bind(spec.addr, Arc::new(server));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::message::{Message, Question, Rcode};
    use perils_dns::name::name;
    use perils_dns::rr::{RData, RrType};
    use perils_dns::zone::Zone;

    fn registry() -> ZoneRegistry {
        let mut reg = ZoneRegistry::new();
        let mut root = Zone::synthetic(DnsName::root(), name("a.root-servers.net"));
        root.add_rdata(DnsName::root(), RData::Ns(name("a.root-servers.net")))
            .unwrap();
        root.add_rdata(
            name("a.root-servers.net"),
            RData::A("1.0.0.1".parse().unwrap()),
        )
        .unwrap();
        reg.insert(root);
        reg
    }

    #[test]
    fn deploy_binds_and_serves() {
        let net = SimNet::new();
        let specs = [ServerSpec {
            host_name: name("a.root-servers.net"),
            addr: "1.0.0.1".parse().unwrap(),
            software: ServerSoftware::bind("9.2.3"),
            zones: vec![DnsName::root()],
        }];
        deploy(&net, &registry(), &specs).unwrap();
        assert_eq!(net.endpoint_count(), 1);
        let q = Message::query(1, Question::new(name("a.root-servers.net"), RrType::A));
        let response = net.query("1.0.0.1".parse().unwrap(), &q).unwrap();
        assert!(response.flags.aa && response.rcode == Rcode::NoError);
    }

    #[test]
    fn unknown_zone_rejected() {
        let net = SimNet::new();
        let specs = [ServerSpec {
            host_name: name("ns.missing.test"),
            addr: "1.0.0.2".parse().unwrap(),
            software: ServerSoftware::bind("9.2.3"),
            zones: vec![name("missing.test")],
        }];
        let err = deploy(&net, &registry(), &specs).unwrap_err();
        assert!(matches!(err, DeployError::UnknownZone { .. }));
    }

    #[test]
    fn address_collision_rejected() {
        let net = SimNet::new();
        let spec = ServerSpec {
            host_name: name("a.root-servers.net"),
            addr: "1.0.0.1".parse().unwrap(),
            software: ServerSoftware::bind("9.2.3"),
            zones: vec![],
        };
        let err = deploy(&net, &registry(), &[spec.clone(), spec]).unwrap_err();
        assert_eq!(
            err,
            DeployError::AddressCollision("1.0.0.1".parse().unwrap())
        );
    }
}
