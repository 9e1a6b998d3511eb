//! The simulated network: endpoint registry and query delivery.
//!
//! [`SimNet`] owns the address→endpoint map, the [`FaultPlan`] and
//! delivery statistics. Delivery is synchronous and lossless: `query()`
//! returns the response (or `None` when the server is dead, unbound or
//! silent) plus the simulated RTT, a fixed function of the server's
//! region.
//!
//! Interior mutability (`parking_lot` locks) keeps `query()` usable through
//! a shared reference, so a parallel survey driver can fan out across
//! threads while fault state remains centrally adjustable.

use crate::addr::{IpAllocator, Region};
use crate::fault::{rtt_ms, FaultPlan};
use parking_lot::{Mutex, RwLock};
use perils_dns::message::Message;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Something that answers DNS queries at an address.
pub trait Endpoint: Send + Sync {
    /// Handles one query. Returning `None` means the server received the
    /// query but chose not to respond (e.g. it filters the class).
    fn handle(&self, query: &Message) -> Option<Message>;
}

/// A closure endpoint, handy in tests.
pub struct FnEndpoint<F>(pub F);

impl<F> Endpoint for FnEndpoint<F>
where
    F: Fn(&Message) -> Option<Message> + Send + Sync,
{
    fn handle(&self, query: &Message) -> Option<Message> {
        (self.0)(query)
    }
}

/// The result of one delivery attempt.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The response, or `None` when the query timed out (dead server,
    /// unbound address, or a silent server).
    pub response: Option<Message>,
    /// Simulated round-trip time. When nothing came back this is the
    /// retransmission-timeout cost the caller pays.
    pub rtt_ms: u32,
}

/// Counters accumulated across all deliveries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Queries submitted.
    pub queries: u64,
    /// Answered queries.
    pub answered: u64,
    /// Queries to dead servers.
    pub to_dead: u64,
    /// Queries to unbound addresses.
    pub to_unbound: u64,
    /// Total simulated milliseconds spent.
    pub total_ms: u64,
}

impl NetStats {
    /// Charges one timeout and returns its outcome.
    fn timeout(&mut self) -> QueryOutcome {
        self.total_ms += TIMEOUT_MS as u64;
        QueryOutcome {
            response: None,
            rtt_ms: TIMEOUT_MS,
        }
    }
}

/// Timeout charged when no response arrives (classic resolver RTO).
pub const TIMEOUT_MS: u32 = 3000;

/// The region the probe client sits in.
const CLIENT_REGION: Region = Region(0);

/// The simulated internet.
pub struct SimNet {
    endpoints: RwLock<HashMap<Ipv4Addr, Arc<dyn Endpoint>>>,
    faults: RwLock<FaultPlan>,
    stats: Mutex<NetStats>,
}

impl Default for SimNet {
    fn default() -> Self {
        SimNet::new()
    }
}

impl SimNet {
    /// Creates an empty network with every server up.
    pub fn new() -> SimNet {
        SimNet {
            endpoints: RwLock::new(HashMap::new()),
            faults: RwLock::new(FaultPlan::default()),
            stats: Mutex::new(NetStats::default()),
        }
    }

    /// Binds `endpoint` at `addr` (replacing any previous binding).
    pub fn bind(&self, addr: Ipv4Addr, endpoint: Arc<dyn Endpoint>) {
        self.endpoints.write().insert(addr, endpoint);
    }

    /// Number of bound endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.read().len()
    }

    /// Runs `f` against the fault plan (e.g. to kill a server mid-run).
    pub fn with_faults<R>(&self, f: impl FnOnce(&mut FaultPlan) -> R) -> R {
        f(&mut self.faults.write())
    }

    /// A copy of the accumulated statistics.
    pub fn stats(&self) -> NetStats {
        self.stats.lock().clone()
    }

    /// Delivers `query` to the server at `to`, applying the fault plan.
    pub fn query(&self, to: Ipv4Addr, query: &Message) -> QueryOutcome {
        let mut stats = self.stats.lock();
        stats.queries += 1;
        if self.faults.read().is_dead(to) {
            stats.to_dead += 1;
            return stats.timeout();
        }
        let endpoint = self.endpoints.read().get(&to).cloned();
        let Some(endpoint) = endpoint else {
            stats.to_unbound += 1;
            return stats.timeout();
        };
        drop(stats);
        let response = endpoint.handle(query);
        let mut stats = self.stats.lock();
        let Some(response) = response else {
            // Server silently ignored the query.
            return stats.timeout();
        };
        let rtt = rtt_ms(CLIENT_REGION, IpAllocator::region_of(to));
        stats.answered += 1;
        stats.total_ms += rtt as u64;
        QueryOutcome {
            response: Some(response),
            rtt_ms: rtt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::message::{Message, Question};
    use perils_dns::name::name;
    use perils_dns::rr::{RData, Record, RrType};
    use std::net::Ipv4Addr;

    fn echo_endpoint() -> Arc<dyn Endpoint> {
        Arc::new(FnEndpoint(|query: &Message| {
            let mut response = Message::response_to(query);
            response.flags.aa = true;
            response.answers.push(Record::new(
                query.question().unwrap().name.clone(),
                60,
                RData::A(Ipv4Addr::new(1, 2, 3, 4)),
            ));
            Some(response)
        }))
    }

    fn a_query() -> Message {
        Message::query(1, Question::new(name("www.test"), RrType::A))
    }

    #[test]
    fn delivers_to_bound_endpoint() {
        let net = SimNet::new();
        let addr: Ipv4Addr = "10.0.0.1".parse().unwrap();
        net.bind(addr, echo_endpoint());
        let outcome = net.query(addr, &a_query());
        assert!(outcome.response.is_some());
        assert!(outcome.rtt_ms >= 10, "round trip has base latency");
        let stats = net.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.answered, 1);
    }

    #[test]
    fn unbound_address_times_out() {
        let net = SimNet::new();
        let outcome = net.query("10.9.9.9".parse().unwrap(), &a_query());
        assert!(outcome.response.is_none());
        assert_eq!(outcome.rtt_ms, TIMEOUT_MS);
        assert_eq!(net.stats().to_unbound, 1);
    }

    #[test]
    fn dead_server_times_out() {
        let net = SimNet::new();
        let addr: Ipv4Addr = "10.0.0.1".parse().unwrap();
        net.bind(addr, echo_endpoint());
        net.with_faults(|f| f.kill(addr));
        assert!(net.query(addr, &a_query()).response.is_none());
        assert_eq!(net.stats().to_dead, 1);
    }

    #[test]
    fn latency_reflects_region_distance() {
        let net = SimNet::new();
        let mut alloc = IpAllocator::new();
        let near_addr = alloc.alloc(Region(0));
        let far_addr = alloc.alloc(Region(50));
        net.bind(near_addr, echo_endpoint());
        net.bind(far_addr, echo_endpoint());
        let near = net.query(near_addr, &a_query()).rtt_ms;
        let far = net.query(far_addr, &a_query()).rtt_ms;
        assert!(far > near * 2, "far {far} vs near {near}");
    }

    #[test]
    fn silent_endpoint_counts_as_timeout() {
        let net = SimNet::new();
        let addr: Ipv4Addr = "10.0.0.1".parse().unwrap();
        net.bind(addr, Arc::new(FnEndpoint(|_: &Message| None)));
        let outcome = net.query(addr, &a_query());
        assert!(outcome.response.is_none());
        assert_eq!(outcome.rtt_ms, TIMEOUT_MS);
    }

    #[test]
    fn rebinding_replaces_endpoint() {
        let net = SimNet::new();
        let addr: Ipv4Addr = "10.0.0.1".parse().unwrap();
        net.bind(addr, echo_endpoint());
        net.bind(addr, Arc::new(FnEndpoint(|_: &Message| None)));
        assert_eq!(net.endpoint_count(), 1);
        assert!(net.query(addr, &a_query()).response.is_none());
    }
}
