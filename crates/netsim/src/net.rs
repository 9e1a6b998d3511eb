//! The simulated network: endpoint registry and query delivery.
//!
//! [`SimNet`] owns the address→endpoint map and the [`FaultPlan`].
//! Delivery is synchronous and lossless: `query()` returns the response,
//! or `None` when the server is dead, unbound or silent. The network
//! models who answers, not how long it takes.
//!
//! Interior mutability (`std::sync` locks) keeps `query()` usable through
//! a shared reference, so a parallel survey driver can fan out across
//! threads while fault state remains centrally adjustable.
//! A lock poisoned by a panicking holder is recovered: every write is
//! one set or map insert, so neither is ever left half-updated.

use crate::fault::FaultPlan;
use perils_dns::message::Message;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, PoisonError, RwLock};

/// Something that answers DNS queries at an address.
pub trait Endpoint: Send + Sync {
    /// Handles one query. Returning `None` means the server received the
    /// query but chose not to respond (e.g. it filters the class).
    fn handle(&self, query: &Message) -> Option<Message>;
}

/// The simulated internet.
pub struct SimNet {
    endpoints: RwLock<HashMap<Ipv4Addr, Arc<dyn Endpoint>>>,
    faults: RwLock<FaultPlan>,
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
        }
    }

    /// Binds `endpoint` at `addr` (replacing any previous binding).
    pub fn bind(&self, addr: Ipv4Addr, endpoint: Arc<dyn Endpoint>) {
        self.endpoints
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(addr, endpoint);
    }

    /// Number of bound endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Runs `f` against the fault plan (e.g. to kill a server mid-run).
    pub fn with_faults<R>(&self, f: impl FnOnce(&mut FaultPlan) -> R) -> R {
        f(&mut self.faults.write().unwrap_or_else(PoisonError::into_inner))
    }

    /// Delivers `query` to the server at `to`, applying the fault plan.
    /// `None` when the server is dead, unbound or stays silent.
    pub fn query(&self, to: Ipv4Addr, query: &Message) -> Option<Message> {
        if self
            .faults
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_dead(to)
        {
            return None;
        }
        let endpoint = self
            .endpoints
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&to)
            .cloned()?;
        endpoint.handle(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::message::{Message, Question};
    use perils_dns::name::name;
    use perils_dns::rr::{RData, Record, RrType};
    use std::net::Ipv4Addr;

    /// A closure endpoint.
    struct FnEndpoint<F>(F);

    impl<F> Endpoint for FnEndpoint<F>
    where
        F: Fn(&Message) -> Option<Message> + Send + Sync,
    {
        fn handle(&self, query: &Message) -> Option<Message> {
            (self.0)(query)
        }
    }

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
        let response = net.query(addr, &a_query()).expect("answered");
        assert!(response.flags.aa);
        assert_eq!(response.answers.len(), 1);
    }

    #[test]
    fn unbound_address_times_out() {
        let net = SimNet::new();
        assert!(net.query("10.9.9.9".parse().unwrap(), &a_query()).is_none());
    }

    #[test]
    fn dead_server_times_out() {
        let net = SimNet::new();
        let addr: Ipv4Addr = "10.0.0.1".parse().unwrap();
        net.bind(addr, echo_endpoint());
        net.with_faults(|f| f.kill(addr));
        assert!(net.query(addr, &a_query()).is_none());
    }

    #[test]
    fn silent_endpoint_counts_as_timeout() {
        let net = SimNet::new();
        let addr: Ipv4Addr = "10.0.0.1".parse().unwrap();
        net.bind(addr, Arc::new(FnEndpoint(|_: &Message| None)));
        assert!(net.query(addr, &a_query()).is_none());
    }

    #[test]
    fn rebinding_replaces_endpoint() {
        let net = SimNet::new();
        let addr: Ipv4Addr = "10.0.0.1".parse().unwrap();
        net.bind(addr, echo_endpoint());
        net.bind(addr, Arc::new(FnEndpoint(|_: &Message| None)));
        assert_eq!(net.endpoint_count(), 1);
        assert!(net.query(addr, &a_query()).is_none());
    }
}
