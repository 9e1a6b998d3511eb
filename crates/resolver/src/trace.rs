//! Per-resolution tracing: which zones and servers a lookup touched.

use perils_dns::name::DnsName;
use std::net::Ipv4Addr;

/// One step of an iterative resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceStep {
    /// Queried a server about a name.
    Query {
        /// Server host name (as known when the query was sent).
        server: DnsName,
        /// Server address.
        addr: Ipv4Addr,
        /// Name being resolved.
        qname: DnsName,
        /// What happened.
        event: QueryEvent,
    },
    /// Entered a sub-resolution to obtain the address of a glueless
    /// nameserver — the transitive-trust mechanism.
    SubResolutionStart {
        /// The nameserver name being resolved.
        ns_name: DnsName,
    },
    /// Finished a sub-resolution.
    SubResolutionEnd {
        /// The nameserver name that was resolved.
        ns_name: DnsName,
        /// Whether an address was obtained.
        ok: bool,
    },
}

/// Outcome of one query in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryEvent {
    /// Authoritative answer received.
    Answer,
    /// Referral toward the target.
    Referral,
    /// Authoritative NXDOMAIN.
    NxDomain,
    /// Authoritative empty answer.
    NoData,
    /// No response (dead, silent or unbound server).
    Timeout,
    /// Server not authoritative / refused: a lame delegation.
    Lame,
}

/// The full trace of one resolution.
#[derive(Debug, Clone, Default)]
pub struct ResolutionTrace {
    /// Steps in order.
    pub steps: Vec<TraceStep>,
}

impl ResolutionTrace {
    /// Creates an empty trace.
    pub fn new() -> ResolutionTrace {
        ResolutionTrace::default()
    }

    /// Every distinct server (by host name) that was queried.
    pub fn servers_contacted(&self) -> Vec<DnsName> {
        let mut out: Vec<DnsName> = Vec::new();
        for step in &self.steps {
            if let TraceStep::Query { server, .. } = step {
                if !out.contains(server) {
                    out.push(server.clone());
                }
            }
        }
        out
    }

    /// Depth of nested sub-resolutions reached.
    pub fn max_subresolution_depth(&self) -> usize {
        let mut depth = 0usize;
        let mut max = 0usize;
        for step in &self.steps {
            match step {
                TraceStep::SubResolutionStart { .. } => {
                    depth += 1;
                    max = max.max(depth);
                }
                TraceStep::SubResolutionEnd { .. } => depth = depth.saturating_sub(1),
                TraceStep::Query { .. } => {}
            }
        }
        max
    }

    /// Renders the trace as indented text (for examples and debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut indent = 0usize;
        for step in &self.steps {
            match step {
                TraceStep::Query {
                    server,
                    addr,
                    qname,
                    event,
                } => {
                    out.push_str(&"  ".repeat(indent));
                    out.push_str(&format!("{qname} @ {server} ({addr}): {event:?}\n"));
                }
                TraceStep::SubResolutionStart { ns_name } => {
                    out.push_str(&"  ".repeat(indent));
                    out.push_str(&format!("need address of {ns_name} (glueless)\n"));
                    indent += 1;
                }
                TraceStep::SubResolutionEnd { ns_name, ok } => {
                    indent = indent.saturating_sub(1);
                    out.push_str(&"  ".repeat(indent));
                    out.push_str(&format!("{ns_name} resolved: {ok}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::name::name;

    fn q(server: &str, qname: &str, event: QueryEvent) -> TraceStep {
        TraceStep::Query {
            server: name(server),
            addr: "10.0.0.1".parse().unwrap(),
            qname: name(qname),
            event,
        }
    }

    #[test]
    fn counting_and_dedup() {
        let trace = ResolutionTrace {
            steps: vec![
                q("a.root", "www.x.com", QueryEvent::Referral),
                TraceStep::SubResolutionStart {
                    ns_name: name("ns.y.net"),
                },
                q("b.gtld", "ns.y.net", QueryEvent::Answer),
                TraceStep::SubResolutionEnd {
                    ns_name: name("ns.y.net"),
                    ok: true,
                },
                q("b.gtld", "www.x.com", QueryEvent::Timeout),
                q("a.root", "www.x.com", QueryEvent::Lame),
            ],
        };
        assert_eq!(
            trace.servers_contacted(),
            vec![name("a.root"), name("b.gtld")]
        );
        assert_eq!(trace.max_subresolution_depth(), 1);
        let text = trace.render();
        assert!(text.contains("glueless"));
        assert!(text.contains("Timeout"));
    }

    #[test]
    fn nested_depth() {
        let trace = ResolutionTrace {
            steps: vec![
                TraceStep::SubResolutionStart {
                    ns_name: name("a.x"),
                },
                TraceStep::SubResolutionStart {
                    ns_name: name("b.y"),
                },
                TraceStep::SubResolutionEnd {
                    ns_name: name("b.y"),
                    ok: false,
                },
                TraceStep::SubResolutionEnd {
                    ns_name: name("a.x"),
                    ok: true,
                },
            ],
        };
        assert_eq!(trace.max_subresolution_depth(), 2);
    }
}
