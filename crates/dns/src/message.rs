//! DNS messages: header, flags, questions, and the four record sections
//! (RFC 1035 §4.1).
//!
//! A [`Message`] is a value that simulated hosts pass to each other
//! (`perils_netsim::SimNet::query`); it is never encoded to bytes, so
//! this crate has no wire codec.

use crate::name::DnsName;
use crate::rr::{Record, RrClass, RrType};
use std::fmt;

/// Response codes (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// The query was malformed.
    FormErr,
    /// The server failed internally.
    ServFail,
    /// The queried name does not exist (authoritative).
    NxDomain,
    /// The server does not support the query.
    NotImp,
    /// Policy refusal.
    Refused,
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
        }
    }
}

/// Header flag bits (RFC 1035 §4.1.1), excluding the rcode, which is
/// carried separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Response (true) or query (false).
    pub qr: bool,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub name: DnsName,
    /// Queried type.
    pub qtype: RrType,
    /// Queried class.
    pub qclass: RrClass,
}

impl Question {
    /// IN-class question.
    pub fn new(name: DnsName, qtype: RrType) -> Question {
        Question {
            name,
            qtype,
            qclass: RrClass::In,
        }
    }

    /// The CHAOS `version.bind. TXT` fingerprinting question.
    pub fn version_bind() -> Question {
        Question {
            name: DnsName::from_ascii("version.bind").expect("static name"),
            qtype: RrType::Txt,
            qclass: RrClass::Ch,
        }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.qclass, self.qtype)
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Header flag bits.
    pub flags: Flags,
    /// Response code.
    pub rcode: Rcode,
    /// Question section (usually exactly one entry).
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (NS records of the referred-to zone, SOAs on
    /// negative answers).
    pub authority: Vec<Record>,
    /// Additional section (glue).
    pub additional: Vec<Record>,
}

impl Message {
    /// Builds a standard query for `question` with the given transaction id.
    pub fn query(id: u16, question: Question) -> Message {
        Message {
            id,
            flags: Flags {
                qr: false,
                aa: false,
                tc: false,
                rd: false,
                ra: false,
            },
            rcode: Rcode::NoError,
            questions: vec![question],
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Builds a response skeleton echoing the query's id and question.
    pub fn response_to(query: &Message) -> Message {
        Message {
            id: query.id,
            flags: Flags {
                qr: true,
                aa: false,
                tc: false,
                rd: query.flags.rd,
                ra: false,
            },
            rcode: Rcode::NoError,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// True when this response is a referral: no answers, NS records in the
    /// authority section, and not authoritative.
    pub fn is_referral(&self) -> bool {
        self.flags.qr
            && self.rcode == Rcode::NoError
            && self.answers.is_empty()
            && self.authority.iter().any(|r| r.rtype() == RrType::Ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use crate::rr::RData;
    use std::net::Ipv4Addr;

    #[test]
    fn query_skeleton() {
        let q = Message::query(7, Question::new(name("www.example.com"), RrType::A));
        assert_eq!(q.id, 7);
        assert!(!q.flags.qr);
        assert_eq!(q.question().unwrap().qtype, RrType::A);
    }

    #[test]
    fn response_echoes_query() {
        let q = Message::query(99, Question::new(name("x.org"), RrType::Ns));
        let r = Message::response_to(&q);
        assert_eq!(r.id, 99);
        assert!(r.flags.qr);
        assert_eq!(r.questions, q.questions);
    }

    #[test]
    fn referral_and_authoritative_predicates() {
        let q = Message::query(1, Question::new(name("www.example.com"), RrType::A));
        let mut referral = Message::response_to(&q);
        referral.authority.push(Record::new(
            name("example.com"),
            3600,
            RData::Ns(name("ns1.example.com")),
        ));
        assert!(referral.is_referral());

        let mut answer = Message::response_to(&q);
        answer.flags.aa = true;
        answer.answers.push(Record::new(
            name("www.example.com"),
            3600,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        assert!(!answer.is_referral());
    }

    #[test]
    fn version_bind_question_is_chaos() {
        let q = Question::version_bind();
        assert_eq!(q.qclass, RrClass::Ch);
        assert_eq!(q.qtype, RrType::Txt);
        assert_eq!(q.to_string(), "version.bind CH TXT");
    }
}
