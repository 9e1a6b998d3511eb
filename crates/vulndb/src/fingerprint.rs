//! Fingerprinting: from a `version.bind` banner to a vulnerability
//! assessment.
//!
//! The survey sends a CHAOS-class `TXT version.bind.` query to every
//! discovered nameserver (exactly as the paper did) and feeds the banner —
//! if any — through [`VulnDb`]. The paper's optimistic rule applies: "For
//! nameservers whose vulnerabilities we do not know, we simply assume that
//! they are non-vulnerable."

use crate::advisory::{Advisory, VulnDb};
use crate::version::BindVersion;
use perils_dns::message::{Message, Rcode};
use perils_dns::rr::{RData, RrClass, RrType};

/// What the banner told us about the server software.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fingerprint {
    /// A parseable BIND version.
    Bind(BindVersion),
    /// A banner that is present but not a version (hidden/joke banners).
    Hidden(String),
    /// No banner at all (query refused or unanswered).
    Unknown,
}

/// The result of assessing one server.
#[derive(Debug, Clone)]
pub struct Assessment<'db> {
    /// What we learned from the banner.
    pub fingerprint: Fingerprint,
    /// Advisories applying to the fingerprinted version (empty for
    /// `Hidden`/`Unknown` per the optimistic rule).
    pub advisories: Vec<&'db Advisory>,
}

impl<'db> Assessment<'db> {
    /// Whether the server is considered vulnerable (known version with at
    /// least one advisory).
    pub fn is_vulnerable(&self) -> bool {
        !self.advisories.is_empty()
    }

    /// Whether a scripted exploit exists for this server.
    pub fn has_scripted_exploit(&self) -> bool {
        self.advisories.iter().any(|a| a.scripted_exploit)
    }
}

/// Assesses a raw banner string.
pub fn assess_banner<'db>(db: &'db VulnDb, banner: Option<&str>) -> Assessment<'db> {
    match banner {
        None => Assessment {
            fingerprint: Fingerprint::Unknown,
            advisories: Vec::new(),
        },
        Some(text) => match BindVersion::parse(text) {
            Some(version) => {
                let advisories = db.affecting(&version);
                Assessment {
                    fingerprint: Fingerprint::Bind(version),
                    advisories,
                }
            }
            None => Assessment {
                fingerprint: Fingerprint::Hidden(text.to_string()),
                advisories: Vec::new(),
            },
        },
    }
}

/// Extracts the banner from a `version.bind` CHAOS TXT response, if the
/// server answered one.
pub fn banner_from_response(response: &Message) -> Option<String> {
    if response.rcode != Rcode::NoError {
        return None;
    }
    response.answers.iter().find_map(|r| {
        if r.rtype == RrType::Txt && r.class == RrClass::Ch {
            match &r.rdata {
                RData::Txt(strings) if !strings.is_empty() => Some(strings.join(" ")),
                _ => None,
            }
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::message::Question;
    use perils_dns::rr::Record;

    #[test]
    fn vulnerable_banner() {
        let db = VulnDb::isc_feb_2004();
        let a = assess_banner(&db, Some("BIND 8.2.4"));
        assert!(matches!(a.fingerprint, Fingerprint::Bind(_)));
        assert!(a.is_vulnerable());
        assert!(a.has_scripted_exploit());
        assert_eq!(a.advisories.len(), 4);
    }

    #[test]
    fn clean_banner() {
        let db = VulnDb::isc_feb_2004();
        let a = assess_banner(&db, Some("9.2.3"));
        assert!(!a.is_vulnerable());
    }

    #[test]
    fn optimistic_rule_for_hidden_and_unknown() {
        let db = VulnDb::isc_feb_2004();
        let hidden = assess_banner(&db, Some("none of your business"));
        assert!(matches!(hidden.fingerprint, Fingerprint::Hidden(_)));
        assert!(!hidden.is_vulnerable(), "hidden banners are assumed safe");
        let unknown = assess_banner(&db, None);
        assert_eq!(unknown.fingerprint, Fingerprint::Unknown);
        assert!(!unknown.is_vulnerable());
    }

    #[test]
    fn banner_extraction_from_response() {
        let query = Message::query(1, Question::version_bind());
        let mut response = Message::response_to(&query);
        response.answers.push(Record::version_banner("BIND 8.2.4"));
        assert_eq!(
            banner_from_response(&response),
            Some("BIND 8.2.4".to_string())
        );

        // Refused responses yield no banner.
        let mut refused = Message::response_to(&query);
        refused.rcode = Rcode::Refused;
        assert_eq!(banner_from_response(&refused), None);
    }

    #[test]
    fn in_class_txt_is_not_a_banner() {
        let query = Message::query(1, Question::version_bind());
        let mut response = Message::response_to(&query);
        response.answers.push(Record::new(
            perils_dns::name::name("version.bind"),
            0,
            RData::Txt(vec!["8.2.4".into()]),
        ));
        // Record::new makes an IN-class record, not CH.
        assert_eq!(banner_from_response(&response), None);
    }
}
