//! Fingerprinting: the `version.bind` banner in a server's response.
//!
//! The survey sends a CHAOS-class `TXT version.bind.` query to every
//! discovered nameserver (exactly as the paper did). The banner — if any
//! — is assessed where the universe takes in each server
//! (`perils_core`'s `UniverseBuilder::ensure_server`), which parses it
//! with [`BindVersion::parse`](crate::BindVersion::parse) and looks the
//! version up in [`VulnDb`](crate::VulnDb). The paper's optimistic rule
//! applies there: "For nameservers whose vulnerabilities we do not know,
//! we simply assume that they are non-vulnerable."

use perils_dns::message::{Message, Rcode};
use perils_dns::rr::{RData, RrClass};

/// Extracts the banner from a `version.bind` CHAOS TXT response, if the
/// server answered one.
pub fn banner_from_response(response: &Message) -> Option<String> {
    if response.rcode != Rcode::NoError {
        return None;
    }
    response.answers.iter().find_map(|r| match &r.rdata {
        RData::Txt(strings) if r.class == RrClass::Ch && !strings.is_empty() => {
            Some(strings.join(" "))
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::message::Question;
    use perils_dns::rr::Record;

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
