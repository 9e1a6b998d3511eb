//! Property-based tests for domain names: display/parse round-trips and
//! ancestor arithmetic.

use proptest::prelude::*;

use perils_dns::name::{DnsName, Label};

fn arb_label() -> impl Strategy<Value = Label> {
    proptest::collection::vec(
        proptest::sample::select(
            (b'a'..=b'z')
                .chain(b'A'..=b'Z')
                .chain(b'0'..=b'9')
                .chain([b'-', b'_'])
                .collect::<Vec<u8>>(),
        ),
        1..=12,
    )
    .prop_map(|bytes| Label::new(&bytes).expect("alphabet is valid"))
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 0..=6)
        .prop_map(|labels| DnsName::from_labels(labels).expect("short names fit"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Name parsing and display round-trip.
    #[test]
    fn name_display_round_trip(name in arb_name()) {
        let text = name.to_string();
        let reparsed: DnsName = text.parse().expect("display output reparses");
        prop_assert_eq!(reparsed, name);
    }

    /// Subdomain relation is consistent with ancestors().
    #[test]
    fn ancestors_are_superdomains(name in arb_name()) {
        for ancestor in name.ancestors() {
            prop_assert!(name.is_subdomain_of(&ancestor));
        }
        prop_assert_eq!(name.ancestors().count(), name.label_count() + 1);
    }
}
