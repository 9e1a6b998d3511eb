//! Property-based tests for the DNS substrate: wire-format round-trips over
//! arbitrary messages, decoder robustness on mutated bytes, and name
//! arithmetic invariants.

use proptest::prelude::*;

use perils_dns::message::{Flags, Message, Opcode, Question, Rcode};
use perils_dns::name::{DnsName, Label};
use perils_dns::rr::{RData, Record, RrClass, RrType, Soa};
use perils_dns::wire::{decode, encode};

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

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(o.into())),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(o.into())),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec("[ -~]{0,40}", 0..3).prop_map(RData::Txt),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(mname, rname, serial, refresh, retry, expire, minimum)| RData::Soa(Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum
                })
            ),
        (any::<u16>(), any::<u16>(), any::<u16>(), arb_name()).prop_map(
            |(priority, weight, port, target)| RData::Srv {
                priority,
                weight,
                port,
                target
            }
        ),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(RData::Opaque),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), arb_rdata(), any::<u32>(), 0u16..5).prop_map(|(name, rdata, ttl, unknown_code)| {
        let rtype = rdata
            .rr_type()
            .unwrap_or(RrType::Unknown(1000 + unknown_code));
        Record {
            name,
            rtype,
            class: RrClass::In,
            ttl,
            rdata,
        }
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(arb_record(), 0..5),
        proptest::collection::vec(arb_record(), 0..4),
        proptest::collection::vec(arb_record(), 0..4),
        arb_name(),
    )
        .prop_map(
            |(id, aa, tc, rd, answers, authority, additional, qname)| Message {
                id,
                flags: Flags {
                    qr: true,
                    aa,
                    tc,
                    rd,
                    ra: false,
                },
                opcode: Opcode::Query,
                rcode: Rcode::NoError,
                questions: vec![Question::new(qname, RrType::A)],
                answers,
                authority,
                additional,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every encodable message decodes back to itself (identity up to
    /// case-insensitive name equality, which `PartialEq` implements).
    #[test]
    fn wire_round_trip(message in arb_message()) {
        let bytes = encode(&message);
        let decoded = decode(&bytes).expect("encoder output must decode");
        prop_assert_eq!(decoded, message);
    }

    /// The decoder never panics on truncations of valid messages.
    #[test]
    fn decoder_handles_all_truncations(message in arb_message()) {
        let bytes = encode(&message);
        for cut in 0..bytes.len() {
            let _ = decode(&bytes[..cut]);
        }
    }

    /// The decoder never panics on single-byte corruptions.
    #[test]
    fn decoder_handles_bit_flips(message in arb_message(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = encode(&message);
        if !bytes.is_empty() {
            let i = pos.index(bytes.len());
            bytes[i] ^= 1 << bit;
            let _ = decode(&bytes);
        }
    }

    /// The decoder never panics on fully random input.
    #[test]
    fn decoder_handles_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Compression never inflates: encoding with shared suffixes is no
    /// larger than the sum of full name encodings.
    #[test]
    fn compression_never_inflates(names in proptest::collection::vec(arb_name(), 1..8)) {
        let mut m = Message::query(1, Question::new(names[0].clone(), RrType::A));
        for n in &names {
            m.answers.push(Record::new(n.clone(), 60, RData::Ns(n.clone())));
        }
        let actual = encode(&m).len();
        let upper = 12
            + (names[0].wire_len() + 4)
            + names.iter().map(|n| 2 * n.wire_len() + 10).sum::<usize>();
        prop_assert!(actual <= upper, "encoded {actual} > naive bound {upper}");
    }

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
