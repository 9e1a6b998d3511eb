//! Flat `.psa` section codecs for the built analysis structures.
//!
//! This module is the bridge between the core types and the
//! [`perils_util::snapshot`] container: each `encode_*` writes one
//! section's payload as flat little-endian fields, and each `decode_*`
//! reconstitutes the type by bulk chunk decoding plus structural
//! validation — every id is bounds-checked against the owning universe's
//! dimensions before any accessor can index with it, so even a forged
//! (checksum-valid) archive yields a typed [`SnapshotError`] rather
//! than a panic or a silently inconsistent world. Every id array is
//! written in one layout — a `u32` length, then the words — by
//! [`snapshot::put_u32_slice`] or, for an iterator, `put_ids`, and read
//! back as a store view ([`StoreDec::u32_arr`]) or a `Vec`
//! ([`Dec::u32_vec`]). `DEPINDEX` is nothing else: seven such arrays.
//!
//! Round-trip contract: `decode_universe(encode_universe(u)) == u`, and
//! likewise for [`DependencyIndex`] and [`LintIndex`] (all three are
//! `PartialEq`). The property tests in `perils-survey` pin the stronger
//! end-to-end claim — figure set, lint output and query responses of a
//! loaded world are byte-identical to the built one.

use crate::closure::DependencyIndex;
use crate::lint::LintIndex;
use crate::misconfig::DepthIndex;
use crate::universe::{ServerEntry, ServerId, Universe, ZoneEntry};
use crate::zombie::ZombieIndex;
use perils_dns::name::{DnsName, Label};
use perils_graph::bitset::SetTable;
use perils_util::snapshot::{self, Dec, Section, SnapshotError, StoreDec};

/// Section tag for the canonical universe tables.
pub const SECTION_UNIVERSE: [u8; 8] = *b"UNIVERSE";
/// Section tag for the dependency index (SCC map, memo set ids, set tables).
pub const SECTION_DEP_INDEX: [u8; 8] = *b"DEPINDEX";
/// Section tag for the shared lint facts.
pub const SECTION_LINT: [u8; 8] = *b"LINTIDX\0";

/// Appends a wire-encoded [`DnsName`]: label count, then per label a
/// length byte and the raw bytes. Decoding re-validates through the
/// public [`Label::new`] constructor, so a corrupt archive cannot smuggle
/// an invalid name into the universe.
pub fn encode_name(out: &mut Vec<u8>, name: &DnsName) {
    let labels = name.labels();
    snapshot::put_u8(
        out,
        u8::try_from(labels.len()).expect("names have at most 127 labels"),
    );
    for label in labels {
        let bytes = label.as_bytes();
        snapshot::put_u8(
            out,
            u8::try_from(bytes.len()).expect("labels are at most 63 bytes"),
        );
        out.extend_from_slice(bytes);
    }
}

/// Decodes one [`encode_name`] name, validating every label.
pub fn decode_name(dec: &mut Dec<'_>) -> Result<DnsName, SnapshotError> {
    let count = dec.u8()? as usize;
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        let len = dec.u8()? as usize;
        let bytes = dec.raw(len)?;
        labels.push(Label::new(bytes).map_err(|e| dec.malformed(format!("invalid label: {e}")))?);
    }
    DnsName::from_labels(labels).map_err(|e| dec.malformed(format!("invalid name: {e}")))
}

/// Checks one [`encode_name`] record without materializing the name:
/// same validation, same bytes consumed, no allocation. This is what
/// lets the name table validate its whole section up front and
/// decode records lazily with `expect` thereafter — `validate_name`
/// succeeding guarantees [`decode_name`] on the same bytes succeeds.
pub fn validate_name(dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
    let count = dec.u8()? as usize;
    let mut wire_len = 1usize; // the root's terminating zero label
    for _ in 0..count {
        let len = dec.u8()? as usize;
        let bytes = dec.raw(len)?;
        Label::validate(bytes).map_err(|e| dec.malformed(format!("invalid label: {e}")))?;
        wire_len += 1 + len;
    }
    if wire_len > perils_dns::name::MAX_NAME_LEN {
        return Err(dec.malformed(format!(
            "name wire length {wire_len} exceeds {}",
            perils_dns::name::MAX_NAME_LEN
        )));
    }
    Ok(())
}

/// Appends the universe's flat state to `out` as the `UNIVERSE` section
/// payload.
pub fn encode_universe(out: &mut Vec<u8>, universe: &Universe) {
    let (zones, servers, server_home, zone_parent) = universe.snapshot_parts();
    snapshot::put_u32(
        out,
        u32::try_from(zones.len()).expect("zone count fits u32"),
    );
    snapshot::put_u32(
        out,
        u32::try_from(servers.len()).expect("server count fits u32"),
    );
    for zone in zones {
        encode_name(out, &zone.origin);
        snapshot::put_u32(out, u32::try_from(zone.ns.len()).expect("ns set fits u32"));
        for s in &zone.ns {
            snapshot::put_u32(out, s.0);
        }
    }
    for server in servers {
        encode_name(out, &server.name);
        let flags = u8::from(server.vulnerable)
            | u8::from(server.scripted_exploit) << 1
            | u8::from(server.is_root) << 2;
        snapshot::put_u8(out, flags);
    }
    snapshot::put_u32_slice(out, server_home);
    snapshot::put_u32_slice(out, zone_parent);
}

/// Decodes a `UNIVERSE` section back into a [`Universe`].
///
/// The universe (names, NS sets, server flags) is always materialized eagerly
/// regardless of the section's decode mode: its payload is dominated by
/// variable-length name records that every backend needs resident for
/// hash lookups, and the label small-string optimization keeps the copy
/// compact. The big win for view decoding lives in `DEPINDEX`.
pub fn decode_universe(section: &Section) -> Result<Universe, SnapshotError> {
    let payload = section.bytes()?;
    let payload = &payload[..];
    let mut dec = Dec::new_at(payload, "UNIVERSE", section.base());
    let zone_count = dec.u32()? as usize;
    let server_count = dec.u32()? as usize;
    let mut zones = Vec::with_capacity(zone_count.min(payload.len()));
    for _ in 0..zone_count {
        let origin = decode_name(&mut dec)?;
        let ns_len = dec.u32()? as usize;
        if ns_len * 4 > dec.remaining() {
            return Err(dec.malformed(format!("NS set of {ns_len} exceeds section")));
        }
        let mut ns = Vec::with_capacity(ns_len);
        for _ in 0..ns_len {
            ns.push(ServerId(dec.u32()?));
        }
        zones.push(ZoneEntry { origin, ns });
    }
    let mut servers = Vec::with_capacity(server_count.min(payload.len()));
    for _ in 0..server_count {
        let name = decode_name(&mut dec)?;
        let flags = dec.u8()?;
        if flags & !0b111 != 0 {
            return Err(dec.malformed(format!("server flag byte {flags:#04x} has unknown bits")));
        }
        servers.push(ServerEntry {
            name,
            vulnerable: flags & 1 != 0,
            scripted_exploit: flags & 2 != 0,
            is_root: flags & 4 != 0,
        });
    }
    let server_home = dec.u32_vec()?;
    let zone_parent = dec.u32_vec()?;
    dec.finish()?;
    Universe::from_snapshot_parts(zones, servers, server_home, zone_parent)
        .map_err(|e| Dec::new_at(payload, "UNIVERSE", section.base()).malformed(e))
}

/// Appends the dependency index to `out` as the `DEPINDEX` section
/// payload.
///
/// Every index — built or loaded — was decoded from such a payload (the
/// serial build writes its tables into a heap store and decodes them, see
/// [`DependencyIndex::build`]), so encoding appends those bytes as they
/// are — straight from a built index's heap store, with no copy between:
/// byte-identical to what was validated, and a pure function of the
/// universe.
pub fn encode_dep_index(out: &mut Vec<u8>, index: &DependencyIndex) {
    out.extend_from_slice(&index.payload());
}

/// Decodes a `DEPINDEX` section, validating it against `universe`.
///
/// The section is seven length-prefixed `u32` arrays: the component of
/// each server, each component's server-set and zone-set id, then each
/// set table's run offsets and arena. This is how every index comes into memory: each
/// array stays a typed view into the section's byte store, and
/// validation streams the words without materializing them. The set
/// arenas range over the universe's servers and zones, so their
/// capacities come from `universe`, not the bytes.
pub fn decode_dep_index(
    section: &Section,
    universe: &Universe,
) -> Result<DependencyIndex, SnapshotError> {
    let mut dec = StoreDec::new(section, "DEPINDEX");
    let component_of = dec.u32_arr()?;
    let component_servers = dec.u32_arr()?;
    let component_zones = dec.u32_arr()?;
    let server_sets = SetTable::decode_from(&mut dec, universe.server_count())?;
    let zone_sets = SetTable::decode_from(&mut dec, universe.zone_count())?;
    dec.finish()?;
    DependencyIndex::from_snapshot_parts(
        universe,
        section.clone(),
        component_of,
        component_servers,
        component_zones,
        server_sets,
        zone_sets,
    )
    .map_err(|e| StoreDec::new(section, "DEPINDEX").malformed(e))
}

/// Appends the shared lint facts to `out` as the `LINTIDX` section
/// payload.
pub fn encode_lint(out: &mut Vec<u8>, lint: &LintIndex) {
    let (depths, zombies, zone_reachable, referenced) = lint.snapshot_parts();
    let (depth, cycles) = depths.snapshot_parts();
    put_ids(
        out,
        depth
            .iter()
            .map(|&d| u32::try_from(d).expect("archived depth fits u32")),
    );
    snapshot::put_u32(
        out,
        u32::try_from(cycles.len()).expect("cycle count fits u32"),
    );
    for cycle in cycles {
        put_ids(out, cycle.iter().map(|s| s.0));
    }
    let (dead_server, zombie_zone) = zombies.snapshot_parts();
    snapshot::put_bool_slice(out, dead_server);
    snapshot::put_bool_slice(out, zombie_zone);
    snapshot::put_bool_slice(out, zone_reachable);
    snapshot::put_bool_slice(out, referenced);
}

/// Decodes a `LINTIDX` section, validating it against `universe`.
///
/// Lint facts are a handful of bool tables plus small cycle lists —
/// always materialized eagerly, like the universe.
pub fn decode_lint(section: &Section, universe: &Universe) -> Result<LintIndex, SnapshotError> {
    let payload = section.bytes()?;
    let payload = &payload[..];
    let mut dec = Dec::new_at(payload, "LINTIDX", section.base());
    let depth = dec.u32_vec()?.into_iter().map(|d| d as usize).collect();
    let cycle_count = dec.u32()? as usize;
    let mut cycles = Vec::with_capacity(cycle_count.min(payload.len()));
    for _ in 0..cycle_count {
        cycles.push(dec.u32_vec()?.into_iter().map(ServerId).collect::<Vec<_>>());
    }
    let depths = DepthIndex::from_snapshot_parts(universe.server_count(), depth, cycles)
        .map_err(|e| dec.malformed(e))?;
    let dead_server = dec.bool_vec()?;
    let zombie_zone = dec.bool_vec()?;
    let zombies = ZombieIndex::from_snapshot_parts(universe, dead_server, zombie_zone)
        .map_err(|e| dec.malformed(e))?;
    let zone_reachable = dec.bool_vec()?;
    let referenced = dec.bool_vec()?;
    dec.finish()?;
    LintIndex::from_snapshot_parts(universe, depths, zombies, zone_reachable, referenced)
        .map_err(|e| Dec::new_at(payload, "LINTIDX", section.base()).malformed(e))
}

/// Writes an id iterator in the [`snapshot::put_u32_slice`] layout
/// (length, then the words little-endian) without collecting it first.
pub(crate) fn put_ids(out: &mut Vec<u8>, ids: impl ExactSizeIterator<Item = u32>) {
    snapshot::put_u32(out, u32::try_from(ids.len()).expect("id slice fits u32"));
    out.reserve(ids.len() * 4);
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::name::name;
    use perils_vulndb::VulnDb;

    /// One encoder's payload as its own buffer.
    fn payload(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        encode(&mut out);
        out
    }

    /// Wraps a loose payload as a standalone section.
    fn sec(bytes: &[u8]) -> Section {
        Section::from_vec(bytes.to_vec())
    }

    fn tiny_universe() -> Universe {
        let db = VulnDb::isc_feb_2004();
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        // Banner-assessed servers so the vulnerability flag bits are
        // exercised.
        b.ensure_server(
            &name("a.gtld.net"),
            Some("8.2.2-P5".to_string()),
            &db,
            false,
        );
        b.ensure_server(
            &name("ns1.example.com"),
            Some("9.2.3".to_string()),
            &db,
            false,
        );
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.gtld.net")]);
        b.add_zone(&name("net"), &[name("a.gtld.net")]);
        b.add_zone(&name("gtld.net"), &[name("a.gtld.net")]);
        b.add_zone(
            &name("example.com"),
            &[name("ns1.example.com"), name("ns.offsite.org")],
        );
        b.add_zone(&name("org"), &[name("a.gtld.net")]);
        b.add_zone(&name("offsite.org"), &[name("ns.offsite.org")]);
        // Dead-branch delegation so the lint facts are non-trivial.
        b.add_zone(&name("stale.com"), &[name("ns.ghost.zz")]);
        b.finish()
    }

    #[test]
    fn universe_round_trips_byte_identically() {
        let universe = tiny_universe();
        let bytes = payload(|out| encode_universe(out, &universe));
        let loaded = decode_universe(&sec(&bytes)).expect("decodes");
        assert_eq!(loaded, universe);
        assert_eq!(
            payload(|out| encode_universe(out, &loaded)),
            bytes,
            "re-encode is byte-stable"
        );
    }

    #[test]
    fn a_repeated_ns_id_fails_to_load() {
        let universe = tiny_universe();
        let bytes = payload(|out| encode_universe(out, &universe));
        // example.com's NS list is the only one of length two: point its
        // second entry at its first.
        let ns = &universe
            .zone(universe.zone_id(&name("example.com")).unwrap())
            .ns;
        let list: Vec<u8> = [2, ns[0].0, ns[1].0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let at = bytes
            .windows(list.len())
            .position(|w| w == list)
            .expect("the encoded NS list");
        let mut forged = bytes.clone();
        forged[at + 8..at + 12].copy_from_slice(&ns[0].0.to_le_bytes());
        match decode_universe(&sec(&forged)) {
            Err(SnapshotError::Malformed {
                section, detail, ..
            }) => {
                assert_eq!(section, "UNIVERSE");
                assert!(detail.contains("twice"), "{detail}");
            }
            other => panic!("a repeated NS id must be Malformed, got {other:?}"),
        }
    }

    #[test]
    fn dep_index_round_trips_equal_and_byte_stable() {
        // Decoding a saved payload again must compare equal to the built
        // index and re-encode to the exact source bytes.
        let universe = tiny_universe();
        let index = DependencyIndex::build(&universe);
        let bytes = payload(|out| encode_dep_index(out, &index));
        let viewed = decode_dep_index(&sec(&bytes), &universe).expect("decodes");
        assert_eq!(viewed, index);
        assert_eq!(
            payload(|out| encode_dep_index(out, &viewed)),
            bytes,
            "view re-encode is byte-stable"
        );
        // Closures agree across representations.
        let (mut ws_a, mut ws_b) = (viewed.workspace(), index.workspace());
        for target in ["ns1.example.com", "www.example.com", "nowhere.test"] {
            let t = name(target);
            let a = viewed.closure_view(&universe, &t, &mut ws_a);
            let b = index.closure_view(&universe, &t, &mut ws_b);
            assert!(a.servers().eq(b.servers()), "{target}");
            assert!(a.zones().eq(b.zones()), "{target}");
        }
    }

    #[test]
    fn lint_index_round_trips_and_compares_equal() {
        let universe = tiny_universe();
        let lint = LintIndex::build(&universe);
        let bytes = payload(|out| encode_lint(out, &lint));
        let loaded = decode_lint(&sec(&bytes), &universe).expect("decodes");
        assert_eq!(loaded, lint);
        assert_eq!(
            payload(|out| encode_lint(out, &loaded)),
            bytes,
            "re-encode is byte-stable"
        );
    }

    #[test]
    fn decoders_reject_mismatched_universe() {
        let universe = tiny_universe();
        let index = DependencyIndex::build(&universe);
        let bytes = payload(|out| encode_dep_index(out, &index));
        let other = Universe::builder().finish();
        assert!(matches!(
            decode_dep_index(&sec(&bytes), &other),
            Err(SnapshotError::Malformed { .. })
        ));
        let lint_bytes = payload(|out| encode_lint(out, &LintIndex::build(&universe)));
        assert!(matches!(
            decode_lint(&sec(&lint_bytes), &other),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    /// A named fault planted into a `DEPINDEX` payload's seven arrays.
    type Plant<'a> = (&'a str, &'a dyn Fn(&mut Vec<Vec<u32>>));

    /// A `DEPINDEX` payload as its seven arrays, and back.
    fn dep_arrays(bytes: &[u8]) -> Vec<Vec<u32>> {
        let mut dec = Dec::new(bytes, "DEPINDEX");
        let arrays = (0..7).map(|_| dec.u32_vec().expect("array")).collect();
        dec.finish().expect("seven arrays and nothing else");
        arrays
    }

    fn dep_bytes(arrays: &[Vec<u32>]) -> Vec<u8> {
        payload(|out| arrays.iter().for_each(|a| snapshot::put_u32_slice(out, a)))
    }

    #[test]
    fn corrupt_sections_never_panic() {
        let universe = tiny_universe();
        let index = DependencyIndex::build(&universe);
        let lint = LintIndex::build(&universe);
        let sections = [
            payload(|out| encode_universe(out, &universe)),
            payload(|out| encode_dep_index(out, &index)),
            payload(|out| encode_lint(out, &lint)),
        ];
        for (which, bytes) in sections.iter().enumerate() {
            for len in 0..bytes.len() {
                let truncated = sec(&bytes[..len]);
                let _ = match which {
                    0 => decode_universe(&truncated).map(|_| ()),
                    1 => decode_dep_index(&truncated, &universe).map(|_| ()),
                    _ => decode_lint(&truncated, &universe).map(|_| ()),
                };
            }
            for byte in (0..bytes.len()).step_by(3) {
                let mut bad = bytes.clone();
                bad[byte] ^= 0x40;
                let bad = sec(&bad);
                let _ = match which {
                    0 => decode_universe(&bad).map(|_| ()),
                    1 => decode_dep_index(&bad, &universe).map(|_| ()),
                    _ => decode_lint(&bad, &universe).map(|_| ()),
                };
            }
        }
        // Each planted offset, run or set-id fault in either set table is
        // a typed `Malformed` error.
        let good = dep_arrays(&sections[1]);
        assert!(decode_dep_index(&sec(&dep_bytes(&good)), &universe).is_ok());
        // (offsets, arena, component set ids, capacity) of each table.
        for (offsets, arena, ids, capacity) in [
            (3, 4, 1, universe.server_count()),
            (5, 6, 2, universe.zone_count()),
        ] {
            let first_run = (1..good[offsets].len())
                .find(|&i| good[offsets][i] > 0)
                .expect("a nonempty run");
            let long_run = good[offsets]
                .windows(2)
                .position(|w| w[1] - w[0] >= 2)
                .expect("a run of two or more");
            let plants: [Plant<'_>; 8] = [
                ("no leading zero", &|a| a[offsets].clear()),
                ("a nonzero first offset", &|a| a[offsets][0] = 1),
                ("decreasing offsets", &|a| {
                    let below = a[offsets][first_run] - 1;
                    a[offsets].insert(first_run + 1, below);
                }),
                ("a last offset short of the arena", &|a| a[arena].push(0)),
                ("an offset past the arena", &|a| {
                    *a[offsets].last_mut().expect("offsets") += 1;
                }),
                ("an unsorted run", &|a| {
                    let at = a[offsets][long_run] as usize;
                    a[arena].swap(at, at + 1);
                }),
                ("an element at the capacity", &|a| {
                    *a[arena].last_mut().expect("a nonempty arena") = capacity as u32;
                }),
                ("a component set id past the sets", &|a| {
                    let sets = (a[offsets].len() - 1) as u32;
                    a[ids][0] = sets;
                }),
            ];
            for (what, plant) in plants {
                let mut bad = good.clone();
                plant(&mut bad);
                assert!(
                    matches!(
                        decode_dep_index(&sec(&dep_bytes(&bad)), &universe),
                        Err(SnapshotError::Malformed { .. })
                    ),
                    "table {offsets}: {what}"
                );
            }
        }
    }
}
