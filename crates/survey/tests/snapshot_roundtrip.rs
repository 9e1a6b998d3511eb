//! The snapshot contract, property-tested: for random synthetic seeds a
//! build→save→load cycle must reconstruct the world *exactly* — universe,
//! dependency index, lint facts, and name list all structurally equal —
//! and every downstream consumer (figure rendering, the lint engine) must
//! produce byte-identical output from the loaded world. Corrupt archives
//! (any truncation, any bit flip) must surface a typed `SnapshotError`,
//! never a panic or a silently different world.

#![forbid(unsafe_code)]

use proptest::prelude::*;

use perils_core::lint::{RuleRegistry, SeverityOverrides};
use perils_core::{DependencyIndex, LintIndex};
use perils_survey::engine::{Engine, SyntheticSource, WorldSource};
use perils_survey::lint::{run_lint_with, LintFormat};
use perils_survey::params::TopologyParams;
use perils_survey::render::FigureRegistry;
use perils_survey::snapshot::{load_world_bytes, world_archive_bytes};
use perils_survey::AnalysisWorld;

/// Generates the same tiny world twice (the source is deterministic in
/// the seed), so one copy can be archived while the other is the oracle.
fn world(seed: u64) -> AnalysisWorld {
    SyntheticSource {
        params: TopologyParams::tiny(seed),
    }
    .load()
}

/// Renders every registered figure from a report into one byte string.
fn figure_bytes(engine: &Engine, world: AnalysisWorld, index: &DependencyIndex) -> Vec<u8> {
    let report = engine.run_world_indexed(world, index);
    let mut out = Vec::new();
    for outcome in FigureRegistry::extended().build_all(&report) {
        if let perils_survey::render::FigureOutcome::Rendered(figure) = outcome {
            out.extend_from_slice(figure.id().as_bytes());
            out.extend_from_slice(figure.json().as_bytes());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Save → load reconstructs the exact world, and figures + lint
    /// output are byte-identical when recomputed from the loaded copy.
    #[test]
    fn build_save_load_is_byte_identical(seed in 0u64..10_000) {
        let original = world(seed);
        let index = DependencyIndex::build(&original.universe);
        let lint = LintIndex::build(&original.universe);

        let bytes = world_archive_bytes(
            &original.universe,
            &index,
            &lint,
            &original.names,
            &original.top500,
            None,
        );
        let loaded = load_world_bytes(bytes).expect("intact archive loads");

        // Structural equality of everything the archive carries.
        prop_assert!(loaded.universe == original.universe, "universe differs");
        prop_assert!(loaded.index == index, "dependency index differs");
        prop_assert!(loaded.lint == lint, "lint facts differ");
        prop_assert_eq!(&loaded.names, &original.names, "name list differs");
        prop_assert_eq!(&loaded.top500, &original.top500, "top500 differs");

        // Figures recomputed from the loaded world are byte-identical.
        let engine = Engine::with_extended_metrics();
        let fig_orig = figure_bytes(&engine, original, &index);
        let fig_loaded = figure_bytes(
            &engine,
            AnalysisWorld {
                universe: loaded.universe.clone(),
                names: loaded.names.to_vec(),
                top500: loaded.top500.clone(),
            },
            &loaded.index,
        );
        prop_assert_eq!(fig_orig, fig_loaded, "figure bytes differ");

        // Lint output from the loaded index/facts is byte-identical.
        let registry = RuleRegistry::builtin();
        let overrides = SeverityOverrides::new();
        let targets: Vec<_> = loaded.names.iter().map(|n| n.name.clone()).collect();
        let report_orig = run_lint_with(
            &loaded.universe, &targets, &registry, &overrides, None, &index, &lint,
        );
        let report_loaded = run_lint_with(
            &loaded.universe, &targets, &registry, &overrides, None,
            &loaded.index, &loaded.lint,
        );
        prop_assert_eq!(
            report_orig.emit(LintFormat::Json),
            report_loaded.emit(LintFormat::Json),
            "lint JSON differs"
        );
    }
}

/// Every truncation of a real archive is a typed error, never a panic
/// and never a silently loaded world.
#[test]
fn every_truncation_is_a_typed_error() {
    let original = world(42);
    let index = DependencyIndex::build(&original.universe);
    let lint = LintIndex::build(&original.universe);
    let bytes = world_archive_bytes(
        &original.universe,
        &index,
        &lint,
        &original.names,
        &original.top500,
        Some(("{\"figures\":[]}", 0)),
    );
    load_world_bytes(bytes.clone()).expect("intact archive loads");

    for len in 0..bytes.len() {
        let err = load_world_bytes(bytes[..len].to_vec());
        assert!(
            err.is_err(),
            "truncation to {len} of {} bytes loaded anyway",
            bytes.len()
        );
    }
}

/// Bit flips anywhere in the archive are caught — by the header checks,
/// the TOC validation, the section checksums, or the per-type decoders —
/// and always as a typed error, never a panic.
#[test]
fn bit_flips_are_always_typed_errors() {
    let original = world(7);
    let index = DependencyIndex::build(&original.universe);
    let lint = LintIndex::build(&original.universe);
    let bytes = world_archive_bytes(
        &original.universe,
        &index,
        &lint,
        &original.names,
        &original.top500,
        None,
    );

    // Every byte of the header + TOC, then a stride through the payload:
    // single-bit corruption must never load. (The container checksums
    // make any payload flip detectable, so Ok(_) is a real bug, not an
    // acceptable escape.)
    let dense = 512.min(bytes.len());
    let positions = (0..dense).chain((dense..bytes.len()).step_by(211));
    for pos in positions {
        for bit in 0..8u8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert!(
                load_world_bytes(corrupt).is_err(),
                "flip of bit {bit} at byte {pos} loaded anyway"
            );
        }
    }
}
