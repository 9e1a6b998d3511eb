//! Golden-file and acceptance coverage for the lint engine.
//!
//! Pins all three sinks byte-for-byte on the hand-built `lint_tripwire`
//! fixture (which trips every rule), the fbi.gov case study, the cornell
//! Figure 1 web (two `choke-point` witnesses), and the tiny synthetic
//! survey at seed 20040722. Also checks the structural
//! acceptance criteria: every built-in rule fires on the tripwire, the
//! fbi world's deny finding names the actual stale server, SARIF parses
//! as valid JSON with `runs[0].tool.driver.rules` matching the registry,
//! and the lint rules agree with the `MisconfigMetric` flag counters.
//! Regenerate goldens with
//! `GOLDEN_REGEN=1 cargo test -p perils-survey --test lint_golden`.

use perils_authserver::scenarios::fbi_case;
use perils_core::lint::{LintIndex, Note, RuleRegistry, Severity, SeverityOverrides, Subject};
use perils_core::universe::Universe;
use perils_core::DependencyIndex;
use perils_dns::name::{name, DnsName};
use perils_survey::lint::{run_lint, run_lint_with, LintFormat, LintReport};
use perils_survey::scenario::universe_from_scenario;
use perils_survey::{World, WorldSpec};
use perils_util::json::{parse, Value};
use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::path::PathBuf;

const SEED: u64 = 20040722;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn check_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); regenerate with GOLDEN_REGEN=1")
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for {file}; regenerate with GOLDEN_REGEN=1 if the change is intended"
    );
}

/// A named world, built as `lint --world NAME` builds it. A report
/// borrows the world its evidence points into, so the fixture outlives
/// it.
struct Fixture {
    world: World,
}

impl Fixture {
    /// The world `lint --world NAME` lints.
    fn new(world: &str) -> Fixture {
        Fixture {
            world: WorldSpec::parse(world, SEED)
                .expect("a named world")
                .build(None),
        }
    }

    fn tripwire() -> Fixture {
        Fixture::new("tripwire")
    }

    fn fbi() -> Fixture {
        Fixture::new("fbi")
    }

    /// The serial run with default severities.
    fn report(&self) -> LintReport<'_> {
        run_lint(
            &self.world,
            &RuleRegistry::builtin(),
            &SeverityOverrides::new(),
            NonZeroUsize::new(1),
        )
    }
}

/// A serial run of the built-in rules over a hand-built universe and
/// targets, through an index built for it and the universe's `facts`
/// (the report reads notes' nesting levels from them).
fn lint_universe<'u>(
    universe: &'u Universe,
    facts: &'u LintIndex,
    targets: &'u [DnsName],
    overrides: &SeverityOverrides,
) -> LintReport<'u> {
    run_lint_with(
        universe,
        targets,
        &RuleRegistry::builtin(),
        overrides,
        NonZeroUsize::new(1),
        &DependencyIndex::build(universe),
        facts,
    )
}

#[test]
fn tripwire_output_matches_goldens_in_all_three_formats() {
    let fixture = Fixture::tripwire();
    let report = fixture.report();
    check_golden("lint_tripwire.txt", &report.emit(LintFormat::Text));
    check_golden("lint_tripwire.json", &report.emit(LintFormat::Json));
    check_golden("lint_tripwire.sarif", &report.emit(LintFormat::Sarif));
}

#[test]
fn fbi_output_matches_goldens() {
    let fixture = Fixture::fbi();
    let report = fixture.report();
    check_golden("lint_fbi.txt", &report.emit(LintFormat::Text));
    check_golden("lint_fbi.sarif", &report.emit(LintFormat::Sarif));
}

#[test]
fn cornell_output_matches_golden() {
    let fixture = Fixture::new("cornell");
    let report = fixture.report();
    check_golden("lint_cornell.txt", &report.emit(LintFormat::Text));
}

#[test]
fn tiny_synthetic_output_matches_golden() {
    let fixture = Fixture::new("tiny");
    let report = fixture.report();
    check_golden("lint_tiny.txt", &report.emit(LintFormat::Text));
}

#[test]
fn every_builtin_rule_fires_on_the_tripwire() {
    let fixture = Fixture::tripwire();
    let report = fixture.report();
    let fired: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    for id in RuleRegistry::builtin().ids() {
        assert!(fired.contains(id), "rule {id} never fired on the tripwire");
    }
}

#[test]
fn fbi_findings_name_the_actual_servers() {
    let fixture = Fixture::fbi();
    let report = fixture.report();
    let at = |e: &perils_core::lint::EvidenceStep| e.at.name(&fixture.world.universe).clone();
    assert!(report.has_deny(), "the stale usdoj.gov NS is deny-level");

    let lame = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "lame-delegation")
        .expect("lame-delegation fires on the fbi world");
    let universe = &fixture.world.universe;
    assert_eq!(
        lame.subject.name(universe, &report.names),
        &name("usdoj.gov")
    );
    assert!(
        lame.evidence
            .iter()
            .any(|e| at(e) == name("ns.usdoj-archive.zz")),
        "evidence names the dangling host: {lame:?}"
    );

    let choke = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "choke-point")
        .expect("choke-point fires on the fbi world");
    assert!(
        choke
            .evidence
            .iter()
            .any(|e| at(e) == name("a.gtld-servers.net")),
        "the registry singleton is the choke: {choke:?}"
    );

    let orphan = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "orphaned-glue")
        .expect("fedworld's stale glue is orphaned");
    assert_eq!(
        orphan.subject.name(universe, &report.names),
        &name("ns.fedworld.zz")
    );
}

#[test]
fn sarif_is_valid_json_and_lists_the_registry_rules() {
    for fixture in [Fixture::tripwire(), Fixture::fbi()] {
        let report = fixture.report();
        let sarif = report.emit(LintFormat::Sarif);
        perils_util::json::parse(&sarif).expect("SARIF parses as JSON");

        // runs[0].tool.driver.rules must list the registry ids in order —
        // checked structurally (each id appears as a rules entry, in
        // registry order) without a full JSON object model.
        let rules_section = sarif
            .split("\"rules\": [")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("driver.rules present");
        let mut cursor = 0usize;
        for id in RuleRegistry::builtin().ids() {
            let needle = format!("{{\"id\": \"{id}\"");
            let at = rules_section[cursor..]
                .find(&needle)
                .unwrap_or_else(|| panic!("rule {id} missing or out of order in driver.rules"));
            cursor += at;
        }

        let json = report.emit(LintFormat::Json);
        perils_util::json::parse(&json).expect("JSON sink parses");
    }
}

#[test]
fn severity_overrides_relevel_and_suppress() {
    let registry = RuleRegistry::builtin();
    let universe = universe_from_scenario(&fbi_case());
    let facts = LintIndex::build(&universe);
    let targets = vec![name("www.fbi.gov")];

    // Demote the lame delegation: no deny findings remain.
    let mut overrides = SeverityOverrides::new();
    overrides
        .set(&registry, "lame-delegation", Severity::Warn)
        .unwrap();
    let demoted = lint_universe(&universe, &facts, &targets, &overrides);
    assert!(!demoted.has_deny());
    assert!(demoted
        .diagnostics
        .iter()
        .any(|d| d.rule == "lame-delegation" && d.severity == Severity::Warn));

    // Allow suppresses the findings but keeps the rule listed.
    let mut overrides = SeverityOverrides::new();
    overrides
        .set(&registry, "lame-delegation", Severity::Allow)
        .unwrap();
    let suppressed = lint_universe(&universe, &facts, &targets, &overrides);
    assert!(suppressed
        .diagnostics
        .iter()
        .all(|d| d.rule != "lame-delegation"));
    assert!(suppressed
        .rules
        .iter()
        .any(|m| m.id == "lame-delegation" && m.severity == Severity::Allow));

    // Promote a warn rule: its findings gate.
    let mut overrides = SeverityOverrides::new();
    overrides
        .set(&registry, "single-operator", Severity::Deny)
        .unwrap();
    let promoted = lint_universe(&universe, &facts, &targets, &overrides);
    assert!(promoted
        .diagnostics
        .iter()
        .any(|d| d.rule == "single-operator" && d.severity == Severity::Deny));
}

/// The aggregate `MisconfigMetric` counters and the per-zone lint rules
/// are computed from the same predicates; this pins the agreement on a
/// real universe, per zone and per flag.
#[test]
fn lint_rules_agree_with_misconfig_flags() {
    use perils_core::lint::zone_structural_flags;
    use perils_core::misconfig::{FLAG_SINGLE_OPERATOR, FLAG_SINGLE_SERVER, FLAG_UNRESOLVABLE_NS};

    let fixture = Fixture::tripwire();
    let universe = &fixture.world.universe;
    let report = fixture.report();

    for zid in universe.zone_ids() {
        let origin = &universe.zone(zid).origin;
        let flags = zone_structural_flags(universe, zid);
        let has = |rule: &str| {
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == rule && d.subject == Subject::Zone(zid))
        };
        assert_eq!(
            flags & FLAG_SINGLE_SERVER != 0,
            has("single-server"),
            "single-server disagreement on {origin}"
        );
        assert_eq!(
            flags & FLAG_SINGLE_OPERATOR != 0,
            has("single-operator"),
            "single-operator disagreement on {origin}"
        );
        assert_eq!(
            flags & FLAG_UNRESOLVABLE_NS != 0,
            has("lame-delegation"),
            "lame-delegation disagreement on {origin}"
        );
    }
}

/// The tripwire trips every rule, so it exercises every note: the three
/// that name something carry what they name as one id argument, every
/// fixed phrase is its borrowed template alone.
#[test]
fn tripwire_fixed_notes_are_borrowed() {
    let fixture = Fixture::tripwire();
    let report = fixture.report();
    let parameterised = ["operated under ", "delegated NS of ", "glueless NS of "];
    let notes: Vec<&Note> = report
        .diagnostics
        .iter()
        .flat_map(|d| d.evidence.iter().map(|e| &e.note))
        .collect();
    assert!(!notes.is_empty());
    for note in notes {
        let names_something = parameterised.iter().any(|p| note.template.starts_with(p));
        assert_eq!(note.args[0].is_some(), names_something, "note {note:?}");
    }
}

/// Label bytes may be `"` or `\` (printable ASCII minus the dot), and
/// the sinks write names label by label without rendering them first.
/// Each sink must still show the name exactly as its `Display` does.
#[test]
fn names_with_quote_and_backslash_labels_survive_every_sink() {
    let host = name("ns\"q\\x.quote.com");
    // Two root servers, so the quote.com NS is the one single-server NS.
    let roots = [name("a.root-servers.net"), name("b.root-servers.net")];
    let mut b = Universe::builder();
    for root in &roots {
        b.raw_server(root, false, true);
    }
    b.add_zone(&DnsName::root(), &roots);
    b.add_zone(&name("com"), &roots);
    b.add_zone(&name("quote.com"), std::slice::from_ref(&host));
    let universe = b.finish();
    let facts = LintIndex::build(&universe);
    let targets = [name("www.quote.com")];
    let report = lint_universe(&universe, &facts, &targets, &SeverityOverrides::new());
    let shown = host.to_string();
    assert_eq!(shown, "ns\"q\\x.quote.com");

    let text = report.emit(LintFormat::Text);
    assert!(
        text.contains(&format!(
            "  = note: {shown}: the only NS of the delegation\n"
        )),
        "{text}"
    );

    let single_server = |items: &Value, rule_key: &str| {
        items
            .as_array()
            .expect("array")
            .iter()
            .find(|f| f.get(rule_key).and_then(Value::as_str) == Some("single-server"))
            .cloned()
            .expect("single-server finding")
    };
    let json = parse(&report.emit(LintFormat::Json)).expect("JSON sink parses");
    let finding = single_server(walk(&json, &["findings"]), "rule");
    assert_eq!(
        walk(&finding, &["evidence", "0", "at"]).as_str(),
        Some(shown.as_str())
    );
    let sarif = parse(&report.emit(LintFormat::Sarif)).expect("SARIF sink parses");
    let result = single_server(walk(&sarif, &["runs", "0", "results"]), "ruleId");
    let related = [
        "relatedLocations",
        "0",
        "logicalLocations",
        "0",
        "fullyQualifiedName",
    ];
    assert_eq!(walk(&result, &related).as_str(), Some(shown.as_str()));
}

/// Follows object keys and array indices (`"0"`) into a parsed document.
fn walk<'a>(mut value: &'a Value, path: &[&str]) -> &'a Value {
    for step in path {
        value = match step.parse::<usize>() {
            Ok(i) => &value.as_array().expect("array")[i],
            Err(_) => value
                .get(step)
                .unwrap_or_else(|| panic!("no member {step:?}")),
        };
    }
    value
}
