//! Lint findings by id: a finding holds ids, name indices, numbers and
//! `'static` templates, never rendered text, and every sink writes its
//! words through the one renderer on `Diagnostic` and `EvidenceStep` — so
//! the daemon's `/name` answers and the `lint` text sink say the same
//! thing about the same finding. Both runs here shard over three
//! workers, whose uneven name ranges the runner rebases.

#![forbid(unsafe_code)]

use perils_core::lint::{
    EvidenceStep, Message, Note, RuleRegistry, SeverityOverrides, Subject, Text,
};
use perils_dns::name::DnsName;
use perils_service::query::name_response;
use perils_service::{WorldSnapshot, WorldSpec};
use perils_survey::lint::{run_lint, LintFormat};
use perils_util::json::{parse, Value};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

const SEED: u64 = 20040722;

/// The rules that scan the surveyed-name axis: the only findings whose
/// subject is a name index rather than a zone or server id.
const NAME_RULES: [&str; 3] = ["deep-chain", "choke-point", "tcb-inflation"];

/// A `Copy` type cannot own heap text.
fn assert_copy<T: Copy>() {}

/// Workers for the lint runs: 400 tiny names shard unevenly over them.
const WORKERS: Option<NonZeroUsize> = NonZeroUsize::new(3);

/// Each `{}` of the template has an argument and each argument a `{}`.
fn args_fill_placeholders<const N: usize>(text: &Text<N>) -> bool {
    text.template.matches("{}").count() == text.args.iter().flatten().count()
}

#[test]
fn builtin_findings_hold_no_heap_text() {
    assert_copy::<Message>();
    assert_copy::<Note>();
    assert_copy::<EvidenceStep>();
    assert_copy::<Subject>();
    assert!(std::mem::size_of::<EvidenceStep>() <= 32);
    for name in ["tiny", "fbi", "tripwire"] {
        let world = WorldSpec::parse(name, SEED)
            .expect("a named world")
            .build(None);
        let surveyed: Vec<DnsName> = world.names.iter().map(|n| n.name).collect();
        let report = run_lint(
            &world,
            &RuleRegistry::builtin(),
            &SeverityOverrides::new(),
            WORKERS,
        );
        assert!(!report.diagnostics.is_empty(), "{name}: no findings");
        let mut words = String::new();
        for d in report.diagnostics.iter() {
            assert_eq!(
                matches!(d.subject, Subject::Name(_)),
                NAME_RULES.contains(&d.rule),
                "{name}: a zone or server subject is an id: {d:?}"
            );
            assert!(args_fill_placeholders(&d.message), "{name}: {d:?}");
            words.clear();
            d.write_message(&world.universe, &report.names, &mut words)
                .unwrap();
            // A name subject is the surveyed name at its index, and the
            // message names it.
            if let Subject::Name(i) = d.subject {
                let surveyed = &surveyed[i as usize];
                assert_eq!(
                    d.subject.name(&world.universe, &report.names),
                    surveyed,
                    "{name}: {d:?}"
                );
                assert!(
                    words.contains(&surveyed.to_string()),
                    "{name}: {words:?} does not name {surveyed}"
                );
            }
            for step in &d.evidence {
                assert!(args_fill_placeholders(&step.note), "{name}: {d:?}");
                step.write_note(&world.universe, &world.lint, &mut words)
                    .unwrap();
            }
            assert!(
                !words.contains('{'),
                "{name}: unfilled placeholder in {words:?}"
            );
        }
    }
}

/// One finding's words as the text sink wrote them: the message, then
/// each evidence line's `at: note`.
type Words = (String, Vec<String>);

/// Reads the text sink back into (rule, "kind name") → words.
fn text_sink_words(text: &str) -> BTreeMap<(String, String), Words> {
    let mut found = BTreeMap::new();
    for block in text.split("\n\n") {
        let mut lines = block.lines();
        let Some((rule, message)) = lines
            .next()
            .and_then(|headline| headline.split_once('['))
            .and_then(|(_, rest)| rest.split_once("]: "))
        else {
            continue;
        };
        let subject = lines
            .next()
            .and_then(|line| line.strip_prefix("  --> "))
            .expect("a subject arrow under every headline");
        let notes = lines
            .map(|line| {
                line.strip_prefix("  = note: ")
                    .expect("a note line")
                    .to_string()
            })
            .collect();
        let key = (rule.to_string(), subject.to_string());
        let words = (message.to_string(), notes);
        if let Some(seen) = found.insert(key, words.clone()) {
            assert_eq!(seen, words, "one subject, two wordings");
        }
    }
    found
}

fn str_of<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {value:?}"))
}

#[test]
fn name_answers_and_the_text_sink_write_the_same_words() {
    let spec = WorldSpec::parse("tiny", SEED).expect("tiny parses");
    let snap = WorldSnapshot::build(&spec, 1, 1, false);
    let rules = RuleRegistry::builtin();
    let report = run_lint(&snap.world, &rules, &SeverityOverrides::new(), WORKERS);
    let sink = text_sink_words(&report.emit(LintFormat::Text));

    let mut ws = snap.index.workspace();
    let mut compared = 0usize;
    for surveyed in snap.world.names.iter() {
        let response = name_response(&snap, &rules, &mut ws, &surveyed.name.to_string());
        assert_eq!(response.status, 200, "{}", response.body);
        let body = parse(&response.body).expect("the answer is JSON");
        for finding in body.get("lint").and_then(Value::as_array).expect("lint") {
            let subject = finding.get("subject").expect("subject");
            let key = (
                str_of(finding, "rule").to_string(),
                format!("{} {}", str_of(subject, "kind"), str_of(subject, "name")),
            );
            let notes: Vec<String> = finding
                .get("evidence")
                .and_then(Value::as_array)
                .expect("evidence")
                .iter()
                .map(|step| format!("{}: {}", str_of(step, "at"), str_of(step, "note")))
                .collect();
            let written = sink
                .get(&key)
                .unwrap_or_else(|| panic!("{key:?} answered but not in the text sink"));
            assert_eq!(
                written,
                &(str_of(finding, "message").to_string(), notes),
                "{key:?}"
            );
            compared += 1;
        }
    }
    assert!(
        compared > snap.world.names.len(),
        "only {compared} findings compared"
    );
}
