//! The sharded lint runner and its output sinks.
//!
//! [`run_lint`] is the survey-side runner for [`perils_core::lint`]: over
//! a [`World`]'s dependency index and shared [`LintIndex`] facts, it
//! shards the three subject axes (zones, servers, surveyed names) over
//! workers through [`perils_util::par`], as the metric engine does. Each
//! worker runs every registered rule over its contiguous sub-ranges and
//! rebases its name subjects onto the whole run's names. The report keeps
//! each worker's per-rule `Vec` as the worker wrote it, rule-major in
//! range order ([`Findings`]), so the diagnostic stream — and every
//! rendered byte — equals one serial run of every rule over the whole
//! universe at every thread count (the `stream_equivalence` suite pins
//! this against the oracle crate's serial run), and no finding is copied
//! after its worker wrote it.
//!
//! Three sinks serialize a [`LintReport`]: rustc-style text for humans,
//! a findings/rules/summary JSON document, and SARIF 2.1.0 for code
//! scanning UIs and CI annotation. Each writes into any `io::Write`, one
//! finding at a time, writing every message and note through
//! [`Diagnostic::write_message`] and [`EvidenceStep::write_note`] as it
//! goes; a finding holds ids, numbers, `'static` words and an exact-length
//! evidence slice, and its subject names resolve through the universe and
//! the report's one list of surveyed names.

use crate::snapshot::World;
use perils_core::lint::{
    Diagnostic, EvidenceStep, LintCtx, LintIndex, RuleRegistry, Severity, SeverityOverrides,
};
use perils_core::universe::{ServerId, Universe, ZoneId};
use perils_core::DependencyIndex;
use perils_dns::name::DnsName;
use perils_util::json::{escape_json_from, push_json_escaped, push_json_string};
use perils_util::par;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::num::NonZeroUsize;

/// A rule's listing entry: its id, *effective* severity (defaults plus
/// any overrides), and description. Registry order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleMeta {
    /// Stable rule id.
    pub id: &'static str,
    /// Effective severity for this run.
    pub severity: Severity,
    /// One-line description.
    pub description: &'static str,
}

/// One worker's findings for one rule, as the worker wrote them.
#[derive(Debug, Clone)]
struct Shard {
    /// The rule's position in the registry (and in [`LintReport::rules`]).
    rule: usize,
    /// Its findings, severity re-stamped by overrides.
    diagnostics: Vec<Diagnostic>,
}

/// A lint run's reported findings in rule-major, subject-range order:
/// the workers' non-empty per-rule `Vec`s, kept as they were written
/// rather than copied into one. Every finding of a shard has its rule's
/// effective severity.
#[derive(Debug, Clone)]
pub struct Findings {
    shards: Vec<Shard>,
}

impl Findings {
    /// The number of findings.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.diagnostics.len()).sum()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Every finding, in report order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.shards.iter().flat_map(|s| &s.diagnostics)
    }
}

/// The outcome of a lint run: the reported diagnostics (severities
/// re-stamped by overrides, `allow`-level rules' findings dropped), the
/// names they were computed over, and the rule listing the sinks
/// summarize.
#[derive(Debug, Clone)]
pub struct LintReport<'u> {
    /// The linted universe: every zone and server subject, evidence step
    /// and argument id resolves through it.
    pub universe: &'u Universe,
    /// The lint facts the findings were computed from (a `deep-chain`
    /// note's nesting levels are read from them).
    pub facts: &'u LintIndex,
    /// The surveyed names linted, in survey order: a name subject is an
    /// index into them.
    pub names: Cow<'u, [DnsName]>,
    /// Every reported diagnostic, in rule-major, subject-range order.
    pub diagnostics: Findings,
    /// Every registered rule with its effective severity.
    pub rules: Vec<RuleMeta>,
}

impl LintReport<'_> {
    /// Whether any reported finding is deny-level (the CI/exit-1 gate).
    pub fn has_deny(&self) -> bool {
        self.count(Severity::Deny) > 0
    }

    /// Findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .shards
            .iter()
            .filter(|s| self.rules[s.rule].severity == severity)
            .map(|s| s.diagnostics.len())
            .sum()
    }

    /// Streams the report through the chosen sink into `out`.
    pub fn write(&self, format: LintFormat, out: &mut impl Write) -> io::Result<()> {
        match format {
            LintFormat::Text => write_text(self, out),
            LintFormat::Json => write_json(self, out),
            LintFormat::Sarif => write_sarif(self, out),
        }
    }

    /// Renders through the chosen sink into one string.
    pub fn emit(&self, format: LintFormat) -> String {
        let mut out = Vec::new();
        self.write(format, &mut out)
            .expect("writing into memory cannot fail");
        String::from_utf8(out).expect("every sink writes UTF-8")
    }
}

/// Lints `world`: every rule in `registry` over its universe and its
/// surveyed names, through the dependency index and lint facts the world
/// carries, sharded over `threads` workers (engine default when `None`),
/// then applies `overrides`.
///
/// Output is deterministic and thread-count-invariant: workers own
/// contiguous sub-ranges of each subject axis and their per-rule shards
/// are kept in rule-major, range order, exactly the metric engine's
/// merge discipline.
pub fn run_lint<'w>(
    world: &'w World,
    registry: &RuleRegistry,
    overrides: &SeverityOverrides,
    threads: Option<NonZeroUsize>,
) -> LintReport<'w> {
    let targets: Vec<DnsName> = world.names.iter().map(|n| n.name).collect();
    run_lint_with(
        &world.universe,
        targets,
        registry,
        overrides,
        threads,
        &world.index,
        &world.lint,
    )
}

/// [`run_lint`] over a universe, its target names and its **prebuilt**
/// dependency index and lint facts, which must belong to `universe`. The
/// report borrows `names` when given a borrow, so the caller's list is
/// not copied.
pub fn run_lint_with<'u>(
    universe: &'u Universe,
    names: impl Into<Cow<'u, [DnsName]>>,
    registry: &RuleRegistry,
    overrides: &SeverityOverrides,
    threads: Option<NonZeroUsize>,
    index: &DependencyIndex,
    facts: &'u LintIndex,
) -> LintReport<'u> {
    let names = names.into();
    let workers = par::threads(threads);
    let zones: Vec<ZoneId> = universe.zone_ids().collect();
    let servers: Vec<ServerId> = universe.server_ids().collect();

    // Contiguous per-axis sub-ranges; a worker may own an empty slice of
    // one axis and a populated slice of another.
    let slice_of = |len: usize, w: usize| {
        let chunk = len.div_ceil(workers).max(1);
        let start = (w * chunk).min(len);
        start..(start + chunk).min(len)
    };
    // One single-index range per worker; worker-major results:
    // worker → rule → diagnostics.
    let worker_shards = par::map_ranges(workers, workers, |w| {
        let w = w.start;
        let own_names = slice_of(names.len(), w);
        let start = own_names.start;
        let ctx = LintCtx {
            universe,
            index,
            facts,
            zones: &zones[slice_of(zones.len(), w)],
            servers: &servers[slice_of(servers.len(), w)],
            names: &names[own_names],
        };
        registry
            .iter()
            .map(|rule| {
                let mut diagnostics = rule.check(&ctx);
                // A rule numbers the names it was handed from 0.
                for d in &mut diagnostics {
                    d.subject.rebase(start);
                }
                diagnostics
            })
            .collect::<Vec<_>>()
    });
    let (rules, diagnostics) = apply_overrides(worker_shards, registry, overrides);
    LintReport {
        universe,
        facts,
        names,
        diagnostics,
        rules,
    }
}

/// Lists every rule with its effective severity and keeps the workers'
/// shards rule-major, workers in range order — the serial order. Each
/// shard is re-stamped in place with its rule's severity; an
/// `allow`-level rule's shards, and empty ones, are dropped whole.
fn apply_overrides(
    mut worker_shards: Vec<Vec<Vec<Diagnostic>>>,
    registry: &RuleRegistry,
    overrides: &SeverityOverrides,
) -> (Vec<RuleMeta>, Findings) {
    let rules: Vec<RuleMeta> = registry
        .iter()
        .map(|rule| RuleMeta {
            id: rule.id(),
            severity: overrides.effective(rule),
            description: rule.describe(),
        })
        .collect();
    let mut shards = Vec::new();
    for (rule, meta) in rules.iter().enumerate() {
        if meta.severity == Severity::Allow {
            continue;
        }
        for worker in &mut worker_shards {
            let mut diagnostics = std::mem::take(&mut worker[rule]);
            if diagnostics.is_empty() {
                continue;
            }
            for d in &mut diagnostics {
                d.severity = meta.severity;
            }
            shards.push(Shard { rule, diagnostics });
        }
    }
    (rules, Findings { shards })
}

/// The serialization a lint sink writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintFormat {
    /// rustc-style human diagnostics.
    Text,
    /// One findings/rules/summary JSON document.
    Json,
    /// SARIF 2.1.0 for code-scanning consumers.
    Sarif,
}

impl LintFormat {
    /// Parses a `--format` argument.
    pub fn parse(s: &str) -> Option<LintFormat> {
        match s {
            "text" => Some(LintFormat::Text),
            "json" => Some(LintFormat::Json),
            "sarif" => Some(LintFormat::Sarif),
            _ => None,
        }
    }
}

/// Severity → rustc-style headline word.
fn text_label(severity: Severity) -> &'static str {
    match severity {
        Severity::Deny => "error",
        _ => "warning",
    }
}

/// Severity → SARIF `level`.
fn sarif_level(severity: Severity) -> &'static str {
    match severity {
        Severity::Allow => "none",
        Severity::Warn => "warning",
        Severity::Deny => "error",
    }
}

/// Appends `name` in presentation form (the bytes of its `Display`),
/// JSON-escaped label by label and without quotes.
fn push_name_escaped(out: &mut String, name: &DnsName) {
    if name.is_root() {
        out.push('.');
    }
    for (i, label) in name.labels().iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        push_json_escaped(out, label.as_str());
    }
}

/// Appends `name` as a JSON string literal in presentation form, without
/// first rendering it to a `String`.
pub fn push_json_name(out: &mut String, name: &DnsName) {
    out.push('"');
    push_name_escaped(out, name);
    out.push('"');
}

/// Appends a finding's message as a JSON string literal, its words
/// written straight into the body and escaped in place. A name subject
/// resolves in `names`, the names the finding was computed over.
pub fn push_json_message(out: &mut String, d: &Diagnostic, universe: &Universe, names: &[DnsName]) {
    out.push('"');
    let start = out.len();
    d.write_message(universe, names, out)
        .expect("writing into a String cannot fail");
    escape_json_from(out, start);
    out.push('"');
}

/// Appends an evidence step's note as a JSON string literal.
pub fn push_json_note(
    out: &mut String,
    step: &EvidenceStep,
    universe: &Universe,
    facts: &LintIndex,
) {
    out.push('"');
    let start = out.len();
    step.write_note(universe, facts, out)
        .expect("writing into a String cannot fail");
    escape_json_from(out, start);
    out.push('"');
}

/// Appends one finding in the text sink's form: headline, subject arrow,
/// one line per evidence note, then a blank line.
fn push_text_finding(
    out: &mut String,
    d: &Diagnostic,
    report: &LintReport<'_>,
) -> std::fmt::Result {
    let universe = report.universe;
    write!(out, "{}[{}]: ", text_label(d.severity), d.rule)?;
    d.write_message(universe, &report.names, out)?;
    writeln!(
        out,
        "\n  --> {} {}",
        d.subject.kind(),
        d.subject.name(universe, &report.names)
    )?;
    for step in &d.evidence {
        write!(out, "  = note: {}: ", step.at.name(universe))?;
        step.write_note(universe, report.facts, out)?;
        out.push('\n');
    }
    out.push('\n');
    Ok(())
}

/// rustc-style text: one headline + subject arrow + evidence notes per
/// finding, then a summary line. Each finding is assembled in one reused
/// buffer and written out whole.
pub fn write_text(report: &LintReport<'_>, out: &mut impl Write) -> io::Result<()> {
    let mut buf = String::new();
    for d in report.diagnostics.iter() {
        push_text_finding(&mut buf, d, report).expect("writing into a String cannot fail");
        out.write_all(buf.as_bytes())?;
        buf.clear();
    }
    writeln!(
        out,
        "lint: {} finding(s) ({} deny, {} warn) across {} zones, {} servers, {} names",
        report.diagnostics.len(),
        report.count(Severity::Deny),
        report.count(Severity::Warn),
        report.universe.zone_count(),
        report.universe.server_count(),
        report.names.len(),
    )
}

/// The findings/rules/summary JSON document. Each finding is assembled
/// in one reused buffer and written out whole.
pub fn write_json(report: &LintReport<'_>, out: &mut impl Write) -> io::Result<()> {
    let mut buf = String::from("{\n  \"findings\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        buf.push_str(if i == 0 { "\n" } else { ",\n" });
        buf.push_str("    {\"rule\": ");
        push_json_string(&mut buf, d.rule);
        buf.push_str(", \"severity\": ");
        push_json_string(&mut buf, d.severity.label());
        buf.push_str(", \"subject\": {\"kind\": ");
        push_json_string(&mut buf, d.subject.kind());
        buf.push_str(", \"name\": ");
        push_json_name(&mut buf, d.subject.name(report.universe, &report.names));
        buf.push_str("}, \"message\": ");
        push_json_message(&mut buf, d, report.universe, &report.names);
        buf.push_str(", \"evidence\": [");
        for (j, step) in d.evidence.iter().enumerate() {
            if j > 0 {
                buf.push_str(", ");
            }
            buf.push_str("{\"at\": ");
            push_json_name(&mut buf, step.at.name(report.universe));
            buf.push_str(", \"note\": ");
            push_json_note(&mut buf, step, report.universe, report.facts);
            buf.push('}');
        }
        buf.push_str("]}");
        out.write_all(buf.as_bytes())?;
        buf.clear();
    }
    buf.push_str("\n  ],\n  \"rules\": [");
    for (i, rule) in report.rules.iter().enumerate() {
        buf.push_str(if i == 0 { "\n" } else { ",\n" });
        buf.push_str("    {\"id\": ");
        push_json_string(&mut buf, rule.id);
        buf.push_str(", \"severity\": ");
        push_json_string(&mut buf, rule.severity.label());
        buf.push_str(", \"description\": ");
        push_json_string(&mut buf, rule.description);
        buf.push('}');
    }
    out.write_all(buf.as_bytes())?;
    write!(
        out,
        "\n  ],\n  \"summary\": {{\"findings\": {}, \"deny\": {}, \"warn\": {}, \"zones\": {}, \"servers\": {}, \"names\": {}}}\n}}\n",
        report.diagnostics.len(),
        report.count(Severity::Deny),
        report.count(Severity::Warn),
        report.universe.zone_count(),
        report.universe.server_count(),
        report.names.len(),
    )
}

/// SARIF 2.1.0: the registry as `tool.driver.rules` (every rule, in
/// registry order, with its effective level) and each finding as a
/// `result` whose subject is a logical location and whose evidence chain
/// becomes `relatedLocations`. Results are written one at a time, as in
/// [`write_json`].
pub fn write_sarif(report: &LintReport<'_>, out: &mut impl Write) -> io::Result<()> {
    let mut buf = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"perils-lint\",\n          \"rules\": [",
    );
    for (i, rule) in report.rules.iter().enumerate() {
        buf.push_str(if i == 0 { "\n" } else { ",\n" });
        buf.push_str("            {\"id\": ");
        push_json_string(&mut buf, rule.id);
        buf.push_str(", \"shortDescription\": {\"text\": ");
        push_json_string(&mut buf, rule.description);
        buf.push_str("}, \"defaultConfiguration\": {\"level\": ");
        push_json_string(&mut buf, sarif_level(rule.severity));
        buf.push_str("}}");
    }
    buf.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    let results = report
        .diagnostics
        .shards
        .iter()
        .flat_map(|s| s.diagnostics.iter().map(move |d| (s.rule, d)));
    for (i, (rule_index, d)) in results.enumerate() {
        buf.push_str(if i == 0 { "\n" } else { ",\n" });
        buf.push_str("        {\"ruleId\": ");
        push_json_string(&mut buf, d.rule);
        buf.push_str(", \"ruleIndex\": ");
        buf.push_str(&rule_index.to_string());
        buf.push_str(", \"level\": ");
        push_json_string(&mut buf, sarif_level(d.severity));
        buf.push_str(", \"message\": {\"text\": ");
        push_json_message(&mut buf, d, report.universe, &report.names);
        buf.push_str("}, \"locations\": [{\"logicalLocations\": [{\"fullyQualifiedName\": \"");
        buf.push_str(d.subject.kind());
        buf.push(' ');
        push_name_escaped(&mut buf, d.subject.name(report.universe, &report.names));
        buf.push_str("\", \"kind\": ");
        push_json_string(&mut buf, d.subject.kind());
        buf.push_str("}]}]");
        if !d.evidence.is_empty() {
            buf.push_str(", \"relatedLocations\": [");
            for (j, step) in d.evidence.iter().enumerate() {
                if j > 0 {
                    buf.push_str(", ");
                }
                buf.push_str("{\"logicalLocations\": [{\"fullyQualifiedName\": ");
                push_json_name(&mut buf, step.at.name(report.universe));
                buf.push_str("}], \"message\": {\"text\": ");
                push_json_note(&mut buf, step, report.universe, report.facts);
                buf.push_str("}}");
            }
            buf.push(']');
        }
        buf.push('}');
        out.write_all(buf.as_bytes())?;
        buf.clear();
    }
    buf.push_str("\n      ]\n    }\n  ]\n}\n");
    out.write_all(buf.as_bytes())
}
