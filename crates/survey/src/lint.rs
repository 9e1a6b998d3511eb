//! The sharded lint runner and its output sinks.
//!
//! [`run_lint`] is the survey-side driver for [`perils_core::lint`]: it
//! builds the dependency index and shared [`LintIndex`] facts once, then
//! shards the three subject axes (zones, servers, surveyed names) over
//! workers through [`perils_util::par`], as the metric engine does. Each
//! worker runs every registered rule over its contiguous sub-ranges;
//! shards are merged rule-major in range order, so the diagnostic
//! stream — and every rendered byte — equals one serial run of every rule
//! over the whole universe at every thread count (the `stream_equivalence`
//! suite pins this against the oracle crate's serial run).
//!
//! Three sinks serialize a [`LintReport`]: rustc-style text for humans,
//! a findings/rules/summary JSON document, and SARIF 2.1.0 for code
//! scanning UIs and CI annotation. Each writes into any `io::Write`, one
//! finding at a time, resolving evidence ids to names as it goes; the
//! report itself holds ids, never copies of names.

use perils_core::lint::{
    Diagnostic, LintCtx, LintIndex, RuleRegistry, Severity, SeverityOverrides,
};
use perils_core::universe::{ServerId, Universe, ZoneId};
use perils_core::DependencyIndex;
use perils_dns::name::DnsName;
use perils_util::json::{push_json_escaped, push_json_string};
use perils_util::par;
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

/// The outcome of a lint run: the merged diagnostics (severities
/// re-stamped by overrides, `allow`-level findings dropped) plus the
/// rule listing and subject counts the sinks summarize.
#[derive(Debug, Clone)]
pub struct LintReport<'u> {
    /// The linted universe: every evidence step's
    /// [`At`](perils_core::lint::At) resolves through it.
    pub universe: &'u Universe,
    /// Every reported diagnostic, in rule-major, subject-range order.
    pub diagnostics: Vec<Diagnostic>,
    /// Every registered rule with its effective severity.
    pub rules: Vec<RuleMeta>,
    /// Zones checked.
    pub zones: usize,
    /// Servers checked.
    pub servers: usize,
    /// Surveyed names checked.
    pub names: usize,
}

impl LintReport<'_> {
    /// Whether any reported finding is deny-level (the CI/exit-1 gate).
    pub fn has_deny(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// Findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
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

/// Runs every rule in `registry` over `universe` and the surveyed
/// `names`, sharded over `threads` workers (engine default when `None`),
/// then applies `overrides`.
///
/// Output is deterministic and thread-count-invariant: workers own
/// contiguous sub-ranges of each subject axis and their per-rule shards
/// are concatenated in range order, exactly the metric engine's merge
/// discipline.
pub fn run_lint<'u>(
    universe: &'u Universe,
    names: &[DnsName],
    registry: &RuleRegistry,
    overrides: &SeverityOverrides,
    threads: Option<NonZeroUsize>,
) -> LintReport<'u> {
    let index = DependencyIndex::build(universe);
    let facts = LintIndex::build(universe);
    run_lint_with(
        universe, names, registry, overrides, threads, &index, &facts,
    )
}

/// [`run_lint`] over a **prebuilt** dependency index and lint facts —
/// the snapshot-loading path: a world reconstituted from a `.psa`
/// archive already carries both, so linting skips the two builds. The
/// index and facts must belong to `universe` (the snapshot decoder
/// validates this for loaded archives).
pub fn run_lint_with<'u>(
    universe: &'u Universe,
    names: &[DnsName],
    registry: &RuleRegistry,
    overrides: &SeverityOverrides,
    threads: Option<NonZeroUsize>,
    index: &DependencyIndex,
    facts: &LintIndex,
) -> LintReport<'u> {
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
    let mut worker_shards = par::map_ranges(workers, workers, |w| {
        let w = w.start;
        let ctx = LintCtx {
            universe,
            index,
            facts,
            zones: &zones[slice_of(zones.len(), w)],
            servers: &servers[slice_of(servers.len(), w)],
            names: &names[slice_of(names.len(), w)],
        };
        registry
            .iter()
            .map(|rule| rule.check(&ctx))
            .collect::<Vec<_>>()
    });
    // Merge rule-major, workers in range order — the serial order.
    let mut diagnostics = Vec::new();
    for rule_idx in 0..registry.len() {
        for worker in &mut worker_shards {
            diagnostics.append(&mut worker[rule_idx]);
        }
    }

    finish_report(
        universe,
        diagnostics,
        registry,
        overrides,
        zones.len(),
        servers.len(),
        names.len(),
    )
}

fn finish_report<'u>(
    universe: &'u Universe,
    diagnostics: Vec<Diagnostic>,
    registry: &RuleRegistry,
    overrides: &SeverityOverrides,
    zones: usize,
    servers: usize,
    names: usize,
) -> LintReport<'u> {
    let rules: Vec<RuleMeta> = registry
        .iter()
        .map(|rule| RuleMeta {
            id: rule.id(),
            severity: overrides.effective(rule),
            description: rule.describe(),
        })
        .collect();
    let effective_of = |id: &str| {
        rules
            .iter()
            .find(|m| m.id == id)
            .map(|m| m.severity)
            .expect("diagnostic from an unregistered rule")
    };
    let diagnostics = diagnostics
        .into_iter()
        .filter_map(|mut d| {
            let severity = effective_of(d.rule);
            if severity == Severity::Allow {
                return None;
            }
            d.severity = severity;
            Some(d)
        })
        .collect();
    LintReport {
        universe,
        diagnostics,
        rules,
        zones,
        servers,
        names,
    }
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

/// rustc-style text: one headline + subject arrow + evidence notes per
/// finding, then a summary line.
pub fn write_text(report: &LintReport<'_>, out: &mut impl Write) -> io::Result<()> {
    for d in &report.diagnostics {
        writeln!(
            out,
            "{}[{}]: {}\n  --> {}",
            text_label(d.severity),
            d.rule,
            d.message,
            d.subject
        )?;
        for step in &d.evidence {
            writeln!(
                out,
                "  = note: {}: {}",
                step.at.name(report.universe),
                step.note
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "lint: {} finding(s) ({} deny, {} warn) across {} zones, {} servers, {} names",
        report.diagnostics.len(),
        report.count(Severity::Deny),
        report.count(Severity::Warn),
        report.zones,
        report.servers,
        report.names,
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
        push_json_name(&mut buf, d.subject.name());
        buf.push_str("}, \"message\": ");
        push_json_string(&mut buf, &d.message);
        buf.push_str(", \"evidence\": [");
        for (j, step) in d.evidence.iter().enumerate() {
            if j > 0 {
                buf.push_str(", ");
            }
            buf.push_str("{\"at\": ");
            push_json_name(&mut buf, step.at.name(report.universe));
            buf.push_str(", \"note\": ");
            push_json_string(&mut buf, &step.note);
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
        report.zones,
        report.servers,
        report.names,
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
    for (i, d) in report.diagnostics.iter().enumerate() {
        let rule_index = report
            .rules
            .iter()
            .position(|m| m.id == d.rule)
            .expect("diagnostic from an unregistered rule");
        buf.push_str(if i == 0 { "\n" } else { ",\n" });
        buf.push_str("        {\"ruleId\": ");
        push_json_string(&mut buf, d.rule);
        buf.push_str(", \"ruleIndex\": ");
        buf.push_str(&rule_index.to_string());
        buf.push_str(", \"level\": ");
        push_json_string(&mut buf, sarif_level(d.severity));
        buf.push_str(", \"message\": {\"text\": ");
        push_json_string(&mut buf, &d.message);
        buf.push_str("}, \"locations\": [{\"logicalLocations\": [{\"fullyQualifiedName\": \"");
        buf.push_str(d.subject.kind());
        buf.push(' ');
        push_name_escaped(&mut buf, d.subject.name());
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
                push_json_string(&mut buf, &step.note);
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
