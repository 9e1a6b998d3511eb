//! The delegation lint engine: rule-driven static analysis of the trust
//! graph, with per-subject diagnostics and evidence chains.
//!
//! The survey metrics ([`crate::misconfig`], [`crate::zombie`]) answer
//! "how much of the namespace is broken"; this module answers "*what*,
//! exactly, is broken *here*, and *prove it*". A [`LintRule`] inspects a
//! [`Universe`] (plus the shared precomputed [`LintIndex`] facts) through
//! a [`LintCtx`] and emits [`Diagnostic`]s: a subject (zone, server or
//! surveyed name), a severity, a human message, the stable machine rule
//! id, and an **evidence chain** — the concrete delegation/dependency
//! path that proves the finding (the cycle members for `glueless-cycle`,
//! the cut server plus a resolution path through it for `choke-point`).
//!
//! The built-in [`RuleRegistry::builtin`] ships the paper's taxonomy and
//! its operational extensions:
//!
//! | rule | severity | subject | finding |
//! |------|----------|---------|---------|
//! | `single-server`   | warn | zone   | one NS ("diminished redundancy") |
//! | `single-operator` | warn | zone   | all NS under one operator domain |
//! | `lame-delegation` | deny | zone   | NS host resolvable nowhere |
//! | `glueless-cycle`  | deny | zone   | unbootstrappable via a glueless SCC |
//! | `deep-chain`      | warn | name   | nested glueless sub-resolutions |
//! | `zombie-ns`       | deny | zone   | every NS host is dead |
//! | `orphaned-glue`   | warn | server | referenced by no delegation |
//! | `choke-point`     | warn | name   | closure min-cut = 1 |
//! | `tcb-inflation`   | warn | name   | closure ≫ delegated NS set |
//!
//! **Where a one-server cut can sit.** A one-server cut of a name is
//! always the lone NS of a `single-server` zone on the name's own chain:
//! the source feeds every NS of the chain's first zone and each zone's
//! hub feeds every NS of the next, so where every chain zone has two
//! distinct servers, a path avoids any one of them. `choke-point` runs
//! its max-flow only for a name under such a zone ([`ChokePointRule`]
//! has the proof), and the two rules share one predicate,
//! [`SingleServerRule::applies`].
//!
//! **Determinism contract**: a rule must emit diagnostics by scanning
//! exactly one of the ctx's subject slices (`zones`, `servers` or
//! `names`) in order, with content independent of how those slices were
//! sharded. The survey runner hands each worker contiguous sub-ranges of
//! every axis and concatenates per-rule results in range order, so the
//! merged diagnostic stream is byte-identical for any thread count —
//! the same contract [`crate::metric::NameMetric`] shards obey.
//!
//! [`zone_structural_flags`] is the bridge back to the aggregate path:
//! [`crate::misconfig::MisconfigMetric`] reads each measured zone's flag
//! bits from the very same rule predicates, so counters and diagnostics
//! cannot drift.

use crate::closure::{ClosureView, DependencyIndex};
use crate::hijack::{choke_witness, min_cut_flattened_view};
use crate::misconfig::{
    operator_labels, single_operator, unresolvable_ns, DepthIndex, FLAG_SINGLE_OPERATOR,
    FLAG_SINGLE_SERVER, FLAG_UNRESOLVABLE_NS,
};
use crate::universe::{ServerId, Universe, ZoneId};
use crate::usable::Reachability;
use crate::zombie::ZombieIndex;
use perils_dns::name::{DnsName, Label};
use std::collections::BTreeSet;
use std::fmt;

/// Diagnostic severity, ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suppressed: the rule ran but its findings are not reported.
    Allow,
    /// Reported, does not fail a gated run.
    Warn,
    /// Reported and fails a gated run (CI, `bin/lint` exit 1).
    Deny,
}

impl Severity {
    /// The stable lowercase label (`allow`/`warn`/`deny`) used by CLI
    /// flags and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses a CLI label.
    pub fn parse(label: &str) -> Option<Severity> {
        match label {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a diagnostic is about. Zones and servers are ids of the linted
/// universe and a surveyed name is its position among the run's names;
/// sinks resolve them with [`Subject::name`] when they write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// A zone, shown by origin.
    Zone(ZoneId),
    /// A nameserver, shown by host name.
    Server(ServerId),
    /// A surveyed name: its index in the names the run linted. A rule
    /// emits the index into its ctx's `names`; a sharded runner rebases
    /// it onto the whole run's names.
    Name(u32),
}

impl Subject {
    /// The subject for the `i`-th of the ctx's names. Names are counted
    /// in 32 bits, as ids are.
    pub fn name_at(i: usize) -> Subject {
        Subject::Name(u32::try_from(i).expect("a lint run exceeds 2^32 names"))
    }

    /// The subject kind as a stable lowercase word.
    pub fn kind(&self) -> &'static str {
        match self {
            Subject::Zone(_) => "zone",
            Subject::Server(_) => "server",
            Subject::Name(_) => "name",
        }
    }

    /// The subject's DNS name: ids resolve in `universe`, a name index
    /// in `names`, the names the run linted.
    pub fn name<'a>(&self, universe: &'a Universe, names: &'a [DnsName]) -> &'a DnsName {
        match *self {
            Subject::Zone(zid) => &universe.zone(zid).origin,
            Subject::Server(sid) => &universe.server(sid).name,
            Subject::Name(i) => &names[i as usize],
        }
    }

    /// Moves a name index from a shard's names to the whole run's, where
    /// the shard's names start at `start`. Ids are left as they are.
    pub fn rebase(&mut self, start: usize) {
        if let Subject::Name(i) = *self {
            *self = Subject::name_at(start + i as usize);
        }
    }
}

/// What an evidence step points at: a server or a zone of the universe
/// the diagnostic was computed over. Sinks resolve it with [`At::name`]
/// when they write it, so a report holds ids, not copies of names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum At {
    /// A nameserver, shown by host name.
    Server(ServerId),
    /// A zone, shown by origin.
    Zone(ZoneId),
}

impl At {
    /// The DNS name this step points at in `universe`.
    pub fn name(self, universe: &Universe) -> &DnsName {
        match self {
            At::Server(sid) => &universe.server(sid).name,
            At::Zone(zid) => &universe.zone(zid).origin,
        }
    }
}

/// A value a [`Text`] placeholder is filled with: an id or a number,
/// resolved to words only when a sink writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// A zone, shown by origin.
    Zone(ZoneId),
    /// A nameserver, shown by host name.
    Server(ServerId),
    /// A number.
    Count(u32),
    /// The operator domain of the zone's first NS, spelled as that NS
    /// spells it: for a zone [`single_operator`] holds for, the domain
    /// every NS sits under.
    Operator(ZoneId),
}

impl Arg {
    fn write(self, universe: &Universe, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Arg::Zone(zid) => write_name(out, &universe.zone(zid).origin),
            Arg::Server(sid) => write_name(out, &universe.server(sid).name),
            Arg::Count(n) => write!(out, "{n}"),
            Arg::Operator(zid) => match universe.zone(zid).ns.first() {
                Some(&sid) => write_labels(out, operator_labels(&universe.server(sid).name)),
                None => Ok(()),
            },
        }
    }

    /// A count of servers, zones or nesting levels. Each is bounded by
    /// the universe's server count, which 32-bit ids keep below 2^32
    /// (archived glueless depths are checked against it on load).
    pub fn count(n: usize) -> Arg {
        Arg::Count(u32::try_from(n).expect("a lint count exceeds the 32-bit id space"))
    }
}

/// Writes `name` as its `Display` does, label by label.
fn write_name(out: &mut impl fmt::Write, name: &DnsName) -> fmt::Result {
    if name.is_root() {
        return out.write_char('.');
    }
    write_labels(out, name.labels())
}

/// Writes labels joined by dots.
fn write_labels(out: &mut impl fmt::Write, labels: &[Label]) -> fmt::Result {
    for (i, label) in labels.iter().enumerate() {
        if i > 0 {
            out.write_char('.')?;
        }
        out.write_str(label.as_str())?;
    }
    Ok(())
}

/// Words kept as a template and ids rather than as text. The template's
/// `{}` placeholders take `args` in order; `{subject}` names the
/// finding's subject (in a message) and `{levels}` is one more than the
/// glueless depth of the step's server (in a note). Every sink writes
/// the words through [`Diagnostic::write_message`] and
/// [`EvidenceStep::write_note`], so a finding holds no text of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Text<const N: usize> {
    /// The words, with a placeholder per argument.
    pub template: &'static str,
    /// The arguments in placeholder order; unused slots are `None`.
    pub args: [Option<Arg>; N],
}

/// A finding's one-line message: a template and up to three arguments.
pub type Message = Text<3>;

/// Why an evidence step proves the finding: a template and at most one
/// argument.
pub type Note = Text<1>;

impl<const N: usize> Text<N> {
    /// Words with no argument yet.
    pub const fn new(template: &'static str) -> Text<N> {
        Text {
            template,
            args: [None; N],
        }
    }

    /// Fills the next placeholder with `arg`. Panics when every slot is
    /// taken (a rule wiring bug).
    pub fn arg(mut self, arg: Arg) -> Text<N> {
        let slot = self
            .args
            .iter_mut()
            .find(|slot| slot.is_none())
            .unwrap_or_else(|| panic!("{:?} takes at most {N} argument(s)", self.template));
        *slot = Some(arg);
        self
    }

    /// Writes the words, resolving ids in `universe`. `subject` fills
    /// `{subject}` and `levels` fills `{levels}`; a placeholder with
    /// nothing to fill it is written as it stands.
    fn write(
        &self,
        universe: &Universe,
        subject: Option<&DnsName>,
        levels: Option<usize>,
        out: &mut impl fmt::Write,
    ) -> fmt::Result {
        let mut args = self.args.iter().flatten().peekable();
        let mut rest = self.template;
        while let Some(open) = rest.find('{') {
            out.write_str(&rest[..open])?;
            rest = &rest[open..];
            if let (Some(tail), Some(&&arg)) = (rest.strip_prefix("{}"), args.peek()) {
                args.next();
                rest = tail;
                arg.write(universe, out)?;
            } else if let (Some(tail), Some(subject)) = (rest.strip_prefix("{subject}"), subject) {
                rest = tail;
                write_name(out, subject)?;
            } else if let (Some(tail), Some(levels)) = (rest.strip_prefix("{levels}"), levels) {
                rest = tail;
                write!(out, "{levels}")?;
            } else {
                out.write_char('{')?;
                rest = &rest[1..];
            }
        }
        out.write_str(rest)
    }
}

impl<const N: usize> From<&'static str> for Text<N> {
    fn from(template: &'static str) -> Text<N> {
        Text::new(template)
    }
}

/// One hop of an evidence chain: a concrete host or zone plus why it
/// matters for the finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvidenceStep {
    /// The server or zone this step points at.
    pub at: At,
    /// Why it proves (part of) the finding.
    pub note: Note,
}

impl EvidenceStep {
    fn server(sid: ServerId, note: impl Into<Note>) -> EvidenceStep {
        EvidenceStep {
            at: At::Server(sid),
            note: note.into(),
        }
    }

    /// Writes the note's words, resolving ids in `universe` and a
    /// server step's `{levels}` through `facts`.
    pub fn write_note(
        &self,
        universe: &Universe,
        facts: &LintIndex,
        out: &mut impl fmt::Write,
    ) -> fmt::Result {
        let levels = match self.at {
            At::Server(sid) => Some(1 + facts.depths().depth_of_server(sid)),
            At::Zone(_) => None,
        };
        self.note.write(universe, None, levels, out)
    }
}

/// One lint finding: ids, numbers and `'static` words only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable machine-readable rule id (`lame-delegation`, ...).
    pub rule: &'static str,
    /// Severity (the rule's default; runners may re-stamp overrides).
    pub severity: Severity,
    /// What the finding is about.
    pub subject: Subject,
    /// The one-line message.
    pub message: Message,
    /// The delegation/dependency path proving the finding, exactly as
    /// long as it is.
    pub evidence: Box<[EvidenceStep]>,
}

impl Diagnostic {
    /// Writes the message's words, resolving ids in `universe` and a
    /// name subject in `names`, the names the run linted.
    pub fn write_message(
        &self,
        universe: &Universe,
        names: &[DnsName],
        out: &mut impl fmt::Write,
    ) -> fmt::Result {
        let subject = self.subject.name(universe, names);
        self.message.write(universe, Some(subject), None, out)
    }
}

/// Universe-wide facts shared by every rule, built once per lint run
/// (the analogue of [`crate::metric::NameMetric::prepare`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LintIndex {
    depths: DepthIndex,
    zombies: ZombieIndex,
    zone_reachable: Vec<bool>,
    referenced: Vec<bool>,
}

impl LintIndex {
    /// Borrows the flat state a snapshot archive persists.
    pub(crate) fn snapshot_parts(&self) -> (&DepthIndex, &ZombieIndex, &[bool], &[bool]) {
        (
            &self.depths,
            &self.zombies,
            &self.zone_reachable,
            &self.referenced,
        )
    }

    /// Reassembles the shared lint facts from archived flat state.
    pub(crate) fn from_snapshot_parts(
        universe: &Universe,
        depths: DepthIndex,
        zombies: ZombieIndex,
        zone_reachable: Vec<bool>,
        referenced: Vec<bool>,
    ) -> Result<LintIndex, String> {
        if zone_reachable.len() != universe.zone_count() {
            return Err(format!(
                "zone_reachable has {} entries for {} zones",
                zone_reachable.len(),
                universe.zone_count()
            ));
        }
        if referenced.len() != universe.server_count() {
            return Err(format!(
                "referenced has {} entries for {} servers",
                referenced.len(),
                universe.server_count()
            ));
        }
        Ok(LintIndex {
            depths,
            zombies,
            zone_reachable,
            referenced,
        })
    }

    /// Builds every shared fact: the cycle-collapsed glueless depth
    /// index, the liveness classification, the no-faults reachability
    /// baseline, and which servers any delegation references at all.
    ///
    /// Each fact is one pass over the universe. The depth index, built
    /// from one glueless edge list per home zone with no server graph
    /// ([`DepthIndex::build`]), is the largest of them.
    pub fn build(universe: &Universe) -> LintIndex {
        let reach = Reachability::compute(universe, &BTreeSet::new());
        let zone_reachable = universe
            .zone_ids()
            .map(|z| reach.zone_reachable(z))
            .collect();
        let mut referenced = vec![false; universe.server_count()];
        for zid in universe.zone_ids() {
            for &sid in &universe.zone(zid).ns {
                referenced[sid.index()] = true;
            }
        }
        LintIndex {
            depths: DepthIndex::build(universe),
            zombies: ZombieIndex::build(universe),
            zone_reachable,
            referenced,
        }
    }

    /// The shared glueless-depth (and cycle) index.
    pub fn depths(&self) -> &DepthIndex {
        &self.depths
    }

    /// The shared liveness classification.
    pub fn zombies(&self) -> &ZombieIndex {
        &self.zombies
    }

    /// Whether `zone` is resolvable at the no-faults baseline.
    pub fn zone_reachable(&self, zone: ZoneId) -> bool {
        self.zone_reachable[zone.index()]
    }

    /// Whether any zone's NS set references `server`.
    pub fn is_referenced(&self, server: ServerId) -> bool {
        self.referenced[server.index()]
    }
}

/// Everything a rule sees: the universe, the dependency index, the
/// shared [`LintIndex`] facts, and this shard's contiguous subject
/// slices. A serial run passes the full ranges; the survey runner passes
/// per-worker sub-ranges (see the module-level determinism contract).
pub struct LintCtx<'a> {
    /// The analysis universe.
    pub universe: &'a Universe,
    /// The universe-wide dependency index.
    pub index: &'a DependencyIndex,
    /// Shared precomputed facts.
    pub facts: &'a LintIndex,
    /// This shard's zones, ascending by id.
    pub zones: &'a [ZoneId],
    /// This shard's servers, ascending by id.
    pub servers: &'a [ServerId],
    /// This shard's surveyed names, in survey order.
    pub names: &'a [DnsName],
}

impl LintCtx<'_> {
    /// Runs `f` over every surveyed name in this shard, as its subject,
    /// with its borrowed closure view — the allocation-light path
    /// name-scoped rules use.
    pub fn for_each_closure(&self, f: impl FnMut(Subject, &ClosureView<'_>)) {
        self.for_each_closure_under(|_| true, f);
    }

    /// [`LintCtx::for_each_closure`] over only the names whose deepest
    /// zone (`universe.zone_of(name)`) passes `keep`: a skipped name
    /// costs that one lookup and no closure. The workspace is allocated
    /// at the first kept name, so a shard that keeps none (every `/zone`
    /// request has no names) allocates nothing.
    pub(crate) fn for_each_closure_under(
        &self,
        mut keep: impl FnMut(Option<ZoneId>) -> bool,
        mut f: impl FnMut(Subject, &ClosureView<'_>),
    ) {
        let mut ws = None;
        for (i, name) in self.names.iter().enumerate() {
            let zone = self.universe.zone_of(name);
            if !keep(zone) {
                continue;
            }
            let ws = ws.get_or_insert_with(|| self.index.workspace());
            let view = self.index.closure_view_in(self.universe, name, zone, ws);
            f(Subject::name_at(i), &view);
        }
    }
}

/// A lint rule: a stable id, a default severity, a one-line description,
/// and the check itself.
///
/// Rules must obey the module-level determinism contract: scan exactly
/// one subject axis of the ctx, in order, emitting shard-independent
/// diagnostics.
pub trait LintRule: Send + Sync {
    /// Stable machine-readable rule id (kebab-case).
    fn id(&self) -> &'static str;
    /// Default severity, overridable per run.
    fn default_severity(&self) -> Severity;
    /// One-line human description (shown by `--list-rules` and SARIF).
    fn describe(&self) -> &'static str;
    /// Emits this rule's diagnostics for the ctx's subject slices.
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic>;
}

/// Typed lint configuration errors (the CLI's exit-2 path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// A severity override named a rule id the registry does not know.
    UnknownRule {
        /// The offending id.
        rule: String,
        /// Every registered id, in registration order.
        known: Vec<&'static str>,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::UnknownRule { rule, known } => {
                write!(f, "unknown lint rule {rule:?}; registered: {known:?}")
            }
        }
    }
}

impl std::error::Error for LintError {}

/// An ordered collection of rules; ids must be unique.
#[derive(Default)]
pub struct RuleRegistry {
    rules: Vec<Box<dyn LintRule>>,
}

impl RuleRegistry {
    /// An empty registry.
    pub fn new() -> RuleRegistry {
        RuleRegistry::default()
    }

    /// Every built-in rule, in stable registration order.
    pub fn builtin() -> RuleRegistry {
        RuleRegistry::new()
            .register(SingleServerRule)
            .register(SingleOperatorRule)
            .register(LameDelegationRule)
            .register(GluelessCycleRule)
            .register(DeepChainRule)
            .register(ZombieNsRule)
            .register(OrphanedGlueRule)
            .register(ChokePointRule)
            .register(TcbInflationRule)
    }

    /// Registers a rule. Panics on a duplicate id (a wiring bug).
    pub fn register(mut self, rule: impl LintRule + 'static) -> RuleRegistry {
        assert!(
            self.get(rule.id()).is_none(),
            "lint rule {:?} registered twice",
            rule.id()
        );
        self.rules.push(Box::new(rule));
        self
    }

    /// The registered rules, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn LintRule> {
        self.rules.iter().map(|r| r.as_ref())
    }

    /// The registered ids, in registration order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.id()).collect()
    }

    /// Looks a rule up by id.
    pub fn get(&self, id: &str) -> Option<&dyn LintRule> {
        self.rules.iter().find(|r| r.id() == id).map(|r| r.as_ref())
    }

    /// Number of registered rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Per-run severity overrides (`--allow/--warn/--deny RULE`), validated
/// against a registry.
#[derive(Debug, Clone, Default)]
pub struct SeverityOverrides {
    map: std::collections::BTreeMap<String, Severity>,
}

impl SeverityOverrides {
    /// No overrides: every rule keeps its default severity.
    pub fn new() -> SeverityOverrides {
        SeverityOverrides::default()
    }

    /// Overrides `rule` to `severity`; rejects unknown rule ids with a
    /// typed [`LintError`] (never panics — the CLI's usage-error path).
    pub fn set(
        &mut self,
        registry: &RuleRegistry,
        rule: &str,
        severity: Severity,
    ) -> Result<(), LintError> {
        if registry.get(rule).is_none() {
            return Err(LintError::UnknownRule {
                rule: rule.to_string(),
                known: registry.ids(),
            });
        }
        self.map.insert(rule.to_string(), severity);
        Ok(())
    }

    /// The effective severity of `rule` under these overrides.
    pub fn effective(&self, rule: &dyn LintRule) -> Severity {
        self.map
            .get(rule.id())
            .copied()
            .unwrap_or_else(|| rule.default_severity())
    }
}

/// The per-zone structural flag bits of [`crate::misconfig`], derived
/// from the lint rules' predicates — the single definition both the
/// aggregate [`crate::MisconfigMetric`] columns and the per-zone
/// diagnostics are computed from.
pub fn zone_structural_flags(universe: &Universe, zone: ZoneId) -> usize {
    if universe.zone(zone).origin.is_root() {
        return 0;
    }
    let mut flags = 0usize;
    if SingleServerRule::applies(universe, zone) {
        flags |= FLAG_SINGLE_SERVER;
    }
    if single_operator(universe, zone).is_some() {
        flags |= FLAG_SINGLE_OPERATOR;
    }
    if !unresolvable_ns(universe, zone).is_empty() {
        flags |= FLAG_UNRESOLVABLE_NS;
    }
    flags
}

// --------------------------------------------------------------------
// The built-in rules.
// --------------------------------------------------------------------

/// `single-server`: the zone is served by one nameserver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleServerRule;

impl SingleServerRule {
    /// The rule's predicate, shared with [`zone_structural_flags`] and
    /// [`ChokePointRule`]'s precheck. A zone's NS list holds each server
    /// once (the builder merges repeats, a snapshot load refuses them), so
    /// one entry is one distinct server.
    pub fn applies(universe: &Universe, zone: ZoneId) -> bool {
        universe.zone(zone).ns.len() == 1
    }
}

impl LintRule for SingleServerRule {
    fn id(&self) -> &'static str {
        "single-server"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn describe(&self) -> &'static str {
        "zone is served by a single nameserver (diminished redundancy)"
    }
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for &zid in ctx.zones {
            let zone = ctx.universe.zone(zid);
            if zone.origin.is_root() || !SingleServerRule::applies(ctx.universe, zid) {
                continue;
            }
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.default_severity(),
                subject: Subject::Zone(zid),
                message: Message::new("zone {subject} is served by a single nameserver"),
                evidence: Box::new([EvidenceStep::server(
                    zone.ns[0],
                    "the only NS of the delegation",
                )]),
            });
        }
        out
    }
}

/// `single-operator`: every NS of the zone sits under one operator
/// domain — one administrative compromise takes all of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleOperatorRule;

impl LintRule for SingleOperatorRule {
    fn id(&self) -> &'static str {
        "single-operator"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn describe(&self) -> &'static str {
        "all nameservers of the zone share one operator domain"
    }
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for &zid in ctx.zones {
            let zone = ctx.universe.zone(zid);
            if zone.origin.is_root() {
                continue;
            }
            if single_operator(ctx.universe, zid).is_none() {
                continue;
            }
            let note = Note::new("operated under {}").arg(Arg::Operator(zid));
            let evidence = zone
                .ns
                .iter()
                .map(|&sid| EvidenceStep::server(sid, note))
                .collect();
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.default_severity(),
                subject: Subject::Zone(zid),
                message: Message::new("all {} nameservers of zone {subject} sit under operator {}")
                    .arg(Arg::count(zone.ns.len()))
                    .arg(Arg::Operator(zid)),
                evidence,
            });
        }
        out
    }
}

/// `lame-delegation`: the zone's NS set names hosts no modeled zone can
/// ever supply an address for.
#[derive(Debug, Clone, Copy, Default)]
pub struct LameDelegationRule;

impl LintRule for LameDelegationRule {
    fn id(&self) -> &'static str {
        "lame-delegation"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "delegation names NS hosts resolvable nowhere in the universe"
    }
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for &zid in ctx.zones {
            let zone = ctx.universe.zone(zid);
            if zone.origin.is_root() {
                continue;
            }
            let dangling = unresolvable_ns(ctx.universe, zid);
            if dangling.is_empty() {
                continue;
            }
            let evidence = dangling
                .iter()
                .map(|&sid| {
                    EvidenceStep::server(
                        sid,
                        "no modeled zone can produce an address for this host",
                    )
                })
                .collect();
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.default_severity(),
                subject: Subject::Zone(zid),
                message: Message::new("zone {subject} delegates to {} unresolvable nameserver(s)")
                    .arg(Arg::count(dangling.len())),
                evidence,
            });
        }
        out
    }
}

/// `glueless-cycle`: the zone cannot be bootstrapped at the no-faults
/// baseline and its NS set sits on a glueless dependency cycle.
///
/// Glued/recoverable mutual-secondary webs (the paper's Figure 1) do
/// *not* fire: mutual trust is a hijack risk the closure metrics price
/// in, not an outage. This rule is about zones that are dead on arrival.
#[derive(Debug, Clone, Copy, Default)]
pub struct GluelessCycleRule;

impl LintRule for GluelessCycleRule {
    fn id(&self) -> &'static str {
        "glueless-cycle"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "zone is unbootstrappable: its NS set rides a glueless dependency cycle"
    }
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for &zid in ctx.zones {
            let zone = ctx.universe.zone(zid);
            if zone.origin.is_root() || ctx.facts.zone_reachable(zid) {
                continue;
            }
            // Evidence: the first NS that belongs to a glueless SCC, and
            // that SCC's full membership. Unreachable zones with no cycle
            // NS are the zombie/lame rules' business.
            let Some(cycle) = zone
                .ns
                .iter()
                .find_map(|&sid| ctx.facts.depths().cycle_of(sid))
            else {
                continue;
            };
            let evidence = cycle
                .iter()
                .map(|&sid| EvidenceStep::server(sid, "member of the glueless dependency cycle"))
                .collect();
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.default_severity(),
                subject: Subject::Zone(zid),
                message: Message::new(
                    "zone {subject} cannot be bootstrapped: its nameservers form a glueless cycle",
                ),
                evidence,
            });
        }
        out
    }
}

/// `deep-chain`: resolving the name can force more than
/// [`DeepChainRule::THRESHOLD`] nested glueless sub-resolutions.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeepChainRule;

/// A `deep-chain` hop: the zone the glueless NS serves, and how many
/// nesting levels resolving it can still force.
const GLUELESS_HOP: Note = Note::new("glueless NS of {} ({levels} levels below)");

impl DeepChainRule {
    /// Depth above which the rule fires — one policy with the `misconfig`
    /// metric's [`crate::misconfig::FLAG_DEEP_DEPENDENCY`] bit.
    pub const THRESHOLD: usize = 2;

    /// The rule's predicate, shared with the `misconfig` metric's
    /// [`crate::misconfig::FLAG_DEEP_DEPENDENCY`] bit.
    pub fn exceeds(depth: usize) -> bool {
        depth > DeepChainRule::THRESHOLD
    }

    /// Reconstructs one worst-case nesting path: a chain of glueless NS
    /// hops, each strictly decreasing the remaining depth. The successor
    /// always exists because the component depths were computed as
    /// `1 + max(successor depth)` over exactly these edges. The path is
    /// written into `steps`, which is cleared first; `hop_chain` is
    /// scratch space for each hop's delegation chain.
    fn worst_path(
        universe: &Universe,
        depths: &DepthIndex,
        chain: &[ZoneId],
        total: usize,
        steps: &mut Vec<EvidenceStep>,
        hop_chain: &mut Vec<ZoneId>,
    ) {
        steps.clear();
        let mut cursor: Option<ServerId> = None;
        'first: for &zid in chain {
            let zone = universe.zone(zid);
            for &sid in &zone.ns {
                let server = universe.server(sid);
                if server.is_root || server.name.is_subdomain_of(&zone.origin) {
                    continue;
                }
                if 1 + depths.depth_of_server(sid) == total {
                    steps.push(EvidenceStep::server(sid, GLUELESS_HOP.arg(Arg::Zone(zid))));
                    cursor = Some(sid);
                    break 'first;
                }
            }
        }
        while let Some(sid) = cursor {
            let want = depths.depth_of_server(sid);
            if want == 0 {
                break;
            }
            cursor = None;
            // The worst successor may hang off any member of the hop's
            // glueless SCC (cycles are one collapsed level).
            let members: &[ServerId] = depths.cycle_of(sid).unwrap_or(std::slice::from_ref(&sid));
            'next: for &member in members {
                universe.server_chain_into(member, hop_chain);
                for &zid in hop_chain.iter() {
                    let zone = universe.zone(zid);
                    for &dep in &zone.ns {
                        let dep_server = universe.server(dep);
                        if dep_server.is_root || dep_server.name.is_subdomain_of(&zone.origin) {
                            continue;
                        }
                        if 1 + depths.depth_of_server(dep) == want {
                            steps.push(EvidenceStep::server(dep, GLUELESS_HOP.arg(Arg::Zone(zid))));
                            cursor = Some(dep);
                            break 'next;
                        }
                    }
                }
            }
        }
    }
}

impl LintRule for DeepChainRule {
    fn id(&self) -> &'static str {
        "deep-chain"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn describe(&self) -> &'static str {
        "resolving the name forces deeply nested glueless sub-resolutions"
    }
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
        // Only the name's own chain matters here, not its closure.
        let mut out = Vec::new();
        let mut chain = Vec::new();
        let mut hop_chain = Vec::new();
        let mut steps = Vec::new();
        for (i, name) in ctx.names.iter().enumerate() {
            ctx.universe.chain_zones_into(name, &mut chain);
            let depth = ctx.facts.depths().depth_of_chain(ctx.universe, &chain);
            if !DeepChainRule::exceeds(depth) {
                continue;
            }
            DeepChainRule::worst_path(
                ctx.universe,
                ctx.facts.depths(),
                &chain,
                depth,
                &mut steps,
                &mut hop_chain,
            );
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.default_severity(),
                subject: Subject::name_at(i),
                message: Message::new(
                    "resolving {subject} can force {} nested glueless sub-resolutions (threshold {})",
                )
                .arg(Arg::count(depth))
                .arg(Arg::count(DeepChainRule::THRESHOLD)),
                evidence: steps.as_slice().into(),
            });
        }
        out
    }
}

/// `zombie-ns`: every NS host of the zone is dead — the delegation
/// exists but can never be followed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZombieNsRule;

impl LintRule for ZombieNsRule {
    fn id(&self) -> &'static str {
        "zombie-ns"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "every NS host of the zone is dead (zombie delegation)"
    }
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for &zid in ctx.zones {
            if !ctx.facts.zombies().is_zombie(zid) {
                continue;
            }
            let zone = ctx.universe.zone(zid);
            let evidence = zone
                .ns
                .iter()
                .map(|&sid| {
                    EvidenceStep::server(sid, "dead: its namespace branch has no modeled home zone")
                })
                .collect();
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.default_severity(),
                subject: Subject::Zone(zid),
                message: Message::new(
                    "zone {subject} is a zombie delegation: all {} NS hosts are dead",
                )
                .arg(Arg::count(zone.ns.len())),
                evidence,
            });
        }
        out
    }
}

/// `orphaned-glue`: a non-root server interned from delegation events
/// that no surviving zone references — stale parent-side records whose
/// child delegation has vanished.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrphanedGlueRule;

impl LintRule for OrphanedGlueRule {
    fn id(&self) -> &'static str {
        "orphaned-glue"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn describe(&self) -> &'static str {
        "server is referenced by no zone's NS set (stale parent-side records)"
    }
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for &sid in ctx.servers {
            let server = ctx.universe.server(sid);
            if server.is_root || ctx.facts.is_referenced(sid) {
                continue;
            }
            let evidence = ctx
                .universe
                .home_zone_of(sid)
                .map(|home| EvidenceStep {
                    at: At::Zone(home),
                    note: Note::new("deepest zone enclosing the orphan"),
                })
                .into_iter()
                .collect();
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.default_severity(),
                subject: Subject::Server(sid),
                message: Message::new(
                    "server {subject} was seen in delegation records but no zone's NS set references it",
                ),
                evidence,
            });
        }
        out
    }
}

/// `choke-point`: the name's flattened delegation graph has a minimum
/// vertex cut of exactly one server — a single machine sits on every
/// resolution path. The evidence is that server, then the other servers
/// of one root→target path through it: of the shortest such paths, the
/// least by server id ([`choke_witness`]), so it names the same hops
/// whatever order the delegation data came in.
///
/// The rule cuts only a name that can have a one-server cut. In the hub
/// network of a name with chain `z₁…z_k` (root excluded), the source
/// feeds every NS of `z₁`, each zone's hub feeds every NS of the next
/// zone, and the last hub feeds the target. A zone with no NS adds no
/// layer. So if every chain zone with servers has at least two distinct
/// ones, a path can take a server other than any given `d` at every
/// layer, and `{d}` cuts nothing. A one-server cut is therefore always
/// the lone NS of a [`SingleServerRule`] zone on the name's own chain;
/// a name with no such zone is skipped after one [`Universe::zone_of`]
/// and a parent walk, with no closure and no max-flow. The lemma needs
/// the index to hold every chain zone's NS in the closure, which a
/// built index does; `one_server_cuts_sit_on_single_server_zones` in
/// `perils-core`'s property tests checks it on every zone of every test
/// world.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChokePointRule;

impl LintRule for ChokePointRule {
    fn id(&self) -> &'static str {
        "choke-point"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn describe(&self) -> &'static str {
        "one server sits on every resolution path (closure min-cut = 1)"
    }
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut steps = Vec::new();
        let universe = ctx.universe;
        let may_choke = |zone| {
            universe
                .chain_up(zone)
                .any(|z| SingleServerRule::applies(universe, z))
        };
        ctx.for_each_closure_under(may_choke, |subject, view| {
            let Some(cut) = min_cut_flattened_view(ctx.universe, ctx.index, view) else {
                return;
            };
            if cut.size() != 1 {
                return;
            }
            let choke = cut.servers[0];
            let server = ctx.universe.server(choke);
            steps.clear();
            steps.push(EvidenceStep::server(
                choke,
                if server.vulnerable {
                    "the minimum vertex cut, alone — and it is vulnerable"
                } else {
                    "the minimum vertex cut, alone"
                },
            ));
            // Witness: the least shortest root→target path through the
            // cut, its servers in resolution order.
            for sid in choke_witness(ctx.universe, view, choke) {
                if sid != choke {
                    steps.push(EvidenceStep::server(
                        sid,
                        "on the witness resolution path through the choke point",
                    ));
                }
            }
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.default_severity(),
                subject,
                message: Message::new("every resolution path for {subject} passes through {}")
                    .arg(Arg::Server(choke)),
                evidence: steps.as_slice().into(),
            });
        });
        out
    }
}

/// `tcb-inflation`: the name's trusted computing base dwarfs its own
/// delegated NS set — transitive trust has quietly multiplied the attack
/// surface (the paper's headline phenomenon, per name).
#[derive(Debug, Clone, Copy, Default)]
pub struct TcbInflationRule;

impl TcbInflationRule {
    /// Fires when `tcb >= FACTOR × own NS count` ...
    pub const FACTOR: usize = 3;
    /// ... and `tcb >= own NS count + SLACK` (both must hold).
    pub const SLACK: usize = 4;
}

/// How many transitive evidence servers `tcb-inflation` lists before
/// summarizing the rest in the message.
const TCB_EVIDENCE_CAP: usize = 6;

impl LintRule for TcbInflationRule {
    fn id(&self) -> &'static str {
        "tcb-inflation"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn describe(&self) -> &'static str {
        "trusted computing base far exceeds the delegated NS set"
    }
    fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut steps = Vec::new();
        ctx.for_each_closure(|subject, view| {
            let Some(&own_zone) = view.target_chain().last() else {
                return;
            };
            let own_ns = &ctx.universe.zone(own_zone).ns;
            let k = own_ns.len();
            if k == 0 {
                return;
            }
            let tcb = view.tcb_size(ctx.universe);
            if tcb < (TcbInflationRule::FACTOR * k).max(k + TcbInflationRule::SLACK) {
                return;
            }
            let note = Note::new("delegated NS of {}").arg(Arg::Zone(own_zone));
            steps.clear();
            steps.extend(own_ns.iter().map(|&sid| EvidenceStep::server(sid, note)));
            let mut listed = 0usize;
            for sid in view.servers() {
                if ctx.universe.server(sid).is_root || own_ns.contains(&sid) {
                    continue;
                }
                if listed < TCB_EVIDENCE_CAP {
                    steps.push(EvidenceStep::server(
                        sid,
                        "transitively trusted for some NS address",
                    ));
                }
                listed += 1;
            }
            out.push(Diagnostic {
                rule: self.id(),
                severity: self.default_severity(),
                subject,
                message: Message::new(
                    "{subject} trusts {} servers but delegates to only {} ({} transitive)",
                )
                .arg(Arg::count(tcb))
                .arg(Arg::count(k))
                .arg(Arg::count(tcb.saturating_sub(k))),
                evidence: steps.as_slice().into(),
            });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::name::name;

    /// root + com/net plus one instance of every pathology.
    fn pathological_universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        // single-server
        b.add_zone(&name("solo.com"), &[name("ns1.solo.com")]);
        // single-operator
        b.add_zone(
            &name("corr.com"),
            &[name("ns1.prov.net"), name("ns2.prov.net")],
        );
        b.add_zone(
            &name("prov.net"),
            &[name("ns1.prov.net"), name("ns2.prov.net")],
        );
        // lame-delegation (one of two dangling)
        b.add_zone(
            &name("dangling.com"),
            &[name("ns.ghost.zz"), name("ns1.dangling.com")],
        );
        // glueless-cycle
        b.add_zone(&name("x.com"), &[name("ns.y.com")]);
        b.add_zone(&name("y.com"), &[name("ns.x.com")]);
        // zombie-ns
        b.add_zone(
            &name("stale.com"),
            &[name("ns1.gone.zz"), name("ns2.gone.zz")],
        );
        // deep-chain: victim → a.net → b.net → c.net (glued stop)
        b.add_zone(&name("victim.com"), &[name("ns.a.net")]);
        b.add_zone(&name("a.net"), &[name("ns.b.net")]);
        b.add_zone(&name("b.net"), &[name("ns.c.net")]);
        b.add_zone(&name("c.net"), &[name("ns.c.net")]);
        // orphaned-glue: a server event nothing references
        b.raw_server(&name("ns.fedworld.zz"), false, false);
        b.finish()
    }

    /// Every built-in rule over one ctx spanning the whole universe.
    fn lint_all(universe: &Universe, names: &[DnsName]) -> Vec<Diagnostic> {
        let index = DependencyIndex::build(universe);
        let facts = LintIndex::build(universe);
        let zones: Vec<ZoneId> = universe.zone_ids().collect();
        let servers: Vec<ServerId> = universe.server_ids().collect();
        let ctx = LintCtx {
            universe,
            index: &index,
            facts: &facts,
            zones: &zones,
            servers: &servers,
            names,
        };
        let registry = RuleRegistry::builtin();
        registry.iter().flat_map(|rule| rule.check(&ctx)).collect()
    }

    fn rules_fired(diags: &[Diagnostic]) -> BTreeSet<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn every_builtin_rule_fires_on_the_pathological_universe() {
        let u = pathological_universe();
        let names = vec![name("www.victim.com"), name("www.solo.com")];
        let diags = lint_all(&u, &names);
        let fired = rules_fired(&diags);
        for id in RuleRegistry::builtin().ids() {
            if id == "tcb-inflation" {
                continue; // needs a fatter closure; covered below
            }
            assert!(fired.contains(id), "rule {id} never fired: {diags:#?}");
        }
    }

    #[test]
    fn evidence_chains_name_the_proving_servers() {
        let u = pathological_universe();
        let diags = lint_all(&u, &[name("www.victim.com")]);

        let cycle = diags
            .iter()
            .find(|d| d.rule == "glueless-cycle")
            .expect("cycle diagnostic");
        let at = |e: &EvidenceStep| e.at.name(&u).to_string();
        let members: Vec<String> = cycle.evidence.iter().map(at).collect();
        // Ascending interning order: x.com's NS (ns.y.com) was seen first.
        assert_eq!(members, vec!["ns.y.com", "ns.x.com"]);

        let lame = diags
            .iter()
            .find(|d| {
                d.rule == "lame-delegation" && d.subject.name(&u, &[]) == &name("dangling.com")
            })
            .expect("lame diagnostic");
        assert_eq!(lame.evidence.len(), 1);
        assert_eq!(lame.evidence[0].at.name(&u), &name("ns.ghost.zz"));

        let deep = diags
            .iter()
            .find(|d| d.rule == "deep-chain")
            .expect("deep diagnostic");
        assert_eq!(deep.subject, Subject::Name(0));
        // The worst path walks the actual nesting: a.net's NS then b.net's.
        let hops: Vec<String> = deep.evidence.iter().map(at).collect();
        assert_eq!(hops, vec!["ns.a.net", "ns.b.net", "ns.c.net"]);

        let orphan = diags
            .iter()
            .find(|d| d.rule == "orphaned-glue")
            .expect("orphan diagnostic");
        let fedworld = u.server_id(&name("ns.fedworld.zz")).unwrap();
        assert_eq!(orphan.subject, Subject::Server(fedworld));
        let home = u.home_zone_of(fedworld);
        let at: Vec<At> = orphan.evidence.iter().map(|e| e.at).collect();
        assert_eq!(at, home.map(At::Zone).into_iter().collect::<Vec<_>>());
    }

    /// Evidence is the bulk of a world-scale report: a step stays an id
    /// plus a note, a subject an id or a name index, and a finding ids,
    /// a typed message and an exact-length evidence slice. (That fixed
    /// notes stay borrowed is pinned on the tripwire world, which trips
    /// every rule, in `lint_golden.rs`.)
    #[test]
    fn evidence_steps_stay_small() {
        assert!(std::mem::size_of::<EvidenceStep>() <= 32);
        assert!(std::mem::size_of::<Subject>() <= 8);
        assert!(std::mem::size_of::<Diagnostic>() <= 88);
    }

    #[test]
    fn choke_point_reports_the_cut_and_a_witness_path() {
        let u = pathological_universe();
        let diags = lint_all(&u, &[name("www.victim.com")]);
        let choke = diags
            .iter()
            .find(|d| d.rule == "choke-point")
            .expect("choke diagnostic");
        // Every resolution of www.victim.com funnels through ns.a.net's
        // singleton layer (or deeper); whichever the min-cut picks, the
        // evidence names a real server and a path.
        assert!(!choke.evidence.is_empty());
        assert!(matches!(choke.evidence[0].at, At::Server(_)));
        assert!(u.server_id(choke.evidence[0].at.name(&u)).is_some());
    }

    #[test]
    fn a_host_named_twice_is_one_server() {
        // One cut names the same host in two spellings: the zone has one
        // NS, so `single-server` speaks for it and `single-operator`,
        // which needs two servers, does not.
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.apply_zone_event(perils_dns::zone::ZoneEvent::Cut {
            zone: name("d0.com"),
            ns: vec![name("ns.d0.com"), name("NS.d0.com")],
        });
        let u = b.finish();
        let d0 = u.zone_id(&name("d0.com")).unwrap();
        assert_eq!(u.zone(d0).ns.len(), 1);
        let names = [name("www.d0.com")];
        let diags = lint_all(&u, &names);
        let on_d0: BTreeSet<&str> = diags
            .iter()
            .filter(|d| d.subject == Subject::Zone(d0))
            .map(|d| d.rule)
            .collect();
        assert_eq!(on_d0, BTreeSet::from(["single-server"]), "{diags:#?}");
        let choke = diags
            .iter()
            .find(|d| d.rule == "choke-point")
            .expect("the lone NS is the cut");
        assert_eq!(choke.evidence[0].at, At::Server(u.zone(d0).ns[0]));
    }

    #[test]
    fn tcb_inflation_fires_on_fat_closures() {
        // fat.com delegates to one NS whose address rides a 4-deep chain.
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b.add_zone(&name("fat.com"), &[name("ns.b1.net")]);
        b.add_zone(&name("b1.net"), &[name("ns.b2.net")]);
        b.add_zone(&name("b2.net"), &[name("ns.b3.net")]);
        b.add_zone(&name("b3.net"), &[name("ns.b4.net")]);
        b.add_zone(&name("b4.net"), &[name("ns.b5.net")]);
        b.add_zone(&name("b5.net"), &[name("ns.b5.net")]);
        let u = b.finish();
        let diags = lint_all(&u, &[name("www.fat.com")]);
        let inflation = diags
            .iter()
            .find(|d| d.rule == "tcb-inflation")
            .expect("inflation fires: tcb 5 vs 1 NS meets max(3*1, 1+4)");
        assert_eq!(inflation.subject, Subject::Name(0));
        assert!(inflation
            .evidence
            .iter()
            .any(|e| e.at.name(&u) == &name("ns.b5.net")));
    }

    #[test]
    fn healthy_zones_stay_clean() {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b.add_zone(
            &name("ok.com"),
            &[name("ns1.ok.com"), name("ns2.other.net")],
        );
        b.add_zone(
            &name("other.net"),
            &[name("ns1.other.net"), name("ns2.other.net")],
        );
        let u = b.finish();
        let names = [name("www.ok.com")];
        let diags = lint_all(&u, &names);
        assert!(
            diags
                .iter()
                .all(|d| d.subject.name(&u, &names) != &name("ok.com")
                    || d.rule == "choke-point"
                    || d.rule == "tcb-inflation"),
            "no structural finding against ok.com: {diags:#?}"
        );
        assert!(!rules_fired(&diags).contains("lame-delegation"));
        assert!(!rules_fired(&diags).contains("zombie-ns"));
        assert!(!rules_fired(&diags).contains("glueless-cycle"));
    }

    #[test]
    fn structural_flags_match_the_rule_predicates() {
        let u = pathological_universe();
        use crate::misconfig::{FLAG_SINGLE_OPERATOR, FLAG_SINGLE_SERVER, FLAG_UNRESOLVABLE_NS};
        let solo = u.zone_id(&name("solo.com")).unwrap();
        assert_eq!(zone_structural_flags(&u, solo), FLAG_SINGLE_SERVER);
        let corr = u.zone_id(&name("corr.com")).unwrap();
        assert_eq!(zone_structural_flags(&u, corr), FLAG_SINGLE_OPERATOR);
        let dangling = u.zone_id(&name("dangling.com")).unwrap();
        assert_eq!(zone_structural_flags(&u, dangling), FLAG_UNRESOLVABLE_NS);
        let root = u.zone_id(&DnsName::root()).unwrap();
        assert_eq!(
            zone_structural_flags(&u, root),
            0,
            "root zones carry no flags"
        );
    }

    #[test]
    fn registry_rejects_duplicates_and_overrides_validate() {
        let registry = RuleRegistry::builtin();
        assert_eq!(registry.len(), 9);
        assert!(registry.get("choke-point").is_some());

        let mut overrides = SeverityOverrides::new();
        overrides
            .set(&registry, "lame-delegation", Severity::Allow)
            .expect("known rule");
        let err = overrides
            .set(&registry, "no-such-rule", Severity::Deny)
            .expect_err("unknown rule is a typed error");
        assert!(matches!(err, LintError::UnknownRule { .. }));
        assert!(err.to_string().contains("no-such-rule"));

        let lame = registry.get("lame-delegation").unwrap();
        assert_eq!(overrides.effective(lame), Severity::Allow);
        let zombie = registry.get("zombie-ns").unwrap();
        assert_eq!(overrides.effective(zombie), Severity::Deny);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_rule_id_panics() {
        let _ = RuleRegistry::new()
            .register(SingleServerRule)
            .register(SingleServerRule);
    }
}
