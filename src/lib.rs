//! # perils — Perils of Transitive Trust in the Domain Name System
//!
//! Facade crate for the reproduction of Ramasubramanian & Sirer's IMC 2005
//! paper. It re-exports every workspace crate under one roof so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`dns`] — names, records, messages (values, never bytes), zones, the
//!   zone registry and the streaming zone-file reader.
//! * [`graph`] — the algorithms the index and the min-cut run on: bitsets,
//!   Tarjan SCC over implicit adjacency, and Dinic max-flow networks.
//! * [`vulndb`] — BIND versions and the ISC advisory matrix.
//! * [`netsim`] — deterministic simulated internet with fault injection.
//! * [`authserver`] — authoritative nameserver behaviour.
//! * [`resolver`] — iterative resolution with delegation-chain traces.
//! * [`core`] — the paper's contribution: TCBs, hijack min-cuts, value
//!   ranking, attack simulation, and the pluggable [`core::NameMetric`]
//!   measurement API.
//! * [`survey`] — topology generation, the analysis engine (a
//!   [`survey::WorldSource`] — synthetic, packet-scenario or wire-probed —
//!   plus registered metrics, run in one sharded deterministic pass), and
//!   the rendering pipeline ([`survey::Figure`] + [`survey::FigureRegistry`]
//!   + [`survey::ReportSink`]).
//! * [`service`] — the `perilsd` daemon: a warm [`service::WorldSnapshot`]
//!   behind an atomically swappable store, per-name queries over HTTP,
//!   reloads that never block readers, and a Prometheus metrics plane
//!   (see OBSERVABILITY.md).
//! * [`util`] — deterministic RNG, distributions, statistics, tables.
//!
//! ## Quickstart: run the classic survey
//!
//! The engine runs a set of per-name metrics over a world. The built-in
//! metrics reproduce the paper's six measurements; `with_extended_metrics`
//! adds the misconfiguration-audit columns:
//!
//! ```
//! use perils::core::metric::columns;
//! use perils::survey::{Engine, SyntheticSource, TopologyParams};
//!
//! let engine = Engine::with_extended_metrics();
//! let report = engine.run(SyntheticSource { params: TopologyParams::tiny(1) });
//! // Columnar access, typed: a missing or mistyped column is an error.
//! let tcb = report.try_counts(columns::TCB_SIZE).unwrap();
//! assert_eq!(tcb.len(), report.world.names.len());
//! assert!(report.try_value_column(columns::VALUE).unwrap().names_seen() > 0);
//! let depth = report.try_counts(columns::MISCONFIG_DEPTH).unwrap();
//! assert_eq!(depth.len(), tcb.len());
//! ```
//!
//! The paper's six measurements alone are `with_builtin_metrics`, and
//! each figure is a fallible constructor over the report's columns:
//!
//! ```
//! use perils::survey::figures::Fig2;
//! use perils::survey::{Engine, SyntheticSource, TopologyParams};
//!
//! let report =
//!     Engine::with_builtin_metrics().run(SyntheticSource { params: TopologyParams::tiny(1) });
//! let fig2 = Fig2::from_report(&report).expect("TCB column present");
//! assert!(fig2.render().contains("Figure 2"));
//! ```
//!
//! ## Registering a custom metric *and its figure*
//!
//! Any per-name measurement plugs into the same sharded pass — the
//! dependency closure is computed once per deepest zone, shared with every
//! registered metric as a borrowed [`core::ClosureView`], the one closure
//! type, and each zone's row is gathered back to every name under it. A
//! metric is one `impl`: it declares typed columns, and its
//! [`core::NameMetric::prepare`] returns the closure that writes one
//! [`core::Row`] per zone into columns the engine owns. A measurement's *renderer* plugs in the same way:
//! a [`survey::Figure`] declares the column ids it needs (the
//! column-schema contract on [`core::MetricColumn`]: every id a metric
//! declares maps to exactly one column of a stable
//! [`core::ColumnKind`]), and the [`survey::FigureRegistry`] checks that
//! schema before building, so a figure whose metric is missing is a
//! typed skip — never a panic:
//!
//! ```
//! use perils::core::metric::{ColumnKind, Measure, NameMetric};
//! use perils::core::universe::Universe;
//! use perils::survey::render::{Figure, FigureError, FigureRegistry, RenderedFigure};
//! use perils::survey::{Engine, SurveyReport, SyntheticSource, TopologyParams};
//! use perils::util::table::Table;
//!
//! /// Counts how many *zones* each name's resolution can touch.
//! struct ZoneCountMetric;
//!
//! impl NameMetric for ZoneCountMetric {
//!     fn id(&self) -> &str { "zone_count" }
//!     fn columns(&self) -> Vec<(&str, ColumnKind)> { vec![("zone_count", ColumnKind::Counts)] }
//!     fn prepare<'a>(&'a self, _u: &'a Universe) -> Measure<'a> {
//!         Box::new(|ctx, row| row.count(ctx.closure.zone_count()))
//!     }
//! }
//!
//! /// The matching renderer: required columns declared, access typed.
//! struct ZoneCountFigure;
//!
//! impl Figure for ZoneCountFigure {
//!     fn id(&self) -> &str { "zone_count" }
//!     fn title(&self) -> &str { "Zones touched per name" }
//!     fn required_columns(&self) -> &[&str] { &["zone_count"] }
//!     fn build(&self, report: &SurveyReport) -> Result<RenderedFigure, FigureError> {
//!         let counts = report.try_counts("zone_count")?; // typed, no panic
//!         let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
//!         let mut data = Table::new(vec!["statistic", "value"]);
//!         data.row(vec!["mean zones per name".to_string(), format!("{mean:.1}")]);
//!         let text = format!("{}\nmean zones per name: {mean:.1}\n", self.title());
//!         Ok(RenderedFigure::new(self.id(), self.title(), text, data))
//!     }
//! }
//!
//! // Register the pair; the engine and registry need no other changes.
//! let report = Engine::with_builtin_metrics()
//!     .register(ZoneCountMetric)
//!     .run(SyntheticSource { params: TopologyParams::tiny(7) });
//! let registry = FigureRegistry::classic().register(ZoneCountFigure);
//!
//! // The classic nine and the custom figure all render...
//! let outcomes = registry.build_all(&report);
//! assert!(outcomes.iter().all(|o| o.rendered().is_some()));
//! let custom = registry.build("zone_count", &report).unwrap();
//! assert!(custom.text().contains("mean zones per name"));
//! assert!(custom.json().starts_with("{\"id\":\"zone_count\""));
//!
//! // ...and on a report missing the metric, the figure skips (typed).
//! let bare = Engine::with_builtin_metrics()
//!     .run(SyntheticSource { params: TopologyParams::tiny(7) });
//! assert!(matches!(
//!     registry.build("zone_count", &bare),
//!     Err(FigureError::MissingColumns { .. })
//! ));
//! ```
//!
//! ## Analyzing hand-built and wire-probed worlds
//!
//! Packet-level scenarios (the paper's fbi.gov case study, Figure 1) and
//! resolver-probed dependency reports run through the **same** engine via
//! [`survey::ScenarioSource`] and [`survey::ProbedSource`]:
//!
//! ```
//! use perils::authserver::scenarios::fbi_case;
//! use perils::dns::name::name;
//! use perils::survey::{Engine, ScenarioSource};
//!
//! let scenario = fbi_case();
//! let report = Engine::with_builtin_metrics().run(ScenarioSource {
//!     scenario: &scenario,
//!     targets: vec![name("www.fbi.gov")],
//! });
//! // Two machines suffice to take fbi.gov offline (§3.2).
//! assert_eq!(report.try_counts("cut_size").unwrap(), [2]);
//! ```
//!
//! ## Streaming ingestion: bounded-memory universe building
//!
//! Worlds enter the engine as **streams**, not materialized blobs: every
//! [`survey::WorldSource`] emits a [`survey::WorldStream`] — incremental
//! [`core::UniverseEvent`]s followed by the surveyed names — and
//! `perils_core`'s [`core::UniverseBuilder`] interns zones and servers
//! as events arrive, merging NS-set fragments and fixing up servers
//! first seen as bare NS references. Parent and home-zone links are
//! derived once, from the final zone set, when the builder finishes;
//! glue records carry addresses, which the universe does not model, so
//! they intern nothing. Peak memory is set by the *universe*, not the
//! feed, and real zone-file data plugs straight in through
//! [`dns::master::ZoneFileEvents`]:
//!
//! ```
//! use perils::core::universe::Universe;
//! use perils::dns::master::ZoneFileEvents;
//! use perils::dns::name::name;
//!
//! // A zone file streams delegation events record by record (no Zone,
//! // no registry, no SOA requirement — one event per NS/A record)...
//! let file = "\
//! $ORIGIN example.com.
//! ns1  IN A 10.0.0.1      ; glue: an address, not structure
//! www  IN A 10.0.0.2      ; an address no NS record names
//! @    IN NS ns1.example.com.
//! @    IN NS ns2.example.com.
//! sub  IN NS ns.sub.example.com.
//! ";
//! let mut builder = Universe::builder();
//! for event in ZoneFileEvents::new(file, &name(".")) {
//!     builder.apply_zone_event(event.unwrap());
//! }
//! let universe = builder.finish();
//! assert_eq!(universe.zone_count(), 2); // example.com + sub.example.com
//! // Glue interns no zone and no server: the servers are the three NS
//! // targets, and www.example.com is not among them.
//! assert_eq!(universe.server_count(), 3);
//! assert_eq!(universe.server_id(&name("www.example.com")), None);
//! ```
//!
//! ## Linting a universe: custom rules, evidence chains, SARIF
//!
//! The lint engine ([`core::lint`]) turns the paper's misconfiguration
//! taxonomy into per-subject diagnostics with evidence chains. A custom
//! [`core::LintRule`] registers next to the nine built-ins and flows
//! through the sharded runner — over a built [`survey::World`], the value
//! the `lint` binary holds — and every sink (text/JSON/SARIF) unchanged,
//! all through public APIs. A finding holds ids and `'static` templates,
//! never text: sinks write the words as they write the finding:
//!
//! ```
//! use perils::core::lint::{
//!     Arg, At, Diagnostic, EvidenceStep, LintCtx, LintRule, Message, RuleRegistry, Severity,
//!     SeverityOverrides, Subject,
//! };
//! use perils::dns::name::name;
//! use perils::survey::lint::{run_lint, LintFormat};
//! use perils::survey::WorldSpec;
//!
//! /// Flags zones served by software with known exploits (§3.1).
//! struct VulnerableNsRule;
//!
//! impl LintRule for VulnerableNsRule {
//!     fn id(&self) -> &'static str { "vulnerable-ns" }
//!     fn default_severity(&self) -> Severity { Severity::Warn }
//!     fn describe(&self) -> &'static str {
//!         "zone is served by software with known exploits"
//!     }
//!     fn check(&self, ctx: &LintCtx<'_>) -> Vec<Diagnostic> {
//!         let mut out = Vec::new();
//!         for &zid in ctx.zones {
//!             let zone = ctx.universe.zone(zid);
//!             let exploitable: Vec<_> = zone.ns.iter().copied()
//!                 .filter(|&sid| ctx.universe.server(sid).vulnerable)
//!                 .collect();
//!             if zone.origin.is_root() || exploitable.is_empty() { continue; }
//!             out.push(Diagnostic {
//!                 rule: self.id(),
//!                 severity: self.default_severity(),
//!                 subject: Subject::Zone(zid),
//!                 message: Message::new(
//!                     "zone {subject} is served by {} exploitable nameserver(s)",
//!                 )
//!                 .arg(Arg::count(exploitable.len())),
//!                 // Evidence points at servers by id; sinks resolve
//!                 // the names when they write them.
//!                 evidence: exploitable.iter().map(|&sid| EvidenceStep {
//!                     at: At::Server(sid),
//!                     note: "runs software with known exploits".into(),
//!                 }).collect(),
//!             });
//!         }
//!         out
//!     }
//! }
//!
//! let registry = RuleRegistry::builtin().register(VulnerableNsRule);
//! let world = WorldSpec::Fbi.build(None);
//! let report = run_lint(&world, &registry, &SeverityOverrides::new(), None);
//! // The custom rule names the paper's BIND 8.2.4 box...
//! let finding = report.diagnostics.iter()
//!     .find(|d| d.rule == "vulnerable-ns").unwrap();
//! assert!(finding.evidence.iter()
//!     .any(|e| e.at.name(&world.universe) == &name("reston-ns2.telemail.net")));
//! // ...and serializes through every sink like any built-in, including
//! // the SARIF rule listing.
//! assert!(report.emit(LintFormat::Sarif).contains("\"vulnerable-ns\""));
//! assert!(report.emit(LintFormat::Text)
//!     .contains("zone telemail.net is served by 1 exploitable nameserver(s)"));
//!
//! // Severity overrides are validated: unknown ids are typed errors,
//! // the figures-CLI error contract (`bin/lint` exits 2 on them).
//! let mut overrides = SeverityOverrides::new();
//! assert!(overrides.set(&registry, "no-such-rule", Severity::Deny).is_err());
//! ```

#![forbid(unsafe_code)]

pub use perils_authserver as authserver;
pub use perils_core as core;
pub use perils_dns as dns;
pub use perils_graph as graph;
pub use perils_netsim as netsim;
pub use perils_resolver as resolver;
pub use perils_service as service;
pub use perils_survey as survey;
pub use perils_util as util;
pub use perils_vulndb as vulndb;
