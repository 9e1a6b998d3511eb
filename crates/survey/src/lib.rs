//! The survey harness: synthetic internet generation, the parallel survey
//! engine, and per-figure analysis pipelines.
//!
//! The paper crawled Yahoo!/DMOZ for 593,160 web-server names, resolved
//! them against the live July-2004 DNS, and analyzed the recorded
//! delegation structure. This crate substitutes the live Internet with a
//! parameterized synthetic universe whose *generative mechanisms* mirror
//! the ones the paper identifies:
//!
//! * gTLD registries run well-maintained multi-server clusters;
//! * most second-level domains are hosted by a Zipf-popular ISP/registrar
//!   pool (concentration → Figure 8's heavy tail);
//! * universities and volunteer operators host zones for each other,
//!   forming transitive webs (→ Figure 1-style chains, heavy TCB tails);
//! * many ccTLDs slave their zones across a worldwide volunteer pool
//!   (→ Figure 4's enormous country TCBs);
//! * software versions are assigned per *operator*, not per box, so
//!   vulnerability is correlated within an NS set (→ Figure 7's 30%
//!   fully-vulnerable min-cuts from only 17% vulnerable servers).
//!
//! Modules: [`params`] (presets), [`topology`] (the generator),
//! [`engine`] (the pluggable analysis engine: [`engine::WorldSource`] +
//! registered [`perils_core::NameMetric`]s → columnar
//! [`engine::SurveyReport`]), [`render`] (the pluggable output pipeline:
//! [`render::Figure`] + [`render::FigureRegistry`] + [`render::ReportSink`]),
//! [`figures`] (the paper's figure renderers, registered on that pipeline),
//! [`scenario`] (bridging hand-built packet-level scenarios into analyses),
//! [`world`] (the named worlds `--world` resolves to).
//!
//! Ingestion is **streaming**: every [`engine::WorldSource`] emits an
//! [`engine::WorldStream`] — incremental [`perils_core::UniverseEvent`]s
//! followed by a name stream — which the engine feeds through
//! `perils_core`'s incremental universe builder, so the event feed is
//! never held in memory whole. Materialized loading
//! ([`engine::WorldSource::load`]) is a thin collector over the stream,
//! and a synthetic world exists only as a plan until it is streamed (or,
//! for the wire cross-check, built as packets by
//! [`engine::SyntheticSource::scenario`]).

#![forbid(unsafe_code)]

pub mod engine;
pub mod figures;
pub mod lint;
pub mod params;
pub mod render;
pub mod scenario;
pub mod snapshot;
pub mod topology;
pub mod world;

pub use engine::{
    AnalysisWorld, Engine, ProbedSource, ReportError, ScenarioSource, SurveyReport,
    SyntheticSource, WorldSource, WorldStream,
};
pub use lint::{run_lint, run_lint_with, LintFormat, LintReport, RuleMeta};
pub use params::TopologyParams;
pub use render::{
    DirectorySink, Figure, FigureError, FigureOutcome, FigureRegistry, RenderedFigure, ReportSink,
    SinkFormat, StreamingCsvSink, WriterSink,
};
pub use snapshot::{load_world_with, save_world, NameTable, SnapshotBackend, World};
pub use world::{FigureSweep, WorldSpec};
