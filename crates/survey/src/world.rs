//! Named worlds and the one world build.
//!
//! `lint --world` and `perilsd --world` accept the same names — a
//! synthetic scale from [`TopologyParams::preset`] or one of the three
//! hand-built scenarios — and [`WorldSpec`] turns a name into a
//! [`WorldStream`] through the ordinary [`WorldSource`]s (`figures
//! --scale` resolves to [`WorldSpec::Synthetic`]).
//!
//! [`WorldSpec::build`] is the one way a binary makes a [`World`]: it
//! writes the world's `.psa` archive section by section into one buffer
//! and opens it through the decoder every archive on disk goes through,
//! so `figures`, `lint` and `perilsd` hold the same value whether they
//! built it or loaded it.

use crate::engine::{
    Engine, ScenarioSource, SurveyReport, SyntheticSource, WorldSource, WorldStream,
};
use crate::params::TopologyParams;
use crate::snapshot::{load_world_bytes, write_world, World};
use perils_authserver::scenarios::{
    cornell_figure1, fbi_case, lint_tripwire, lint_tripwire_targets,
};
use perils_core::{DependencyIndex, LintIndex};
use perils_dns::name::name;

/// A figure sweep [`WorldSpec::build`] runs over the built index before
/// it writes any section: the engine surveys the world, and the function
/// renders the report into the `FIGURES` JSON plus its figure count.
pub type FigureSweep<'a> = (&'a Engine, &'a dyn Fn(&SurveyReport) -> (String, usize));

/// A named world. The daemon keeps its spec so `POST /reload` can
/// rebuild the same world (optionally reseeded) from scratch.
#[derive(Debug, Clone)]
pub enum WorldSpec {
    /// A seeded synthetic survey world.
    Synthetic(TopologyParams),
    /// The fbi.gov case study (packet-level scenario).
    Fbi,
    /// The Figure 1 cornell.edu web.
    Cornell,
    /// The all-pathologies lint fixture.
    Tripwire,
}

impl WorldSpec {
    /// Parses a `--world` argument. Synthetic scales take the seed;
    /// scenario worlds ignore it.
    pub fn parse(world: &str, seed: u64) -> Result<WorldSpec, String> {
        match world {
            "fbi" => Ok(WorldSpec::Fbi),
            "cornell" => Ok(WorldSpec::Cornell),
            "tripwire" => Ok(WorldSpec::Tripwire),
            scale => TopologyParams::preset(scale, seed)
                .map(WorldSpec::Synthetic)
                .ok_or_else(|| {
                    format!(
                        "unknown world {scale:?} ({}|fbi|cornell|tripwire)",
                        TopologyParams::PRESETS
                    )
                }),
        }
    }

    /// One-line description for boot/reload logging.
    pub fn describe(&self) -> String {
        match self {
            WorldSpec::Synthetic(p) => {
                format!("synthetic world (seed {}, {} names)", p.seed, p.names)
            }
            WorldSpec::Fbi => "fbi.gov case study".to_string(),
            WorldSpec::Cornell => "cornell Figure 1 web".to_string(),
            WorldSpec::Tripwire => "lint tripwire fixture".to_string(),
        }
    }

    /// Reseeds a synthetic spec in place (`POST /reload` with a body);
    /// scenario worlds have no seed and ignore it.
    pub fn reseed(&mut self, seed: u64) {
        if let WorldSpec::Synthetic(p) = self {
            p.seed = seed;
        }
    }

    /// The world as a stream: every build, boot or reload goes through
    /// the same bounded-memory ingestion path the batch CLIs use.
    pub fn stream(&self) -> WorldStream {
        match self {
            WorldSpec::Synthetic(params) => SyntheticSource {
                params: params.clone(),
            }
            .stream(),
            WorldSpec::Fbi => ScenarioSource {
                scenario: &fbi_case(),
                targets: vec![
                    name("www.fbi.gov"),
                    name("www.sprintip.com"),
                    name("www.telemail.net"),
                ],
            }
            .stream(),
            WorldSpec::Cornell => ScenarioSource {
                scenario: &cornell_figure1(),
                targets: vec![name("www.cs.cornell.edu"), name("www.cornell.edu")],
            }
            .stream(),
            WorldSpec::Tripwire => ScenarioSource {
                scenario: &lint_tripwire(),
                targets: lint_tripwire_targets(),
            }
            .stream(),
        }
    }

    /// Builds the world into its archive and opens it: streams the
    /// events into the universe, builds the dependency index and runs
    /// `sweep` over it, then writes every section, building the lint
    /// facts only once the index is written and dropped. The buffer is
    /// loaded through the archive decoder, with every validation a `.psa`
    /// file gets.
    pub fn build(&self, sweep: Option<FigureSweep<'_>>) -> World {
        let mut world = self.stream().collect();
        let index = DependencyIndex::build(&world.universe);
        let figures = match sweep {
            Some((engine, render)) => {
                let report = engine.run_world_indexed(world, &index);
                let figures = render(&report);
                world = report.world;
                Some(figures)
            }
            None => None,
        };
        let bytes = write_world(
            &world.universe,
            index,
            || LintIndex::build(&world.universe),
            &world.names,
            &world.top500,
            figures.as_ref().map(|(json, n)| (json.as_str(), *n)),
        );
        drop((world, figures));
        load_world_bytes(bytes).expect("a freshly built world archive loads")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::world_archive_bytes;

    fn archive_of(world: &World) -> Vec<u8> {
        world
            .store
            .read_range(0..world.store.len(), "archive")
            .expect("heap store reads")
    }

    /// The streaming build writes exactly what the one-shot encoder
    /// writes over separately built parts, on every kind of named world.
    #[test]
    fn build_writes_the_encoders_bytes_on_every_world() {
        for world in ["tiny", "fbi", "cornell", "tripwire"] {
            let spec = WorldSpec::parse(world, 20040722).expect("a named world");
            let parts = spec.stream().collect();
            let expected = world_archive_bytes(
                &parts.universe,
                &DependencyIndex::build(&parts.universe),
                &LintIndex::build(&parts.universe),
                &parts.names,
                &parts.top500,
                None,
            );
            assert_eq!(archive_of(&spec.build(None)), expected, "{world}");
        }
    }

    /// A sweep runs over the built world and lands as the `FIGURES`
    /// section, its figure count leading the JSON.
    #[test]
    fn a_sweep_writes_its_figures_section() {
        let spec = WorldSpec::parse("tiny", 7).expect("tiny parses");
        let engine = Engine::with_builtin_metrics();
        let render =
            |report: &SurveyReport| (format!("{{\"names\":{}}}", report.world.names.len()), 1);
        let world = spec.build(Some((&engine, &render)));
        let parts = spec.stream().collect();
        let json = format!("{{\"names\":{}}}", parts.names.len());
        let expected = world_archive_bytes(
            &parts.universe,
            &DependencyIndex::build(&parts.universe),
            &LintIndex::build(&parts.universe),
            &parts.names,
            &parts.top500,
            Some((&json, 1)),
        );
        assert_eq!(archive_of(&world), expected);
        assert_eq!(world.figures_json(), Some(json));
        assert_eq!(world.figures_rendered, 1);
    }
}
