//! Named worlds: the one resolver behind every `--world` argument.
//!
//! `lint --world` and `perilsd --world` accept the same names — a
//! synthetic scale from [`TopologyParams::preset`] or one of the three
//! hand-built scenarios — and [`WorldSpec`] turns a name into a
//! [`WorldStream`] through the ordinary [`WorldSource`]s.

use crate::engine::{ScenarioSource, SyntheticSource, WorldSource, WorldStream};
use crate::params::TopologyParams;
use perils_authserver::scenarios::{
    cornell_figure1, fbi_case, lint_tripwire, lint_tripwire_targets,
};
use perils_dns::name::name;

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
}
