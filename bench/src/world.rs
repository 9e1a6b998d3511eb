//! The seeded world every workload derives from, and the set-up step that
//! turns it into the inputs the programs under test see: a `.psa`
//! archive for `perilsd`, zone-file text and a target list for the census
//! batch, and the popularity-ordered request targets for the load
//! generator.

use crate::trace::Trace;
use perils_core::{DependencyIndex, LintIndex};
use perils_survey::engine::{AnalysisWorld, SyntheticSource, WorldSource};
use perils_survey::params::TopologyParams;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Surveyed names in the benchmark world: the repo's `default` scale. The
/// issue sized the world at 100,000 names; the driver's cap (48 runs, two
/// builds and every set-up inside 3420 s) leaves about 68 s a run, and a
/// 100k run needs 56 s on an idle box — too little slack.
pub const DEFAULT_NAMES: usize = 60_000;

/// World size: the benchmark scale, or the tiny preset the smoke test
/// (and the figure goldens) use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Names(usize),
}

impl Scale {
    pub fn parse(text: &str) -> Option<Scale> {
        match text {
            "tiny" => Some(Scale::Tiny),
            n => n.parse().ok().filter(|&n| n >= 1000).map(Scale::Names),
        }
    }

    pub fn label(self) -> String {
        match self {
            Scale::Tiny => "tiny".to_string(),
            Scale::Names(n) => n.to_string(),
        }
    }

    /// `TopologyParams::default_scaled` stretched to the name count in its
    /// own proportions (at 100k: domains 43,333, providers 533,
    /// universities 433, the numbers EXPERIMENTS.md uses). The harness
    /// owns this recipe so a change to another crate's helper cannot
    /// move the benchmark.
    pub fn params(self, seed: u64) -> TopologyParams {
        match self {
            Scale::Tiny => TopologyParams::tiny(seed),
            Scale::Names(names) => {
                let mut p = TopologyParams::default_scaled(seed);
                let stretch = |base: usize, floor: usize| (base * names / p.names).max(floor);
                p.domains = stretch(p.domains, 400);
                p.providers = stretch(p.providers, 16);
                p.universities = stretch(p.universities, 20);
                p.names = names;
                p
            }
        }
    }

    /// Names the exact AND/OR hijack search runs on (the `figures` CLI's
    /// value for each scale).
    pub fn exact_sample(self) -> usize {
        match self {
            Scale::Tiny => 25,
            Scale::Names(_) => 500,
        }
    }
}

/// One request target: a surveyed name and the zone that owns it.
#[derive(Debug, Clone)]
pub struct Target {
    pub name: String,
    pub zone: String,
}

/// What set-up leaves behind for one workload.
#[derive(Debug)]
pub struct Inputs {
    pub psa: PathBuf,
    /// Surveyed names, most popular first.
    pub by_popularity: Vec<Target>,
    /// Names the batch phase surveys: every crawled name, or for the
    /// census one per domain.
    pub batch_names: usize,
}

/// Generates the world and writes every input under `dir`. `census`
/// also writes the zone file and target list. Stage spans and counts go
/// to `trace`.
pub fn set_up(scale: Scale, seed: u64, census: bool, dir: &Path, trace: &mut Trace) -> Inputs {
    std::fs::create_dir_all(dir).expect("create set-up dir");
    trace.span("setup", |trace| {
        let world: AnalysisWorld = trace.span("setup.generate", |_| {
            SyntheticSource {
                params: scale.params(seed),
            }
            .load()
        });
        let index = trace.span("setup.index", |_| DependencyIndex::build(&world.universe));
        let lint = trace.span("lintindex.build", |_| LintIndex::build(&world.universe));
        let psa = dir.join("world.psa");
        let psa_bytes = trace.span("snapshot.save", |_| {
            perils_survey::save_world(
                &psa,
                &world.universe,
                &index,
                &lint,
                &world.names,
                &world.top500,
                None,
            )
            .expect("save archive")
        });
        trace.count("snapshot.bytes", psa_bytes as f64);

        // Census only: master-file text (one NS line per delegation edge,
        // one A line per server) and one target name per line.
        let batch_names = if census {
            trace.span("setup.zonefile", |_| {
                write_zone_file(&world, &dir.join("world.zone")).expect("write zone file");
                write_census_targets(&world, &dir.join("targets.txt")).expect("write target list")
            })
        } else {
            world.names.len()
        };

        let by_popularity = trace.span("setup.targets", |_| {
            let mut order: Vec<usize> = (0..world.names.len()).collect();
            order.sort_by_key(|&i| (world.names[i].popularity_rank, i));
            order
                .into_iter()
                .map(|i| {
                    let name = &world.names[i].name;
                    let zone = world
                        .universe
                        .zone_of(name)
                        .expect("every surveyed name has a zone");
                    Target {
                        name: name.to_string(),
                        zone: world.universe.zone(zone).origin.to_string(),
                    }
                })
                .collect()
        });
        Inputs {
            psa,
            by_popularity,
            batch_names,
        }
    })
}

fn absolute(name: &perils_dns::name::DnsName) -> String {
    if name.is_root() {
        ".".to_string()
    } else {
        format!("{name}.")
    }
}

fn write_zone_file(world: &AnalysisWorld, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "$ORIGIN .\n$TTL 86400")?;
    let universe = &world.universe;
    for zone in universe.zone_ids() {
        let entry = universe.zone(zone);
        let origin = absolute(&entry.origin);
        for &ns in &entry.ns {
            writeln!(
                out,
                "{origin} 86400 IN NS {}",
                absolute(&universe.server(ns).name)
            )?;
        }
    }
    for server in universe.server_ids() {
        let i = server.index();
        writeln!(
            out,
            "{} 86400 IN A 10.{}.{}.{}",
            absolute(&universe.server(server).name),
            (i >> 16) & 255,
            (i >> 8) & 255,
            i & 255
        )?;
    }
    out.flush()
}

/// One name per distinct domain: the first crawl name of each
/// popularity rank, in crawl order — every target has its own chain.
/// Returns how many were written.
fn write_census_targets(world: &AnalysisWorld, path: &Path) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut seen = BTreeSet::new();
    for entry in &world.names {
        if seen.insert(entry.popularity_rank) {
            writeln!(out, "{}", entry.name)?;
        }
    }
    out.flush()?;
    Ok(seen.len())
}
