//! The `figures` and `lint` binaries around a `.psa` archive: a world
//! saved by one run and read back with `--load-snapshot` yields the same
//! figure files and the same lint report as the run that built it, both
//! binaries save the same world as the same bytes and re-save a loaded
//! archive verbatim, a damaged archive or an unwritable save path is a
//! clean exit 1, and an unknown scale, the retired `--csv` flag, a
//! missing value or a malformed integer is a usage error.

use perils_core::{DependencyIndex, LintIndex};
use perils_survey::params::TopologyParams;
use perils_survey::snapshot::world_archive_bytes;
use perils_survey::WorldSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SEED: &str = "20040722";

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {exe}: {e}"))
}

fn figures(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_figures"), args)
}

fn lint(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_lint"), args)
}

/// A fresh scratch directory under the target dir, one per test.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_snapshot-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

/// File name → contents of every file in `dir`, sorted by name.
fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read output dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).expect("read figure file"),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn loaded_snapshot_reproduces_the_built_run() {
    let dir = scratch("roundtrip");
    let (built, loaded, psa) = (dir.join("built"), dir.join("loaded"), dir.join("w.psa"));

    let out = figures(&[
        "--scale",
        "tiny",
        "--seed",
        SEED,
        "--format",
        "json",
        "--out",
        path_str(&built),
        "--save-snapshot",
        path_str(&psa),
    ]);
    assert!(out.status.success(), "figures build run: {out:?}");
    let out = figures(&[
        "--load-snapshot",
        path_str(&psa),
        "--format",
        "json",
        "--out",
        path_str(&loaded),
    ]);
    assert!(out.status.success(), "figures load run: {out:?}");
    // The `--out` files, not stdout: a loaded world has no scale, so the
    // ablation line samples 500 names where tiny samples 25.
    let built_files = dir_files(&built);
    assert_eq!(built_files.len(), 12, "twelve registered figures");
    assert_eq!(built_files, dir_files(&loaded));

    let from_world = lint(&["--world", "tiny", "--seed", SEED, "--format", "json"]);
    let from_archive = lint(&["--load-snapshot", path_str(&psa), "--format", "json"]);
    assert_eq!(from_world.status.code(), from_archive.status.code());
    assert!(!from_world.stdout.is_empty(), "lint printed a report");
    assert_eq!(from_world.stdout, from_archive.stdout);

    // A truncated archive is the typed error on stderr and exit 1 — not
    // a panic (which would exit 101).
    let bytes = std::fs::read(&psa).expect("read archive");
    let cut = dir.join("cut.psa");
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).expect("write truncated archive");
    for out in [
        figures(&["--load-snapshot", path_str(&cut)]),
        lint(&["--load-snapshot", path_str(&cut)]),
    ] {
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot load snapshot"), "{stderr}");
        assert!(stderr.contains("truncated"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `figures` and `lint` hold the same world value, so they save the same
/// bytes; a loaded world saves the file it was opened from, sections the
/// CLI never writes (a daemon's `FIGURES`) included.
#[test]
fn both_binaries_save_one_world_and_resave_loaded_archives_verbatim() {
    let dir = scratch("one-world");
    let (from_figures, from_lint) = (dir.join("figures.psa"), dir.join("lint.psa"));
    let out = figures(&[
        "--scale",
        "tiny",
        "--seed",
        SEED,
        "--save-snapshot",
        path_str(&from_figures),
    ]);
    assert!(out.status.success(), "figures save: {out:?}");
    let out = lint(&[
        "--world",
        "tiny",
        "--seed",
        SEED,
        "--save-snapshot",
        path_str(&from_lint),
    ]);
    assert!(out.status.code() != Some(2), "lint save: {out:?}");
    let saved = std::fs::read(&from_figures).expect("figures archive");
    assert_eq!(saved, std::fs::read(&from_lint).expect("lint archive"));

    let world = WorldSpec::parse("tiny", 7)
        .expect("tiny parses")
        .stream()
        .collect();
    let with_figures = world_archive_bytes(
        &world.universe,
        &DependencyIndex::build(&world.universe),
        &LintIndex::build(&world.universe),
        &world.names,
        &world.top500,
        Some(("{\"figures\":[],\"skipped\":[]}", 0)),
    );
    let (original, resaved) = (dir.join("daemon.psa"), dir.join("resaved.psa"));
    std::fs::write(&original, &with_figures).expect("write archive");
    let out = lint(&[
        "--load-snapshot",
        path_str(&original),
        "--save-snapshot",
        path_str(&resaved),
    ]);
    assert!(out.status.code() != Some(2), "lint re-save: {out:?}");
    assert_eq!(
        std::fs::read(&resaved).expect("re-saved archive"),
        with_figures
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The archive is written before the survey or lint pass: a save path in
/// a missing directory fails with exit 1 and nothing else is written.
#[test]
fn an_unwritable_save_path_fails_before_the_pass() {
    let dir = scratch("unwritable");
    let psa = dir.join("missing").join("w.psa");
    let (figure_dir, report) = (dir.join("figures"), dir.join("lint.json"));
    let out = figures(&[
        "--scale",
        "tiny",
        "--format",
        "json",
        "--out",
        path_str(&figure_dir),
        "--save-snapshot",
        path_str(&psa),
    ]);
    let lint_out = lint(&[
        "--world",
        "tiny",
        "--out",
        path_str(&report),
        "--save-snapshot",
        path_str(&psa),
    ]);
    // Neither pass ran: no survey summary, no finding count.
    for (out, pass_line) in [(out, "survey complete"), (lint_out, "finding(s)")] {
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot save snapshot"), "{stderr}");
        assert!(!stderr.contains(pass_line), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    assert!(!figure_dir.exists(), "no figure files were written");
    assert!(!report.exists(), "no lint report was written");
    assert!(!psa.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_scale_is_a_usage_error_naming_the_presets() {
    for out in [figures(&["--scale", "huge"]), lint(&["--world", "huge"])] {
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let error = stderr.lines().next().expect("error line before the usage");
        assert!(error.contains("\"huge\""), "{stderr}");
        assert!(error.contains(TopologyParams::PRESETS), "{stderr}");
    }
}

/// `--csv DIR` is gone (`--out DIR --format csv` writes the same
/// streaming CSV): it is an unknown argument, a usage error, and no
/// directory is written.
#[test]
fn csv_flag_is_an_unknown_argument() {
    let dir = scratch("csv-flag").join("csv");
    let out = figures(&["--scale", "tiny", "--csv", path_str(&dir)]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument \"--csv\""), "{stderr}");
    assert!(
        !stderr.contains("--csv DIR"),
        "usage no longer lists it: {stderr}"
    );
    assert!(!dir.exists(), "nothing written");
}

/// Both binaries word argument errors alike: a flag at the end of the
/// line needs a value, and an integer that does not parse is malformed.
#[test]
fn missing_values_and_malformed_integers_are_usage_errors() {
    for (out, error) in [
        (figures(&["--scale"]), "error: --scale needs a value"),
        (
            figures(&["--seed", "12x"]),
            "error: malformed --seed \"12x\"",
        ),
        (lint(&["--format"]), "error: --format needs a value"),
        (
            lint(&["--threads", "0"]),
            "error: malformed --threads \"0\"",
        ),
    ] {
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().next(), Some(error), "{stderr}");
        assert!(stderr.contains("usage: "), "{stderr}");
    }
}
