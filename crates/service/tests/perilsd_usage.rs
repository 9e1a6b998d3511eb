//! `perilsd` usage errors: exit 2 with the usage text on stderr, before
//! any world is built or socket bound.

use perils_survey::params::TopologyParams;
use std::process::Command;

fn perilsd(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perilsd"))
        .args(args)
        .output()
        .expect("run perilsd");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_world_names_the_presets() {
    let (code, stderr) = perilsd(&["--world", "huge"]);
    assert_eq!(code, Some(2), "{stderr}");
    let error = stderr.lines().next().expect("error line before the usage");
    assert!(error.contains("\"huge\""), "{stderr}");
    assert!(error.contains(TopologyParams::PRESETS), "{stderr}");
}

#[test]
fn copy_is_not_a_snapshot_backend() {
    let (code, stderr) = perilsd(&["--snapshot-backend", "copy"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown snapshot backend \"copy\" (heap|paged)"),
        "{stderr}"
    );
    assert!(
        stderr.contains("[--snapshot-backend heap|paged]"),
        "{stderr}"
    );
}

/// The error line of a usage error, after checking the exit code.
fn error_line(args: &[&str]) -> String {
    let (code, stderr) = perilsd(args);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage: perilsd"), "{stderr}");
    stderr.lines().next().unwrap_or_default().to_string()
}

#[test]
fn missing_values_and_malformed_integers_are_usage_errors() {
    for (args, error) in [
        (&["--addr"][..], "error: --addr needs a value"),
        (
            &["--queue-cap", "-3"],
            "error: malformed --queue-cap \"-3\"",
        ),
        (&["--bogus"], "error: unknown argument \"--bogus\""),
    ] {
        assert_eq!(error_line(args), error);
    }
}

/// A page-cache budget whose byte count does not fit in 64 bits is a
/// usage error, not an overflow.
#[test]
fn page_cache_budget_overflow_is_a_usage_error() {
    let mb = u64::MAX.to_string();
    assert_eq!(
        error_line(&["--snapshot-backend", "paged", "--page-cache-mb", &mb]),
        format!("error: --page-cache-mb {mb} overflows a 64-bit byte budget")
    );
}
