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
