//! Argument validation of the `figures` binary: counts that would make a
//! table or a campaign contract vacuous, and unknown flags, are rejected
//! at parse time with the usage text, before any experiment runs.

use std::process::Command;

#[test]
fn bad_counts_are_rejected_with_usage() {
    let cases: [&[&str]; 9] = [
        &["fig1a", "--seeds", "0"],
        &["fig5", "--seeds", "0"],
        &["serving", "--smoke", "--seeds", "0"],
        &["fleet", "--hosts", "0"],
        &["fleet", "--smoke", "--hosts", "0"],
        &["fig1a", "--seeds"],
        &["fig1a", "--seeds", "-1"],
        &["fleet", "--hosts", "x"],
        // Removed alias: the experiment is spelled `fork_smoke`.
        &["--fork-smoke"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("failed to spawn the figures binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2:\n{stderr}"
        );
        assert!(
            stderr.starts_with("usage: figures"),
            "{args:?} must print the usage text:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run an experiment");
    }
}
