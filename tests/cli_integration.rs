//! End-to-end tests of the `dynamis` CLI binary: real process spawns,
//! real files, every subcommand.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dynamis"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynamis_cli_e2e_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr was: {err}");
}

#[test]
fn unknown_command_fails_with_message() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));
}

#[test]
fn datasets_lists_all_22_standins() {
    let out = cli().arg("datasets").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["Epinions", "hollywood", "uk-2007", "Friendster"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("Easy") || l.contains("Hard"))
            .count(),
        22,
        "one row per Table I graph"
    );
}

/// `solve` reads a SNAP edge list, comment banner included.
#[test]
fn solve_reads_a_snap_edge_list() {
    let dir = temp_dir("solve");
    let edge = dir.join("g.txt");
    std::fs::write(&edge, "# toy\n0 1\n1 2\n2 3\n3 0\n0 2\n").unwrap();

    // The 4-cycle 0-1-2-3 with chord (0, 2) has α = 2 ({1, 3}).
    let out = cli()
        .args(["solve", edge.to_str().unwrap(), "--algo", "exact"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("|I| = 2"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_on_dataset_reports_rate() {
    let out = cli()
        .args([
            "run",
            "--dataset",
            "Email",
            "--algo",
            "two",
            "--updates",
            "500",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DyTwoSwap"), "got: {text}");
    assert!(text.contains("500 updates"));
    assert!(text.contains("solution:"));
}

#[test]
fn record_then_replay_are_consistent() {
    let dir = temp_dir("trace");
    let trace = dir.join("wl.trace");
    let out = cli()
        .args([
            "record",
            "--dataset",
            "Email",
            "--updates",
            "300",
            "--seed",
            "5",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Replay twice with the same engine: byte-identical reports modulo
    // timing, so compare the |I| field.
    let size = |out: &std::process::Output| {
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        text.split("|I| = ").nth(1).map(|s| s.trim().to_string())
    };
    let a = cli()
        .args(["replay", trace.to_str().unwrap()])
        .output()
        .unwrap();
    let b = cli()
        .args(["replay", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(a.status.success() && b.status.success());
    assert_eq!(size(&a), size(&b), "replay is deterministic");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flags_are_rejected() {
    for args in [
        vec!["run"],                             // neither dataset nor graph
        vec!["run", "--dataset", "NoSuchGraph"], // unknown dataset
        vec!["run", "--dataset", "Email", "--algo", "bogus"],
        vec!["solve", "/nonexistent/file.txt"],
        vec!["replay", "/nonexistent/wl.trace"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert!(!out.status.success(), "should fail: {args:?}");
    }
}
