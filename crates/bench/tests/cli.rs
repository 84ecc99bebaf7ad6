//! Usage errors exit 2 with the usage line before doing any work,
//! never a panic: a zero count, and for `repro` a missing or unknown
//! experiment or a flag the experiment does not read.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts")
}

/// Asserts `bin args` exits 2 with `message` and the usage line on
/// stderr, and returns stderr.
fn rejects(bin: &str, args: &[&str], message: &str) -> String {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

fn rejects_zero(bin: &str, before: &[&str], key: &str) {
    let args: Vec<&str> = before.iter().copied().chain([key, "0"]).collect();
    rejects(bin, &args, &format!("{key} must be at least 1, got 0"));
}

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn bench_serve_rejects_zero_frames() {
    rejects_zero(env!("CARGO_BIN_EXE_bench_serve"), &[], "--frames");
}

#[test]
fn fig6_rejects_zero_instances_and_anneals() {
    rejects_zero(REPRO, &["fig6"], "--instances");
    rejects_zero(REPRO, &["fig6"], "--anneals");
}

#[test]
fn bench_coded_rejects_zero_anneals() {
    rejects_zero(env!("CARGO_BIN_EXE_bench_coded"), &[], "--anneals");
}

#[test]
fn repro_runs_an_entry_that_reads_no_flag() {
    let out = run(REPRO, &["table2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("wrote results/table2.json"), "{stdout}");
}

#[test]
fn repro_rejects_a_missing_experiment() {
    rejects(REPRO, &[], "missing experiment name");
    rejects(REPRO, &["--anneals", "5"], "missing experiment name");
}

#[test]
fn repro_rejects_an_unknown_experiment_and_lists_the_registry() {
    let stderr = rejects(REPRO, &["fig99"], "unknown experiment fig99");
    for name in ["fig4", "fig15", "table2", "calibrate", "ablation_unembed"] {
        assert!(stderr.contains(name), "{stderr}");
    }
}

#[test]
fn repro_rejects_a_flag_the_experiment_does_not_read() {
    rejects(
        REPRO,
        &["table2", "--anneals", "5"],
        "unknown option --anneals",
    );
    rejects(
        REPRO,
        &["fig4", "--instances", "2"],
        "unknown option --instances",
    );
    rejects(
        REPRO,
        &["fig5", "--jf-step", "4"],
        "unknown option --jf-step",
    );
}
