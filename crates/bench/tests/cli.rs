//! Zero-valued counts are usage errors: the binary prints the error and
//! its usage line and exits 2 before doing any work, never a panic.

use std::process::Command;

fn rejects_zero(bin: &str, key: &str) {
    let out = Command::new(bin)
        .args([key, "0"])
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {key} 0: {stderr}");
    assert!(
        stderr.contains(&format!("{key} must be at least 1, got 0")),
        "{bin} {key} 0: {stderr}"
    );
    assert!(stderr.contains("usage: "), "{bin} {key} 0: {stderr}");
}

#[test]
fn bench_serve_rejects_zero_frames() {
    rejects_zero(env!("CARGO_BIN_EXE_bench_serve"), "--frames");
}

#[test]
fn fig6_rejects_zero_instances_and_anneals() {
    rejects_zero(env!("CARGO_BIN_EXE_fig6"), "--instances");
    rejects_zero(env!("CARGO_BIN_EXE_fig6"), "--anneals");
}

#[test]
fn bench_coded_rejects_zero_anneals() {
    rejects_zero(env!("CARGO_BIN_EXE_bench_coded"), "--anneals");
}
