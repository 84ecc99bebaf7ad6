//! Tiny-size smoke test: every workload prints every named metric, the
//! span log parses, and the command line rejects what it does not know.

use quamax_perfbench::{result_json, run, Config, Scale, Workload, END_TO_END, PER_LAYER};
use std::process::Command;

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn every_workload_prints_every_metric() {
    for workload in Workload::ALL {
        for (trace, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let report =
                run(&tiny(workload, trace)).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let names: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(names, expected, "{} trace={trace}", workload.name());
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            assert!(report.attempted >= 1);

            let line = result_json(true, &report);
            let doc = serde_json::from_str(&line).expect("result line parses");
            let metrics = doc.get("metrics").expect("metrics object");
            for (name, unit) in expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("missing {name}"));
                assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
                assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
            }

            if trace {
                let spans = report.trace_json.as_deref().expect("traced run has spans");
                let doc = serde_json::from_str(spans).expect("span log parses");
                let spans = doc.get("spans").and_then(|s| s.as_array()).expect("spans");
                assert!(spans
                    .iter()
                    .any(|s| s.get("name").and_then(|n| n.as_str()) == Some("unit")));
            }
        }
    }
}

#[test]
fn command_line_is_strict() {
    let bin = env!("CARGO_BIN_EXE_quamax-perfbench");
    for args in [
        &[
            "--workload",
            "uplink_48u_bpsk",
            "--seed",
            "1",
            "--bogus",
            "1",
        ][..],
        &["--workload", "no_such_workload", "--seed", "1"],
        &["--workload", "metro_serve", "--seed", "1", "--trace", "2"],
        &["--workload", "metro_serve", "--seed", "-1"],
        &["--workload", "metro_serve"],
    ] {
        let out = Command::new(bin).args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
