//! The benchmark command:
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs the workload's correctness gates, then measures it for about
//! `--seconds` host seconds (default 40): a number of passes over its
//! inputs fixed by the workload and `--seconds`. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer metrics and writes the
//! span log to `out/trace-<workload>-<seed>.json` in this crate's
//! directory. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Unknown flags,
//! unknown workloads and failed gates exit nonzero without a result.

use quamax_perfbench::{result_json, run, Config, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let slot_taken = |taken: bool| {
            if taken {
                Err(format!("flag {flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                seed =
                    Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed expects an unsigned integer, got {value:?}")
                    })?);
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let s = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| {
                        format!("--seconds expects an integer in 1..=600, got {value:?}")
                    })?;
                seconds = Some(s as f64);
            }
            "--trace" => {
                slot_taken(trace.is_some())?;
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
        scale: Scale::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    if let Some(json) = &report.trace_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-{}.json", cfg.workload.name(), cfg.seed);
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("perfbench: cannot write the span log {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("span log: {path}");
    }
    println!(
        "{} seed {} ({}):",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(true, &report));
    ExitCode::SUCCESS
}
