//! Every committed `BENCH_*.json` at the repo root parses against the
//! one record schema ([`BenchRecord::check`]), one record per `bench_*`
//! binary.

use quamax_bench::BenchRecord;
use std::path::Path;

/// The sorted `X` of every `<prefix>X<suffix>` file in `dir`.
fn stems(dir: &Path, prefix: &str, suffix: &str) -> Vec<String> {
    let mut stems: Vec<String> = (std::fs::read_dir(dir).expect("directory lists"))
        .filter_map(|entry| {
            let name = entry.expect("entry").file_name().into_string().ok()?;
            Some(name.strip_prefix(prefix)?.strip_suffix(suffix)?.to_string())
        })
        .collect();
    stems.sort();
    stems
}

#[test]
fn committed_bench_records_follow_the_schema() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench.join("../..");
    let records = stems(&root, "BENCH_", ".json");
    let binaries = stems(&bench.join("src/bin"), "bench_", ".rs");
    assert_eq!(records, binaries, "one committed record per bench binary");
    for stem in records {
        let name = format!("BENCH_{stem}");
        let text = std::fs::read_to_string(root.join(format!("{name}.json"))).expect("reads");
        let doc = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        BenchRecord::check(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let named = doc.get("name").and_then(|n| n.as_str());
        assert_eq!(named, Some(&name[..]), "{name} names its file");
    }
}
