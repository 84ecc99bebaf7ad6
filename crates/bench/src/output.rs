//! Uniform experiment output: a text table on stdout plus a JSON file
//! under `results/` for downstream plotting ([`Report`]), and the one
//! record format of the committed `BENCH_*.json` files
//! ([`BenchRecord`]).

use std::fs;
use std::path::PathBuf;

/// One experiment's report.
#[derive(Debug)]
pub struct Report {
    /// Experiment id (e.g. "fig5").
    pub name: String,
    /// The parameters the run used (anneals, instances, seed, …).
    pub params: serde_json::Value,
    /// Result rows (shape is experiment-specific but self-describing).
    pub rows: Vec<serde_json::Value>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(name: &str, params: serde_json::Value) -> Self {
        Report {
            name: name.to_string(),
            params,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: serde_json::Value) {
        self.rows.push(row);
    }

    /// Writes `results/<name>.json` (creating the directory) and
    /// returns the path. The caller prints its own text table.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        let doc = serde_json::json!({
            "name": self.name.clone(),
            "params": self.params.clone(),
            "rows": self.rows.clone(),
        });
        fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )?;
        Ok(path)
    }
}

/// One bench binary's `BENCH_<name>.json` record, written at the
/// working directory (the repo root, where the files are committed).
/// [`BenchRecord::check`] is its schema.
#[derive(Debug)]
pub struct BenchRecord {
    /// The file stem, e.g. `"BENCH_kernel"`.
    pub name: &'static str,
    /// `host` (wall clock), `simulated` (modeled device time and
    /// seeded counts) or `both`, when every row names its own clock.
    pub clock: &'static str,
    /// What the bench ran: problem shape, sizes, seeds.
    pub workload: serde_json::Value,
    /// The claims the bench asserted before writing, each `true`.
    pub asserts: serde_json::Value,
    /// How to read the rows.
    pub note: String,
    /// Result rows, each an object tagged by a string `row` field.
    pub rows: Vec<serde_json::Value>,
}

impl BenchRecord {
    /// The top-level keys of every record, in order.
    pub const KEYS: [&'static str; 6] = ["name", "clock", "workload", "asserts", "note", "rows"];

    /// An empty record.
    pub fn new(name: &'static str, clock: &'static str) -> Self {
        BenchRecord {
            name,
            clock,
            workload: serde_json::json!({}),
            asserts: serde_json::json!({}),
            note: String::new(),
            rows: Vec::new(),
        }
    }

    /// The record as JSON.
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "name": self.name,
            "clock": self.clock,
            "workload": self.workload.clone(),
            "asserts": self.asserts.clone(),
            "note": self.note.clone(),
            "rows": self.rows.clone(),
        })
    }

    /// Writes `<name>.json` in the working directory.
    ///
    /// # Panics
    /// Panics when the record breaks [`BenchRecord::check`].
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let doc = self.to_json();
        Self::check(&doc).unwrap_or_else(|err| panic!("{}: {err}", self.name));
        let path = PathBuf::from(format!("{}.json", self.name));
        fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )?;
        Ok(path)
    }

    /// Checks a parsed record against the schema: exactly the
    /// [`BenchRecord::KEYS`], string name and note, object workload and
    /// asserts, a clock of `host`, `simulated` or `both`, and a
    /// non-empty array of rows, each an object with a string `row` tag
    /// and, under `both`, a `clock` of `host` or `simulated`.
    ///
    /// # Errors
    /// Names the first key or row that breaks the schema.
    pub fn check(doc: &serde_json::Value) -> Result<(), String> {
        let keys: Vec<&str> = (doc.as_object().into_iter().flatten())
            .map(|(k, _)| k.as_str())
            .collect();
        fn text<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a str> {
            v.get(key).and_then(serde_json::Value::as_str)
        }
        let object = |key| doc.get(key).and_then(|v| v.as_object()).is_some();
        let clock = text(doc, "clock").unwrap_or_default();
        let rows = doc.get("rows").and_then(|r| r.as_array());
        let rows = rows.map_or(&[][..], Vec::as_slice);
        if keys != Self::KEYS {
            return Err(format!("keys {keys:?}, expected {:?}", Self::KEYS));
        }
        if text(doc, "name").is_none() || text(doc, "note").is_none() {
            return Err("name and note are strings".into());
        }
        if !object("workload") || !object("asserts") {
            return Err("workload and asserts are objects".into());
        }
        if !["host", "simulated", "both"].contains(&clock) {
            return Err(format!("clock {clock:?} is not host, simulated or both"));
        }
        if rows.is_empty() {
            return Err("rows is not a non-empty array".into());
        }
        let untagged = |row: &serde_json::Value| {
            let own_clock = matches!(text(row, "clock"), Some("host" | "simulated"));
            text(row, "row").is_none() || (clock == "both" && !own_clock)
        };
        match rows.iter().position(untagged) {
            Some(i) => Err(format!(
                "row {i} lacks a `row` tag or, under clock both, a clock"
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trip() {
        let mut r = Report::new("unit_test_report", serde_json::json!({"anneals": 10}));
        r.push(serde_json::json!({"x": 1, "y": 2.5}));
        let path = r.write().unwrap();
        let data = std::fs::read_to_string(&path).unwrap();
        assert!(data.contains("unit_test_report"));
        assert!(data.contains("2.5"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bench_records_follow_the_schema() {
        let mut r = BenchRecord::new("BENCH_unit", "both");
        assert!(BenchRecord::check(&r.to_json())
            .unwrap_err()
            .contains("non-empty"));
        r.rows
            .push(serde_json::json!({"row": "timing", "clock": "host"}));
        BenchRecord::check(&r.to_json()).unwrap();
        r.rows
            .push(serde_json::json!({"row": "stage", "events": 3}));
        assert!(BenchRecord::check(&r.to_json())
            .unwrap_err()
            .contains("row 1"));
        r.clock = "wall";
        assert!(BenchRecord::check(&r.to_json())
            .unwrap_err()
            .contains("clock"));
        let extra = r#"{"name": "x", "clock": "host", "workload": {}, "asserts": {}, "note": "",
            "rows": [{"row": "a"}], "unit": "ns"}"#;
        let err = BenchRecord::check(&serde_json::from_str(extra).unwrap()).unwrap_err();
        assert!(err.contains("keys"), "{err}");
    }
}
