//! Uniform experiment output: a [`Report`]'s rows as text tables on
//! stdout and as a JSON file under `results/` for downstream plotting,
//! and the one record format of the committed `BENCH_*.json` files
//! ([`BenchRecord`]).

use serde_json::Value;
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

    /// The report as pretty JSON: `name`, `params` and `rows`. A
    /// non-finite number (an unreached time, say) serializes as `null`.
    pub fn to_json(&self) -> String {
        let doc = serde_json::json!({
            "name": self.name.clone(),
            "params": self.params.clone(),
            "rows": self.rows.clone(),
        });
        serde_json::to_string_pretty(&doc).expect("serializable")
    }

    /// Writes [`Report::to_json`] to `results/<name>.json` (creating the
    /// directory) and returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// The report as text: the name and params on one line, then the
    /// rows as aligned tables, with a new header wherever the row keys
    /// change. A row's array of objects (a rank list, a time series)
    /// prints as an indented table under the row. Numbers print to four
    /// significant digits, a non-finite one as `inf`, and `null` (a
    /// value that does not exist, such as the chain of a problem that
    /// does not fit) as `-`.
    pub fn render(&self) -> String {
        let mut out = format!("{} {}\n", self.name, cell(&self.params));
        table(&mut out, &self.rows, "");
        out
    }
}

/// Whether `value` is a nested table: a non-empty array of objects.
fn is_table(value: &Value) -> bool {
    let items = value.as_array().map_or(&[][..], Vec::as_slice);
    !items.is_empty() && items.iter().all(|item| item.as_object().is_some())
}

/// Appends `rows` to `out` as aligned tables, each line led by `pad`.
fn table(out: &mut String, rows: &[Value], pad: &str) {
    let fields = |row: &Value| row.as_object().cloned().unwrap_or_default();
    let keys = |row: &Value| -> Vec<String> {
        let scalar = fields(row).into_iter().filter(|(_, v)| !is_table(v));
        scalar.map(|(k, _)| k).collect()
    };
    let nested = |row: &Value| fields(row).iter().any(|(_, v)| is_table(v));
    let mut start = 0;
    while start < rows.len() {
        let head = keys(&rows[start]);
        let mut end = start + 1;
        while end < rows.len() && !nested(&rows[start]) && !nested(&rows[end]) {
            if keys(&rows[end]) != head {
                break;
            }
            end += 1;
        }
        let lines: Vec<Vec<String>> = (rows[start..end].iter())
            .map(|row| {
                let scalar = fields(row).into_iter().filter(|(_, v)| !is_table(v));
                scalar.map(|(_, v)| cell(&v)).collect()
            })
            .collect();
        let widths: Vec<usize> = (head.iter().enumerate())
            .map(|(c, k)| {
                let widest = lines.iter().map(|l| l[c].chars().count()).max();
                widest.unwrap_or(0).max(k.chars().count())
            })
            .collect();
        for line in std::iter::once(&head).chain(&lines) {
            let cells: Vec<String> = (line.iter().zip(&widths))
                .map(|(text, &w)| format!("{text:>w$}"))
                .collect();
            out.push_str(&format!("{pad}{}\n", cells.join("  ")));
        }
        for (key, value) in fields(&rows[start]).iter().filter(|(_, v)| is_table(v)) {
            out.push_str(&format!("{pad}  {key}:\n"));
            table(
                out,
                value.as_array().expect("a table"),
                &format!("{pad}    "),
            );
        }
        start = end;
    }
}

/// One value as table text.
fn cell(value: &Value) -> String {
    let join = |parts: Vec<String>, sep| parts.join(sep);
    match value {
        Value::Null => "-".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(x) => number(*x),
        Value::String(s) => s.clone(),
        Value::Array(items) => format!("[{}]", join(items.iter().map(cell).collect(), ", ")),
        Value::Object(fields) => {
            let pairs = fields.iter().map(|(k, v)| format!("{k}={}", cell(v)));
            join(pairs.collect(), " ")
        }
    }
}

/// A number: a whole one in full, others to four significant digits,
/// in scientific notation outside `[1e-3, 1e6)`.
fn number(x: f64) -> String {
    let magnitude = x.abs();
    if x.is_nan() {
        "NaN".into()
    } else if x.is_infinite() {
        if x > 0.0 { "inf" } else { "-inf" }.into()
    } else if x == x.trunc() && magnitude < 9e15 {
        format!("{}", x as i64)
    } else if (1e-3..1e6).contains(&magnitude) {
        let decimals = (3 - magnitude.log10().floor() as i32).max(0) as usize;
        let text = format!("{x:.decimals$}");
        match decimals {
            0 => text,
            _ => text.trim_end_matches('0').trim_end_matches('.').into(),
        }
    } else {
        format!("{x:.3e}")
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
    fn render_prints_every_row_value() {
        let inf = f64::INFINITY;
        let mut r = Report::new("unit", serde_json::json!({"anneals": 30, "seed": 1}));
        r.push(serde_json::json!({"class": "8x8 QPSK", "tts_us": 2.5, "ttb_us": inf}));
        r.push(serde_json::json!({"class": "12x12 QPSK", "tts_us": 0.000125, "ttb_us": 1900.3}));
        let p0 = vec![0.5, 0.25];
        r.push(serde_json::json!({"n": 8, "chain": serde_json::Value::Null, "p0": p0}));
        let series = vec![serde_json::json!({"t": 1, "ber": 0.03125})];
        r.push(serde_json::json!({"strategy": "Fix", "series": series}));
        let expected = "\
unit anneals=30 seed=1
     class    tts_us  ttb_us
  8x8 QPSK       2.5     inf
12x12 QPSK  1.250e-4    1900
n  chain           p0
8      -  [0.5, 0.25]
strategy
     Fix
  series:
    t      ber
    1  0.03125
";
        assert_eq!(r.render(), expected);
        assert!(r.to_json().contains("\"ttb_us\": null"));
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
