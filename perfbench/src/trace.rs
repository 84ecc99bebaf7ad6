//! Host-clock spans recorded from the benchmark's own code around each
//! call into a library layer.
//!
//! A span has a name, a start, an end, a parent and the id of the unit
//! (coherence interval, dispatched batch or coded frame) it belongs to.
//! Spans are kept in memory and written out when the run ends; a
//! disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span, returned by [`Tracer::begin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    unit: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `unit` under `parent`; `None` when disabled.
    pub fn begin(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: Option<SpanId>) {
        if let Some(SpanId(i)) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn wrap<T>(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, unit, parent);
        let out = f();
        self.end(span);
        out
    }

    /// Duration of every span named `name`, ns, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per span name, ns: each span's duration minus the part
    /// its direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64;
        }
        out
    }

    /// Total duration of the root spans named `name`, ns.
    pub fn root_total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// The spans as one JSON document (`{"spans": [...]}`), each with
    /// its index, name, unit id, parent index (or null), start and end
    /// in ns since the tracer was created.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.unit, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("unit", 0, None);
        t.wrap("child", 0, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let own = t.self_time_ns();
        let total = t.root_total_ns("unit");
        assert!((own["unit"] + own["child"] - total).abs() < 1.0);
        assert!(own["child"] >= 2e6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("unit", 0, None);
        t.end(s);
        assert!(s.is_none());
        assert_eq!(t.to_json(), "{\"spans\":[]}");
    }
}
