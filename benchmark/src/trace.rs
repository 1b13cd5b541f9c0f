//! In-memory spans around the calls the harness makes into each layer.
//!
//! The harness is single-threaded at the points it records spans (pool
//! threads live inside the calls), so an open-span stack gives every span
//! its parent, and the children of a span never overlap.

use std::collections::BTreeMap;
use std::time::Instant;
use yafim::cluster::json::JsonValue;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub workload: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            workload: self.workload.clone(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        (out, self.spans[idx].duration_s())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of each span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_s();
        }
    }
    own
}

/// Per span name: how many spans, their total duration and total self time.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (s, own_s) in spans.iter().zip(own) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.duration_s();
        e.2 += own_s;
    }
    out
}

/// One tracer's spans as JSON objects. Ids (and parents) are the span
/// indices plus `first_id`, so that several tracers fit in one file.
pub fn to_json(spans: &[Span], first_id: usize) -> Vec<JsonValue> {
    let own = self_times(spans);
    spans
        .iter()
        .zip(own)
        .enumerate()
        .map(|(idx, (s, own_s))| {
            JsonValue::object(vec![
                ("id", (first_id + idx).into()),
                ("name", s.name.as_str().into()),
                ("workload", s.workload.as_str().into()),
                (
                    "parent",
                    s.parent.map_or(JsonValue::Null, |p| (first_id + p).into()),
                ),
                ("start_s", s.start_s.into()),
                ("end_s", s.end_s.into()),
                ("self_s", own_s.into()),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name: name.into(),
            workload: "w".into(),
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("leaf", Some(1), 2.0, 3.0),
            span("a", Some(0), 5.0, 9.0),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["a"], (2, 7.0, 6.0));
        assert_eq!(totals["root"], (1, 10.0, 3.0));
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut tr = Tracer::new("w");
        let (v, outer_s) = tr.span("outer", |tr| tr.span("inner", |_| 41).0 + 1);
        assert_eq!(v, 42);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_s >= spans[0].start_s && spans[1].end_s <= spans[0].end_s);
        assert_eq!(outer_s, spans[0].duration_s());
        assert!(self_times(&spans).iter().all(|&s| s >= 0.0));
        let json = to_json(&spans, 10);
        assert_eq!(json[1].get("id").unwrap().as_f64(), Some(11.0));
        assert_eq!(json[1].get("parent").unwrap().as_f64(), Some(10.0));
    }
}
