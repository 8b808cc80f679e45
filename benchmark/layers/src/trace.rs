//! Spans recorded from outside the program, around each call into a
//! layer. Kept in memory; written once, at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use lightbench::json::{obj, Json};
use lightbench::run::Env;

pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub workload: &'static str,
    pub cell: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub counters: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the top.
    open: Vec<usize>,
    workload: &'static str,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
        }
    }

    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &str, cell: &str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            workload: self.workload,
            cell: cell.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            counters: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Attach a counter the spanned call returned.
    pub fn counter(&mut self, id: usize, name: &'static str, value: f64) {
        self.spans[id].counters.push((name, value));
    }

    /// Close span `id` (the innermost open one); returns its duration, ms.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end_us = self.now_us();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = end_us;
        (end_us - self.spans[id].start_us) / 1e3
    }

    /// Self time per layer, in ms, over the spans below `root`: a span's
    /// duration minus what its children cover.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let now = self.now_us();
        let end = |s: &Span| if s.end_us > s.start_us { s.end_us } else { now };
        let mut self_us: Vec<f64> = self.spans.iter().map(|s| end(s) - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_us[p] -= end(s) - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            *out.entry(s.layer).or_insert(0.0) += self_us[i] / 1e3;
        }
        out
    }

    pub fn to_json(&self, env: &Env) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("id", Json::U64(id as u64)),
                    ("name", Json::Str(s.name.clone())),
                    ("layer", Json::Str(s.layer.into())),
                    ("workload", Json::Str(s.workload.into())),
                    ("cell", Json::Str(s.cell.clone())),
                    ("start_us", Json::F64(s.start_us)),
                    ("end_us", Json::F64(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    (
                        "counters",
                        Json::Obj(
                            s.counters
                                .iter()
                                .map(|&(k, v)| (k.to_string(), Json::F64(v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        obj([
            ("seed", Json::U64(env.seed)),
            ("host", env.host.to_json()),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.enter("bench", "root", "");
        let a = t.enter("graph", "open", "c");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner = t.enter("order", "plan", "c");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_ms = t.exit(inner);
        let a_ms = t.exit(a);
        t.exit(root);
        assert_eq!(t.spans[inner].parent, Some(a));
        assert_eq!(t.spans[a].parent, Some(root));
        let times = t.self_times(root);
        assert!((times["graph"] - (a_ms - inner_ms)).abs() < 1e-6);
        assert!((times["order"] - inner_ms).abs() < 1e-6);
        assert!(times["bench"] < 1.0);
    }
}
