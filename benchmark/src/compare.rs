//! `e2e compare <a.json> <b.json>`: apply the per-metric bounds of
//! `BENCHMARK.json` to two result files. What a CI gate, and every A/B in
//! a performance change, calls.

use crate::host::HostShape;
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// A run's own spread is wider than the bound: the metric cannot
    /// resolve a change of that size, so "unchanged" would be a guess.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub a: f64,
    pub b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    /// How much worse `b` is, as a share of `a` (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Judge one metric on one workload.
pub fn judge(
    higher_is_better: bool,
    bound: f64,
    (a, spread_a): (f64, f64),
    (b, spread_b): (f64, f64),
) -> (f64, Verdict) {
    let worse_by = if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    let verdict = if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// One row per (end-to-end metric, workload) present in both results.
/// Refuses results whose host shape or seed differ.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for key in ["seed", "seconds"] {
        let (x, y) = (a.get(key), b.get(key));
        if x.is_none() || x != y {
            return Err(format!(
                "refusing to compare: {key} differs ({} vs {})",
                x.map_or("missing".into(), Json::render),
                y.map_or("missing".into(), Json::render)
            ));
        }
    }
    let host = |j: &Json| j.get("host").and_then(HostShape::from_json);
    match (host(a), host(b)) {
        (Some(x), Some(y)) if x == y => {}
        (x, y) => {
            return Err(format!(
                "refusing to compare: host shape differs ({x:?} vs {y:?})"
            ))
        }
    }
    let specs = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first result has no workloads")?;
    let mut rows = Vec::new();
    for (wname, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(wname)) else {
            return Err(format!("second result lacks workload {wname}"));
        };
        for spec in specs {
            let name = spec
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = spec
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let higher = spec.get("better").and_then(Json::as_str) == Some("higher");
            let read = |w: &Json| {
                let m = w.get("metrics")?.get(name)?;
                Some((m.get("value")?.as_f64()?, m.get("spread")?.as_f64()?))
            };
            let (Some(ma), Some(mb)) = (read(wa), read(wb)) else {
                return Err(format!("{name} on {wname} is missing from a result"));
            };
            let (worse_by, verdict) = judge(higher, bound, ma, mb);
            rows.push(Row {
                metric: name.to_string(),
                workload: wname.clone(),
                a: ma.0,
                b: mb.0,
                spread_a: ma.1,
                spread_b: mb.1,
                bound,
                worse_by,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<18} {:<13} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}  verdict",
        "metric", "workload", "a", "b", "spr a", "spr b", "worse", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<13} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>+7.1}% {:>6.0}%  {}",
            r.metric,
            r.workload,
            r.a,
            r.b,
            100.0 * r.spread_a,
            100.0 * r.spread_b,
            100.0 * r.worse_by,
            100.0 * r.bound,
            r.verdict.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(false, 0.1, (100.0, 0.02), (105.0, 0.03)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(false, 0.1, (100.0, 0.02), (111.0, 0.03)).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(false, 0.1, (100.0, 0.02), (50.0, 0.03)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(false, 0.1, (100.0, 0.12), (150.0, 0.03)).1,
            Verdict::Unresolved
        );
        // Higher is better: a drop is worse.
        let (by, v) = judge(true, 0.08, (200.0, 0.01), (180.0, 0.01));
        assert!((by - 0.1).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        assert_eq!(
            judge(true, 0.08, (200.0, 0.01), (260.0, 0.01)).1,
            Verdict::Ok
        );
    }

    fn result(seed: u64, nproc: u64, value: f64) -> Json {
        Json::parse(&format!(
            r#"{{"seed":{seed},"seconds":10,"host":{{"nproc":{nproc},"simd":"avx2","kernel":"k"}},
                "workloads":{{"w":{{"metrics":{{"latency_p50_ms":{{"value":{value},"unit":"ms","n":3,"spread":0.01}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compares_matching_runs_and_refuses_others() {
        let bench = Json::parse(
            r#"{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let rows = compare(&bench, &result(1, 2, 10.0), &result(1, 2, 12.0)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(compare(&bench, &result(1, 2, 10.0), &result(2, 2, 10.0))
            .unwrap_err()
            .contains("seed"));
        assert!(compare(&bench, &result(1, 2, 10.0), &result(1, 4, 10.0))
            .unwrap_err()
            .contains("host"));
    }
}
