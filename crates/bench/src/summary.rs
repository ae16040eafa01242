//! The gate table: every bound CI holds a report to, as data.
//!
//! One [`Row`] names a report, a path into its JSON value and a
//! [`Bound`]; [`check`] evaluates a row and [`summary`] evaluates all of
//! them into `BENCH_summary.json`. A check that is structural rather than
//! scalar — the causal oracle walk, `World::leaks()` — is a failure
//! *count* in its report, bounded here at zero. A path that does not
//! resolve to a number fails its row: a renamed field must not turn a
//! gate into a no-op.

use std::fmt;

use unp_trace::json::Value;
use unp_trace::monitor::mutations::BugClass;

/// What a gated value is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Exactly this value (counts).
    Eq(f64),
    AtMost(f64),
    AtLeast(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Eq(x) => write!(f, "== {x}"),
            Bound::AtMost(x) => write!(f, "<= {x}"),
            Bound::AtLeast(x) => write!(f, ">= {x}"),
        }
    }
}

/// One gate: `report`'s value at `path` must satisfy `bound`.
pub struct Row {
    pub report: &'static str,
    pub path: &'static str,
    pub bound: Bound,
}

const fn row(report: &'static str, path: &'static str, bound: Bound) -> Row {
    Row {
        report,
        path,
        bound,
    }
}

/// Every gate in the repo.
pub const TABLE: &[Row] = &[
    // The pool must at least halve heap allocations per frame.
    row(
        "zero_copy",
        "pool_comparison.alloc_reduction_factor",
        Bound::AtLeast(2.0),
    ),
    row(
        "zero_copy",
        "pool_comparison.pooled_allocs_per_frame",
        Bound::AtMost(0.5),
    ),
    // A bulk transfer's data packets all carry an installed 5-tuple.
    row("demux", "workload.flow_hit_rate", Bound::AtLeast(0.5)),
    // A signaled wakeup can never take longer than the model charges, a
    // frame can never be processed faster.
    row("trace", "wakeup_over_model", Bound::Eq(0.0)),
    row("trace", "proc_under_model", Bound::Eq(0.0)),
    row("trace", "rows[0].wakeup.mean_ns", Bound::AtLeast(1.0)),
    row("trace", "rows[0].proc.mean_ns", Bound::AtLeast(1.0)),
    row(
        "profile",
        "gate.stage_mean_ns.end_to_end",
        Bound::AtLeast(1.0),
    ),
    row(
        "profile",
        "gate.stage_mean_ns.demux_classify",
        Bound::AtLeast(1.0),
    ),
    // Demux structures stay ~100 bytes per channel at the largest point.
    row(
        "demux_scale",
        "points[-1].demux_mem_bytes",
        Bound::AtMost(128.0 * 1_000_000.0),
    ),
    // The fault plan is the oracle: attribution is total, the oracle walk
    // finds nothing, and the plan did inject loss.
    row("causal", "attribution_coverage", Bound::Eq(1.0)),
    row("causal", "oracle_failures", Bound::Eq(0.0)),
    row("causal", "rexmits", Bound::AtLeast(1.0)),
    row("causal", "journeys.lost", Bound::AtLeast(1.0)),
    // The isolation envelope (see `crate::isolation`).
    row("isolation", "baseline_quota_drops", Bound::Eq(0.0)),
    row("isolation", "baseline_tx_rejections", Bound::Eq(0.0)),
    row("isolation", "quota_drops", Bound::AtLeast(1.0)),
    row("isolation", "tx_rejections", Bound::AtLeast(1.0)),
    row("isolation", "quota_drops_misattributed", Bound::Eq(0.0)),
    row("isolation", "quota_drops_untraced", Bound::Eq(0.0)),
    row("isolation", "leaks", Bound::Eq(0.0)),
    row("isolation", "throughput_ratio_min", Bound::AtLeast(0.6)),
    row("isolation", "completion_envelope_used", Bound::AtMost(1.0)),
    row("isolation", "p99_envelope_used", Bound::AtMost(1.0)),
    // Zero violations on conformant runs, by checkers that each validated
    // real events and each still catch their bug class.
    row("monitor", "golden_violations", Bound::Eq(0.0)),
    row("monitor", "checked.tcp_acks", Bound::AtLeast(1.0)),
    row("monitor", "checked.transitions", Bound::AtLeast(1.0)),
    row("monitor", "checked.rexmits", Bound::AtLeast(1.0)),
    row("monitor", "checked.ring_events", Bound::AtLeast(1.0)),
    row("monitor", "checked.pool_events", Bound::AtLeast(1.0)),
    row("monitor", "checked.demux_classifies", Bound::AtLeast(1.0)),
    row(
        "monitor",
        "mutations.caught",
        Bound::Eq(BugClass::ALL.len() as f64),
    ),
    row(
        "monitor",
        "recorder.postmortem_records",
        Bound::AtLeast(1.0),
    ),
    // Observer memory tracks the 256-frame sample, not 10^6 channels.
    row(
        "monitor",
        "scale.peak_observer_mem_bytes",
        Bound::AtMost(65_536.0),
    ),
    // Complexity class, not speed: O(log N) churn reads 0.7–2x here, the
    // old O(N) rebuild-per-event ~50x.
    row("churn", "ratio_4096_over_64", Bound::AtMost(8.0)),
];

/// Walks `path` (`a.b[0].c`, `[-1]` for the last element) through a
/// document.
pub fn lookup<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = v;
    for seg in path.split('.') {
        let (key, idx) = match seg.find('[') {
            Some(i) => (&seg[..i], Some(&seg[i + 1..seg.len() - 1])),
            None => (seg, None),
        };
        if !key.is_empty() {
            cur = cur.get(key)?;
        }
        if let Some(ix) = idx {
            let items = cur.items()?;
            cur = match ix {
                "-1" => items.last()?,
                _ => items.get(ix.parse::<usize>().ok()?)?,
            };
        }
    }
    Some(cur)
}

/// One evaluated row.
pub struct Verdict {
    /// The value found, when the path resolved to a number.
    pub value: Option<f64>,
    /// `Err` carries the failure.
    pub outcome: Result<(), String>,
}

/// Evaluates `row` against its report's document.
pub fn check(row: &Row, doc: &Value) -> Verdict {
    let at = format!("{} {}", row.report, row.path);
    let Some(value) = lookup(doc, row.path).and_then(Value::as_f64) else {
        return Verdict {
            value: None,
            outcome: Err(format!("{at}: no number at this path in the report")),
        };
    };
    let fail = |cmp: &str, want: f64| Err(format!("{at} = {value}, want {cmp} {want}"));
    let outcome = match row.bound {
        Bound::Eq(x) if value != x => fail("==", x),
        Bound::AtMost(x) if value > x => fail("<=", x),
        Bound::AtLeast(x) if value < x => fail(">=", x),
        _ => Ok(()),
    };
    Verdict {
        value: Some(value),
        outcome,
    }
}

/// Evaluates every table row whose report is among `reports` into the
/// `BENCH_summary.json` document: the headline value of each artifact
/// next to the bound it is held to.
pub fn summary(reports: &[(&str, Value)]) -> Value {
    let rows = TABLE.iter().filter_map(|row| {
        let (_, doc) = reports.iter().find(|(name, _)| *name == row.report)?;
        let v = check(row, doc);
        Some(Value::obj([
            ("report", row.report.into()),
            ("path", row.path.into()),
            ("bound", Value::Str(row.bound.to_string())),
            ("value", v.value.map_or(Value::Null, Value::Num)),
            ("ok", Value::Bool(v.outcome.is_ok())),
        ]))
    });
    Value::obj([("benchmark", "summary".into()), ("rows", rows.collect())])
}

/// A report is shaped when it survives the writer and the reader
/// unchanged and every table row naming it finds its number.
#[cfg(test)]
pub(crate) fn assert_shaped(report: &str, doc: &Value) {
    use unp_trace::json::{parse, write};
    assert_eq!(parse(&write(doc)).as_ref(), Ok(doc));
    let rows: Vec<&Row> = TABLE.iter().filter(|r| r.report == report).collect();
    assert!(!rows.is_empty(), "no gate row names report {report}");
    for row in rows {
        let v = check(row, doc);
        assert!(v.value.is_some(), "{:?}", v.outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unp_trace::json::{parse, write};

    #[test]
    fn lookup_walks_nested_paths() {
        let doc = parse(r#"{"a": {"b": [{"c": 7}, {"c": 9}]}, "n": 1.5}"#).unwrap();
        assert_eq!(lookup(&doc, "a.b[0].c").and_then(Value::as_u64), Some(7));
        assert_eq!(lookup(&doc, "a.b[-1].c").and_then(Value::as_u64), Some(9));
        assert_eq!(lookup(&doc, "n").and_then(Value::as_f64), Some(1.5));
        assert_eq!(lookup(&doc, "a.missing"), None);
        assert_eq!(lookup(&doc, "n[0]"), None, "scalar is not indexable");
    }

    /// The smallest document with `value` at `path`.
    fn doc_with(path: &str, value: f64) -> Value {
        path.rsplit('.')
            .fold(Value::Num(value), |inner, seg| match seg.split_once('[') {
                Some((key, _)) => Value::obj([(key, Value::Arr(vec![inner]))]),
                None => Value::obj([(seg, inner)]),
            })
    }

    /// A value satisfying `bound` and the nearest one violating it.
    fn inside_and_across(bound: Bound) -> (f64, f64) {
        match bound {
            Bound::Eq(x) => (x, x + 1.0),
            Bound::AtMost(x) => (x, x * 1.001 + 0.001),
            Bound::AtLeast(x) => (x, x * 0.999 - 0.001),
        }
    }

    #[test]
    fn every_row_flips_at_its_bound_and_fails_on_a_renamed_field() {
        for row in TABLE {
            let (inside, across) = inside_and_across(row.bound);
            let pass = check(row, &doc_with(row.path, inside));
            assert_eq!(pass.outcome, Ok(()), "{} {}", row.report, row.path);
            let fail = check(row, &doc_with(row.path, across));
            let msg = fail.outcome.expect_err("value across the bound must fail");
            assert!(msg.contains(row.path) && msg.contains(row.report), "{msg}");
            // A renamed field is a failure that names the path, never a pass.
            let renamed = format!("{}_renamed", row.path);
            let gone = check(row, &doc_with(&renamed, inside));
            assert_eq!(gone.value, None);
            assert!(gone.outcome.unwrap_err().contains(row.path));
        }
    }

    #[test]
    fn summary_parses_even_with_everything_missing() {
        // Reports that carry none of their gated fields: every row is
        // present, unresolved and failed — and the document still
        // round-trips.
        let empty: Vec<(&str, Value)> = (TABLE.iter())
            .map(|r| (r.report, Value::Obj(vec![])))
            .collect();
        let v = summary(&empty);
        let rows = v.get("rows").and_then(Value::items).unwrap();
        assert_eq!(rows.len(), TABLE.len());
        for r in rows {
            assert_eq!(r.get("value"), Some(&Value::Null));
            assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        }
        assert_eq!(parse(&write(&v)), Ok(v));
    }
}
