//! The metrics view of recorded logs: counters and nearest-rank
//! histograms, folded from [`EventLog`]s rather than instrumented
//! separately — one set of record calls feeds both the timeline exporters
//! and this table, so the two can never disagree about what happened.
//!
//! Rows are keyed `track/name`, sorted lexicographically, and use the
//! shared [`crate::stats`] percentiles; `qla-bench` renders them through
//! `qla-report` as a normal byte-pinned report (`--metrics`).

use crate::record::{EventKind, EventLog};
use crate::stats::percentile_u64;
use std::collections::{BTreeMap, HashMap};

/// One metrics row: either a pure event counter (instants and counter
/// samples) or a span-duration histogram summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsRow {
    /// `track/name` key.
    pub name: String,
    /// `"counter"` or `"histogram"`.
    pub kind: &'static str,
    /// Events observed (spans for histograms).
    pub count: u64,
    /// Median span duration, ns (`None` for counters).
    pub p50_ns: Option<u64>,
    /// 90th-percentile span duration, ns.
    pub p90_ns: Option<u64>,
    /// 99th-percentile span duration, ns.
    pub p99_ns: Option<u64>,
    /// Maximum span duration, ns.
    pub max_ns: Option<u64>,
}

/// Fold logs into the sorted metrics table. Instants and counter samples
/// become occurrence counters; spans become duration histograms
/// summarised at p50/p90/p99/max.
#[must_use]
pub fn metrics_rows(logs: &[EventLog]) -> Vec<MetricsRow> {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for log in logs {
        // Fold by interned (track, name) ids; each key is formatted once
        // per distinct pair, not once per event.
        let mut log_counters: HashMap<(u32, u32), u64> = HashMap::new();
        let mut log_histograms: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
        for event in log.events() {
            let ids = (event.track, event.name);
            match event.kind {
                EventKind::Span { dur_ns } => log_histograms.entry(ids).or_default().push(dur_ns),
                EventKind::Instant | EventKind::Counter { .. } => {
                    *log_counters.entry(ids).or_insert(0) += 1;
                }
            }
        }
        let key = |(track, name): (u32, u32)| {
            format!(
                "{}/{}",
                log.tracks()[track as usize],
                log.names()[name as usize]
            )
        };
        for (ids, count) in log_counters {
            *counters.entry(key(ids)).or_insert(0) += count;
        }
        for (ids, durs) in log_histograms {
            histograms.entry(key(ids)).or_default().extend(durs);
        }
    }
    let mut rows: Vec<MetricsRow> = counters
        .into_iter()
        .map(|(name, count)| MetricsRow {
            name,
            kind: "counter",
            count,
            p50_ns: None,
            p90_ns: None,
            p99_ns: None,
            max_ns: None,
        })
        .collect();
    for (name, mut durs) in histograms {
        durs.sort_unstable();
        rows.push(MetricsRow {
            name,
            kind: "histogram",
            count: durs.len() as u64,
            p50_ns: Some(percentile_u64(&durs, 50)),
            p90_ns: Some(percentile_u64(&durs, 90)),
            p99_ns: Some(percentile_u64(&durs, 99)),
            max_ns: Some(*durs.last().expect("non-empty histogram")),
        });
    }
    rows.sort_by(|a, b| (a.name.as_str(), a.kind).cmp(&(b.name.as_str(), b.kind)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ObsConfig, Recorder};

    #[test]
    fn spans_become_histograms_and_instants_become_counters() {
        let mut log = EventLog::for_point(ObsConfig::full(), "p");
        for d in [30u64, 10, 20] {
            log.span("factory", "prep", d, d);
        }
        log.instant("admission", "admit", 0);
        log.instant("admission", "admit", 1);
        log.counter("edge", "queue", 2, 9);
        let rows = metrics_rows(std::slice::from_ref(&log));
        assert_eq!(rows.len(), 3);
        // Sorted by name: admission/admit, edge/queue, factory/prep.
        assert_eq!(rows[0].name, "admission/admit");
        assert_eq!((rows[0].kind, rows[0].count), ("counter", 2));
        assert_eq!(rows[1].name, "edge/queue");
        assert_eq!(rows[1].count, 1);
        assert_eq!(rows[2].name, "factory/prep");
        assert_eq!(rows[2].kind, "histogram");
        assert_eq!(rows[2].count, 3);
        assert_eq!(rows[2].p50_ns, Some(20));
        assert_eq!(rows[2].max_ns, Some(30));
    }

    #[test]
    fn rows_merge_across_logs_deterministically() {
        let log = |n: u64| {
            let mut l = EventLog::for_point(ObsConfig::full(), format!("p{n}"));
            l.span("t", "s", n, n + 1);
            l
        };
        let rows = metrics_rows(&[log(1), log(2)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 2);
        assert_eq!(metrics_rows(&[log(1), log(2)]), rows);
    }
}
