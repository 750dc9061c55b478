//! Exporters: Chrome/Perfetto `trace.json` and a plain-text timeline.
//!
//! Both renderers are pure functions of the recorded [`EventLog`]s —
//! hand-rolled string building, fixed key order, integer-derived
//! microsecond stamps — so the emitted bytes inherit the logs' determinism
//! and can be `diff`ed across runs and `--jobs` counts, which is exactly
//! what the CI determinism job does with them.

use crate::record::{Event, EventKind, EventLog};
use qla_report::json_escape;

/// Render logs as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). One log = one process row (pid = slice
/// index, process name = the log's label); one track = one thread row
/// (tid = first-use order). Timestamps are microseconds with the
/// nanosecond remainder as three fixed decimals.
#[must_use]
pub fn chrome_trace(logs: &[EventLog]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |entry: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&entry);
    };
    for (pid, log) in logs.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_escape(log.label())
            ),
            &mut out,
        );
        for (tid, track) in log.tracks().iter().enumerate() {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                    json_escape(track)
                ),
                &mut out,
            );
        }
        for event in log.events() {
            push(trace_event(pid, event), &mut out);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// One event as one trace-JSON object.
fn trace_event(pid: usize, event: &Event) -> String {
    let tid = event.track;
    let ts = us(event.ts_ns);
    let name = json_escape(&event.name);
    match event.kind {
        EventKind::Span { dur_ns } => format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
             \"dur\":{},\"name\":{name}}}",
            us(dur_ns)
        ),
        EventKind::Instant => format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
             \"s\":\"t\",\"name\":{name}}}"
        ),
        EventKind::Counter { value } => format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
             \"name\":{name},\"args\":{{\"value\":{value}}}}}"
        ),
    }
}

/// Render logs as a deterministic plain-text timeline: one section per
/// log, events ordered by (timestamp, record order), one line each.
#[must_use]
pub fn text_timeline(logs: &[EventLog]) -> String {
    let mut out = format!(
        "# qla-obs timeline — {} process(es), integer virtual-time stamps\n",
        logs.len()
    );
    for log in logs {
        out.push_str(&format!(
            "== {} ({} events) ==\n",
            log.label(),
            log.events().len()
        ));
        let mut order: Vec<usize> = (0..log.events().len()).collect();
        order.sort_by_key(|&i| (log.events()[i].ts_ns, i));
        for i in order {
            let e = &log.events()[i];
            let track = &log.tracks()[e.track as usize];
            match e.kind {
                EventKind::Span { dur_ns } => out.push_str(&format!(
                    "[{:>12} ns] span    {track} {} dur={dur_ns}\n",
                    e.ts_ns, e.name
                )),
                EventKind::Instant => out.push_str(&format!(
                    "[{:>12} ns] instant {track} {}\n",
                    e.ts_ns, e.name
                )),
                EventKind::Counter { value } => out.push_str(&format!(
                    "[{:>12} ns] counter {track} {} = {value}\n",
                    e.ts_ns, e.name
                )),
            }
        }
    }
    out
}

/// Microseconds with the nanosecond remainder as three fixed decimals
/// (`1234567` ns → `1234.567`). Integer arithmetic only: the rendering is
/// exact and byte-stable.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ObsConfig, Recorder};

    fn demo_log() -> EventLog {
        let mut log = EventLog::for_point(ObsConfig::full(), "demo");
        log.span("factory", "ancilla-prep", 1_500, 600_000);
        log.instant("admission", "admit", 2_000);
        log.counter("edge-0-1", "queue", 2_500, 4);
        log
    }

    #[test]
    fn chrome_trace_emits_metadata_then_events() {
        let trace = chrome_trace(&[demo_log()]);
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.ends_with("]}\n"));
        let process = trace.find("\"process_name\"").unwrap();
        let thread = trace.find("\"thread_name\"").unwrap();
        let span = trace.find("\"ph\":\"X\"").unwrap();
        assert!(process < thread && thread < span);
        assert!(trace.contains("\"ts\":1.500"));
        assert!(trace.contains("\"dur\":600.000"));
        assert!(trace.contains("\"args\":{\"value\":4}"));
    }

    #[test]
    fn pids_follow_slice_order() {
        let mut second = demo_log();
        second.set_label("other");
        let trace = chrome_trace(&[demo_log(), second]);
        assert!(trace.contains("\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"demo\"}"));
        assert!(trace.contains("\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"other\"}"));
    }

    #[test]
    fn timeline_sorts_by_timestamp_then_record_order() {
        let mut log = EventLog::for_point(ObsConfig::full(), "p");
        log.instant("a", "later", 10);
        log.instant("a", "earlier", 5);
        log.instant("a", "tied", 5);
        let text = text_timeline(std::slice::from_ref(&log));
        let earlier = text.find("earlier").unwrap();
        let tied = text.find("tied").unwrap();
        let later = text.find("later").unwrap();
        assert!(earlier < tied && tied < later);
    }

    #[test]
    fn exports_are_deterministic() {
        let logs = [demo_log()];
        assert_eq!(chrome_trace(&logs), chrome_trace(&logs));
        assert_eq!(text_timeline(&logs), text_timeline(&logs));
    }

    #[test]
    fn names_are_escaped() {
        let mut log = EventLog::for_point(ObsConfig::full(), "a\"b");
        log.instant("t", "x\\y", 0);
        let trace = chrome_trace(std::slice::from_ref(&log));
        assert!(trace.contains("a\\\"b"));
        assert!(trace.contains("x\\\\y"));
    }
}
