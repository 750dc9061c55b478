//! Exporters: Chrome/Perfetto `trace.json` and a plain-text timeline.
//!
//! Both renderers are pure functions of the recorded [`EventLog`]s —
//! hand-rolled byte writing, fixed key order, integer-derived microsecond
//! stamps — so the emitted bytes inherit the logs' determinism and can be
//! `diff`ed across runs and `--jobs` counts, which is exactly what the CI
//! determinism job does with them.
//!
//! Each export is one pass into an [`io::Write`]: integers are formatted
//! straight into the writer and each interned name is escaped once per
//! log, so a caller streaming to a file never holds the rendering in
//! memory. [`chrome_trace`] and [`text_timeline`] are the same writers
//! aimed at a `Vec<u8>`.

use crate::record::{Event, EventKind, EventLog};
use qla_report::json_escape;
use std::io::{self, Write};

/// Render logs as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). One log = one process row (pid = slice
/// index, process name = the log's label); one track = one thread row
/// (tid = first-use order). Timestamps are microseconds with the
/// nanosecond remainder as three fixed decimals.
#[must_use]
pub fn chrome_trace(logs: &[EventLog]) -> String {
    render(|out| write_chrome_trace(logs, out))
}

/// Write [`chrome_trace`]'s bytes into `out`, in one pass.
///
/// # Errors
/// Returns the first error `out` reports.
pub fn write_chrome_trace(logs: &[EventLog], out: &mut impl Write) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\":[")?;
    for (pid, log) in logs.iter().enumerate() {
        // Every entry but the first follows a comma.
        out.write_all(if pid == 0 { b"\n" } else { b",\n" })?;
        out.write_all(b"{\"ph\":\"M\",\"pid\":")?;
        write_u64(out, pid as u64)?;
        out.write_all(b",\"name\":\"process_name\",\"args\":{\"name\":")?;
        out.write_all(json_escape(log.label()).as_bytes())?;
        out.write_all(b"}}")?;
        for (tid, track) in log.tracks().iter().enumerate() {
            out.write_all(b",\n{\"ph\":\"M\",\"pid\":")?;
            write_u64(out, pid as u64)?;
            out.write_all(b",\"tid\":")?;
            write_u64(out, tid as u64)?;
            out.write_all(b",\"name\":\"thread_name\",\"args\":{\"name\":")?;
            out.write_all(json_escape(track).as_bytes())?;
            out.write_all(b"}}")?;
        }
        let names: Vec<String> = log.names().iter().map(|n| json_escape(n)).collect();
        for event in log.events() {
            let phase: &[u8] = match event.kind {
                EventKind::Span { .. } => b",\n{\"ph\":\"X\",\"pid\":",
                EventKind::Instant => b",\n{\"ph\":\"i\",\"pid\":",
                EventKind::Counter { .. } => b",\n{\"ph\":\"C\",\"pid\":",
            };
            out.write_all(phase)?;
            write_u64(out, pid as u64)?;
            out.write_all(b",\"tid\":")?;
            write_u64(out, u64::from(event.track))?;
            out.write_all(b",\"ts\":")?;
            write_us(out, event.ts_ns)?;
            let name = names[event.name as usize].as_bytes();
            match event.kind {
                EventKind::Span { dur_ns } => {
                    out.write_all(b",\"dur\":")?;
                    write_us(out, dur_ns)?;
                    out.write_all(b",\"name\":")?;
                    out.write_all(name)?;
                    out.write_all(b"}")?;
                }
                EventKind::Instant => {
                    out.write_all(b",\"s\":\"t\",\"name\":")?;
                    out.write_all(name)?;
                    out.write_all(b"}")?;
                }
                EventKind::Counter { value } => {
                    out.write_all(b",\"name\":")?;
                    out.write_all(name)?;
                    out.write_all(b",\"args\":{\"value\":")?;
                    write_u64(out, value)?;
                    out.write_all(b"}}")?;
                }
            }
        }
    }
    out.write_all(b"\n]}\n")
}

/// Render logs as a deterministic plain-text timeline: one section per
/// log, events ordered by (timestamp, record order), one line each.
#[must_use]
pub fn text_timeline(logs: &[EventLog]) -> String {
    render(|out| write_text_timeline(logs, out))
}

/// Write [`text_timeline`]'s bytes into `out`, in one pass per log.
///
/// # Errors
/// Returns the first error `out` reports.
pub fn write_text_timeline(logs: &[EventLog], out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# qla-obs timeline — {} process(es), integer virtual-time stamps",
        logs.len()
    )?;
    for log in logs {
        let events = log.events();
        writeln!(out, "== {} ({} events) ==", log.label(), events.len())?;
        for i in time_order(events) {
            let e = &events[i as usize];
            let mut digits = [b' '; 20];
            let len = digits.len();
            let start = format_u64(&mut digits, e.ts_ns);
            out.write_all(b"[")?;
            out.write_all(&digits[start.min(len - 12)..])?;
            out.write_all(match e.kind {
                EventKind::Span { .. } => b" ns] span    ",
                EventKind::Instant => b" ns] instant ",
                EventKind::Counter { .. } => b" ns] counter ",
            })?;
            out.write_all(log.tracks()[e.track as usize].as_bytes())?;
            out.write_all(b" ")?;
            out.write_all(log.name(e).as_bytes())?;
            match e.kind {
                EventKind::Span { dur_ns } => {
                    out.write_all(b" dur=")?;
                    write_u64(out, dur_ns)?;
                }
                EventKind::Instant => {}
                EventKind::Counter { value } => {
                    out.write_all(b" = ")?;
                    write_u64(out, value)?;
                }
            }
            out.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Event indices ordered by (timestamp, record index).
///
/// Recorders append in near-time order: the sim, for one, records a
/// sojourn span at its item's arrival only once the item completes. The
/// events that stay at or above the running maximum stamp go first and
/// the stragglers after them, so the stable sort merges two runs instead
/// of re-sorting the log. No event after a straggler can share its stamp
/// while staying on the running maximum, so ties keep record order.
fn time_order(events: &[Event]) -> Vec<u32> {
    let mut order = Vec::with_capacity(events.len());
    let mut stragglers = Vec::new();
    let mut latest = 0;
    for (i, event) in events.iter().enumerate() {
        let i = u32::try_from(i).expect("fewer than 2^32 events per log");
        if event.ts_ns >= latest {
            latest = event.ts_ns;
            order.push(i);
        } else {
            stragglers.push(i);
        }
    }
    order.append(&mut stragglers);
    order.sort_by_key(|&i| events[i as usize].ts_ns);
    order
}

/// Run a writer into memory; the writers emit only UTF-8.
fn render(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("exports are UTF-8")
}

/// Right-align the decimal digits of `n` in `buf`; returns where they
/// start.
fn format_u64(buf: &mut [u8; 20], mut n: u64) -> usize {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return start;
        }
    }
}

fn write_u64(out: &mut impl Write, n: u64) -> io::Result<()> {
    let mut buf = [0; 20];
    let start = format_u64(&mut buf, n);
    out.write_all(&buf[start..])
}

/// Microseconds with the nanosecond remainder as three fixed decimals
/// (`1234567` ns → `1234.567`). Integer arithmetic only: the rendering is
/// exact and byte-stable.
fn write_us(out: &mut impl Write, ns: u64) -> io::Result<()> {
    write_u64(out, ns / 1_000)?;
    let frac = ns % 1_000;
    out.write_all(&[
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ])
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
    fn timeline_keeps_record_order_among_ties_with_out_of_order_spans() {
        // The sim records a sojourn span at its item's arrival time once
        // the item completes, so spans land behind later stamps.
        let mut log = EventLog::for_point(ObsConfig::full(), "p");
        log.instant("admission", "admit", 100);
        log.span("channel", "edge-0", 200, 50);
        log.span("item", "sojourn", 100, 150);
        log.instant("admission", "admit", 100);
        log.span("item", "sojourn", 0, 250);
        let text = text_timeline(std::slice::from_ref(&log));
        let lines: Vec<&str> = text.lines().skip(2).collect();
        assert_eq!(
            lines,
            [
                "[           0 ns] span    item sojourn dur=250",
                "[         100 ns] instant admission admit",
                "[         100 ns] span    item sojourn dur=150",
                "[         100 ns] instant admission admit",
                "[         200 ns] span    channel edge-0 dur=50",
            ]
        );
    }

    #[test]
    fn time_order_equals_a_full_sort_by_stamp_then_record_index() {
        // Few distinct stamps in a shuffled order: many ties, many
        // stragglers, and stragglers tied with later in-order events.
        let mut state = 2005u64;
        let events: Vec<Event> = (0..2_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                Event {
                    ts_ns: (state >> 33) % 64 + (state >> 63) * 1_000,
                    track: 0,
                    name: 0,
                    kind: EventKind::Instant,
                }
            })
            .collect();
        let mut expected: Vec<u32> = (0..2_000).collect();
        expected.sort_by_key(|&i| (events[i as usize].ts_ns, i));
        assert_eq!(time_order(&events), expected);
    }

    #[test]
    fn writers_equal_the_string_renderings() {
        let mut second = demo_log();
        second.set_label("other");
        second.counter("edge-0-1", "queue", 1_234_567_890_123_456, u64::MAX);
        let logs = [demo_log(), second];
        let mut chrome = Vec::new();
        write_chrome_trace(&logs, &mut chrome).unwrap();
        assert_eq!(chrome, chrome_trace(&logs).into_bytes());
        let mut timeline = Vec::new();
        write_text_timeline(&logs, &mut timeline).unwrap();
        assert_eq!(timeline, text_timeline(&logs).into_bytes());
        let timeline = String::from_utf8(timeline).unwrap();
        assert!(timeline
            .contains("[1234567890123456 ns] counter edge-0-1 queue = 18446744073709551615\n"));
        let chrome = String::from_utf8(chrome).unwrap();
        assert!(chrome.contains("\"ts\":1234567890123.456,"));
        assert!(chrome.contains("\"args\":{\"value\":18446744073709551615}"));
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
        log.instant("t\tu", "x\\y", 0);
        log.span("t\tu", "x\\y", 1, 2);
        log.counter("t\tu", "q\"\n", 3, 4);
        let trace = chrome_trace(std::slice::from_ref(&log));
        assert!(trace.contains("a\\\"b"));
        assert!(trace.contains("\"args\":{\"name\":\"t\\tu\"}"));
        assert_eq!(trace.matches("\"name\":\"x\\\\y\"}").count(), 2);
        assert!(trace.contains("\"name\":\"q\\\"\\n\",\"args\""));
        // The timeline prints names verbatim.
        let timeline = text_timeline(std::slice::from_ref(&log));
        assert!(timeline.contains("== a\"b (3 events) =="));
        assert!(timeline.contains("instant t\tu x\\y\n"));
        assert!(timeline.contains("counter t\tu q\"\n = 4\n"));
    }
}
