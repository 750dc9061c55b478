//! Wall-clock spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] is either off (every call is a branch and nothing else) or
//! on, in which case each [`Tracer::span`] call records one [`Span`] with
//! its name, start, end, parent and group in memory. The group ties the
//! spans of one unit of work together: a pass of a batch workload, or one
//! request of the serve workload. Spans are written out once, when the
//! run ends, so disk writes never land inside a timed region.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover (the union of the child intervals, so children
//! running in parallel on two workers are not counted twice). Summing self
//! time by layer — the span name up to its first `.` — tells where a
//! pass's wall time went.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The unit of work this span belongs to (pass index or request id).
    pub group: u64,
    /// `<layer>.<operation>`, e.g. `sched.schedule`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span times: its name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The in-memory span recorder shared by every thread of a run. Clones
/// share one log.
#[derive(Clone)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and otherwise does nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's id
    /// so it can parent spans of its own (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        group: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns,
        });
        result
    }

    /// Reserve a span id before the span's interval is known: a request
    /// whose server-side children are recorded while it is in flight.
    /// Returns 0 when tracing is off.
    pub fn reserve_id(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span measured elsewhere, under an id from
    /// [`Tracer::reserve_id`] (ignored when tracing is off).
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.push(Span {
            id,
            parent,
            group,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write every span as one tab-separated line
    /// (`id parent group name start_ns end_ns self_ns`).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_tsv(&self, out: impl Write) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = std::io::BufWriter::new(out);
        writeln!(out, "id\tparent\tgroup\tname\tstart_ns\tend_ns\tself_ns")?;
        for span in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                span.id,
                span.parent.unwrap_or(0),
                span.group,
                span.name,
                span.start_ns,
                span.end_ns,
                self_ns[&span.id]
            )?;
        }
        out.flush()
    }
}

/// The self time of every span, keyed by id: its duration minus the length
/// of the union of its children's intervals, clipped to its own.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get(&span.id)
                .map_or(0, |c| covered_ns(c, span.start_ns, span.end_ns));
            (span.id, span.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time summed by layer, in seconds.
#[must_use]
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let self_ns = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for span in spans {
        *by_layer.entry(span.layer()).or_insert(0.0) += self_ns[&span.id] as f64 / 1e9;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_once() {
        // Two children overlap in [30, 40) (parallel workers): the union is
        // [20, 60), 40 ns, so the parent keeps 100 - 40 = 60 ns.
        let spans = vec![
            span(1, None, "core.montecarlo.sweep", 0, 100),
            span(2, Some(1), "core.montecarlo.point", 20, 40),
            span(3, Some(1), "core.montecarlo.point", 30, 60),
        ];
        let self_ns = self_times(&spans);
        assert_eq!(self_ns[&1], 60);
        assert_eq!(self_ns[&2], 20);
        assert_eq!(self_ns[&3], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, None, "serve.request", 100, 200),
            span(2, Some(1), "serve.eval", 50, 150),
            span(3, Some(1), "serve.lookup", 190, 260),
        ];
        let self_ns = self_times(&spans);
        assert_eq!(self_ns[&1], 100 - 50 - 10);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span(1, None, "bench.pass", 0, 1_000),
            span(2, Some(1), "sim.simulate", 100, 600),
            span(3, Some(2), "obs.export_chrome", 200, 300),
        ];
        let self_ns = self_times(&spans);
        assert_eq!(self_ns[&1], 500);
        assert_eq!(self_ns[&2], 400);
        assert_eq!(self_ns[&3], 100);
        let by_layer = self_seconds_by_layer(&spans);
        assert!((by_layer["bench"] - 500e-9).abs() < 1e-15);
        assert!((by_layer["sim"] - 400e-9).abs() < 1e-15);
        assert!((by_layer["obs"] - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_hands_out_id_zero() {
        let tracer = Tracer::new(false);
        let seen = tracer.span("core.spec_parse", None, 0, |id| id);
        assert_eq!(seen, 0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_links_children_to_parents() {
        let tracer = Tracer::new(true);
        tracer.span("bench.pass", None, 7, |pass| {
            tracer.span("trace.parse", Some(pass), 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let pass = spans.iter().find(|s| s.name == "bench.pass").unwrap();
        let parse = spans.iter().find(|s| s.name == "trace.parse").unwrap();
        assert_eq!(parse.parent, Some(pass.id));
        assert!(spans.iter().all(|s| s.group == 7));
        assert!(pass.start_ns <= parse.start_ns && parse.end_ns <= pass.end_ns);
    }
}
