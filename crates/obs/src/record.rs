//! The recorder trait and its structured [`EventLog`] implementation.
//!
//! Instrumented code writes against [`Recorder`] so the off path stays a
//! trait-object call returning `false` from [`Recorder::enabled`]; the hot
//! sites hoist that check and skip building track names and arguments
//! entirely. The [`EventLog`] implementation appends to plain vectors in
//! call order — no interior mutability, no clocks — so two runs that make
//! the same calls hold byte-identical logs.
//!
//! Track and event names are interned: the log stores each distinct name
//! once and an [`Event`] holds `u32` ids into those tables, numbered in
//! first-use order so the ids are a deterministic function of the call
//! sequence. An event is a small `Copy` record with no heap data of its own.

use serde::Serialize;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// How much the recorder keeps. `Light` drops the high-volume per-round
/// channel spans and queue-depth samples that dominate log size on long
/// horizons; `Full` keeps everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ObsDetail {
    /// Admission, factory, item, fault, and request events only.
    Light,
    /// Everything, including per-round channel spans and queue samples.
    Full,
}

impl ObsDetail {
    /// The spec-file token (`sweep.obs.detail = full|light`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            ObsDetail::Light => "light",
            ObsDetail::Full => "full",
        }
    }

    /// Parse a spec-file token; `None` for anything unknown.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "light" => Some(ObsDetail::Light),
            "full" => Some(ObsDetail::Full),
            _ => None,
        }
    }
}

/// Recorder configuration, sourced from the `sweep.obs.*` spec section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ObsConfig {
    /// Whether recording is on at all. Off is the default everywhere: the
    /// plain `run` path always uses an off config, so observability can
    /// never perturb a golden byte.
    pub enabled: bool,
    /// Detail level for the high-volume tracks.
    pub detail: ObsDetail,
    /// Keep every `sample_every`-th counter sample per track (1 = all).
    /// Spans and instants are never sampled — thinning them would make the
    /// timeline lie about occupancy.
    pub sample_every: u32,
}

impl ObsConfig {
    /// Recording disabled (the default for every unobserved run).
    #[must_use]
    pub fn off() -> Self {
        ObsConfig {
            enabled: false,
            detail: ObsDetail::Full,
            sample_every: 1,
        }
    }

    /// Recording on at full detail, no counter sampling.
    #[must_use]
    pub fn full() -> Self {
        ObsConfig {
            enabled: true,
            detail: ObsDetail::Full,
            sample_every: 1,
        }
    }

    /// Recording on at light detail, no counter sampling.
    #[must_use]
    pub fn light() -> Self {
        ObsConfig {
            enabled: true,
            detail: ObsDetail::Light,
            sample_every: 1,
        }
    }
}

/// What one recorded [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed interval starting at the event timestamp.
    Span {
        /// Duration, nanoseconds.
        dur_ns: u64,
    },
    /// A point event.
    Instant,
    /// A counter sample (the tracked value at the event timestamp).
    Counter {
        /// Sampled value.
        value: u64,
    },
}

/// One recorded event on one track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Integer virtual-time stamp, nanoseconds. Never wall-clock derived.
    pub ts_ns: u64,
    /// Index into the owning log's [track table](EventLog::tracks), in
    /// first-use order.
    pub track: u32,
    /// Id of the event name (span/instant name, or the counter's series
    /// name) in the owning log's [name table](EventLog::names), in
    /// first-use order; [`EventLog::name`] resolves it.
    pub name: u32,
    /// Span, instant, or counter sample.
    pub kind: EventKind,
}

/// FNV-1a: the interned names are short and chosen by the program, so a
/// cheap hash beats the default SipHash on the per-event lookup.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Distinct strings numbered in first-use order.
#[derive(Debug, Clone, Default, PartialEq)]
struct Interner {
    strings: Vec<String>,
    ids: HashMap<String, u32, BuildHasherDefault<Fnv>>,
}

impl Interner {
    /// The id of `s`, adding it on first use.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("fewer than 2^32 distinct names");
        self.strings.push(s.to_owned());
        self.ids.insert(s.to_owned(), id);
        id
    }
}

/// The instrumentation sink. Implementations must be deterministic
/// functions of the call sequence: no clocks, no global state.
pub trait Recorder {
    /// Cheap gate for the hot paths: when `false`, every record call is a
    /// no-op and call sites should skip building names and arguments.
    fn enabled(&self) -> bool;
    /// The active detail level; sites gating high-volume tracks check this
    /// once per site, after [`Recorder::enabled`].
    fn detail(&self) -> ObsDetail;
    /// Record a closed interval `[start_ns, start_ns + dur_ns]`.
    fn span(&mut self, track: &str, name: &str, start_ns: u64, dur_ns: u64);
    /// Record a point event.
    fn instant(&mut self, track: &str, name: &str, ts_ns: u64);
    /// Record a counter sample (subject to the configured sampling stride).
    fn counter(&mut self, track: &str, name: &str, ts_ns: u64, value: u64);
}

/// The always-off recorder: [`Recorder::enabled`] is `false` and every
/// record call does nothing. The plain `simulate`/`handle_burst` entry
/// points thread this through, which is what "zero overhead when off"
/// means in practice.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Recorder for Noop {
    fn enabled(&self) -> bool {
        false
    }
    fn detail(&self) -> ObsDetail {
        ObsDetail::Light
    }
    fn span(&mut self, _track: &str, _name: &str, _start_ns: u64, _dur_ns: u64) {}
    fn instant(&mut self, _track: &str, _name: &str, _ts_ns: u64) {}
    fn counter(&mut self, _track: &str, _name: &str, _ts_ns: u64, _value: u64) {}
}

/// A structured, appendable event log. One log is one Perfetto *process*
/// row (its [`label`](EventLog::label) is the process name); each distinct
/// track becomes one thread row, numbered in first-use order so track ids
/// are a deterministic function of the call sequence alone. Event names
/// are interned the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    label: String,
    config: ObsConfig,
    tracks: Interner,
    names: Interner,
    events: Vec<Event>,
    /// Per-track counter samples seen, for the sampling stride.
    counter_seen: Vec<u64>,
}

impl EventLog {
    /// A log for one sweep point (or one service pass). `label` names the
    /// process row in the exported trace.
    #[must_use]
    pub fn for_point(config: ObsConfig, label: impl Into<String>) -> Self {
        EventLog {
            label: label.into(),
            config,
            tracks: Interner::default(),
            names: Interner::default(),
            events: Vec::new(),
            counter_seen: Vec::new(),
        }
    }

    /// A disabled log: accepts every call, records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self::for_point(ObsConfig::off(), "off")
    }

    /// The process label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Relabel the log (per-point closures name their own point).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// Track names, in first-use order (the id space of [`Event::track`]).
    #[must_use]
    pub fn tracks(&self) -> &[String] {
        &self.tracks.strings
    }

    /// Event names, in first-use order (the id space of [`Event::name`]).
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names.strings
    }

    /// The name of `event`, a recorded event of this log.
    #[must_use]
    pub fn name(&self, event: &Event) -> &str {
        &self.names.strings[event.name as usize]
    }

    /// The recorded events, in call order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Recorded spans.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .count()
    }

    /// Recorded instants.
    #[must_use]
    pub fn instant_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Instant))
            .count()
    }

    /// Recorded counter samples (after sampling).
    #[must_use]
    pub fn counter_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Counter { .. }))
            .count()
    }

    /// Wrap the whole recorded interval in one `task` span named after the
    /// label — the per-point "executor task" row in the exported trace.
    /// Does nothing on an empty or disabled log.
    pub fn seal_task_span(&mut self) {
        if !self.config.enabled || self.events.is_empty() {
            return;
        }
        let start = self.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
        let end = self
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Span { dur_ns } => e.ts_ns.saturating_add(dur_ns),
                _ => e.ts_ns,
            })
            .max()
            .unwrap_or(start);
        let name = self.label.clone();
        self.span("task", &name, start, end - start);
    }

    /// Intern `name` and append the event to the track with id `track`.
    fn push(&mut self, track: u32, name: &str, ts_ns: u64, kind: EventKind) {
        let name = self.names.intern(name);
        self.events.push(Event {
            ts_ns,
            track,
            name,
            kind,
        });
    }
}

impl Recorder for EventLog {
    fn enabled(&self) -> bool {
        self.config.enabled
    }

    fn detail(&self) -> ObsDetail {
        self.config.detail
    }

    fn span(&mut self, track: &str, name: &str, start_ns: u64, dur_ns: u64) {
        if !self.config.enabled {
            return;
        }
        let track = self.tracks.intern(track);
        self.push(track, name, start_ns, EventKind::Span { dur_ns });
    }

    fn instant(&mut self, track: &str, name: &str, ts_ns: u64) {
        if !self.config.enabled {
            return;
        }
        let track = self.tracks.intern(track);
        self.push(track, name, ts_ns, EventKind::Instant);
    }

    fn counter(&mut self, track: &str, name: &str, ts_ns: u64, value: u64) {
        if !self.config.enabled {
            return;
        }
        let track = self.tracks.intern(track);
        let id = track as usize;
        if self.counter_seen.len() <= id {
            self.counter_seen.resize(id + 1, 0);
        }
        let seen = self.counter_seen[id];
        self.counter_seen[id] = seen + 1;
        if !seen.is_multiple_of(u64::from(self.config.sample_every.max(1))) {
            return;
        }
        self.push(track, name, ts_ns, EventKind::Counter { value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::off();
        log.span("a", "s", 0, 10);
        log.instant("a", "i", 5);
        log.counter("a", "c", 5, 1);
        log.seal_task_span();
        assert!(log.events().is_empty());
        assert!(log.tracks().is_empty());
    }

    #[test]
    fn tracks_number_in_first_use_order() {
        let mut log = EventLog::for_point(ObsConfig::full(), "p");
        log.instant("beta", "x", 0);
        log.instant("alpha", "y", 1);
        log.instant("beta", "z", 2);
        assert_eq!(log.tracks(), ["beta".to_string(), "alpha".to_string()]);
        assert_eq!(log.events()[0].track, 0);
        assert_eq!(log.events()[1].track, 1);
        assert_eq!(log.events()[2].track, 0);
    }

    #[test]
    fn names_intern_in_first_use_order_and_are_stored_once() {
        let mut log = EventLog::for_point(ObsConfig::full(), "p");
        log.instant("t", "admit", 0);
        log.span("u", "prep", 1, 2);
        log.counter("t", "admit", 3, 4);
        log.instant("u", "prep", 5);
        assert_eq!(log.names(), ["admit".to_string(), "prep".to_string()]);
        let ids: Vec<(u32, u32)> = log.events().iter().map(|e| (e.track, e.name)).collect();
        assert_eq!(ids, [(0, 0), (1, 1), (0, 0), (1, 1)]);
        let names: Vec<&str> = log.events().iter().map(|e| log.name(e)).collect();
        assert_eq!(names, ["admit", "prep", "admit", "prep"]);
    }

    #[test]
    fn events_are_small_copy_records() {
        assert!(std::mem::size_of::<Event>() <= 32);
    }

    #[test]
    fn counter_sampling_counts_per_track_after_other_kinds() {
        // The counter's track is not the first one interned.
        let mut cfg = ObsConfig::full();
        cfg.sample_every = 2;
        let mut log = EventLog::for_point(cfg, "p");
        log.instant("a", "x", 0);
        for t in 1..5 {
            log.counter("q", "depth", t, t);
        }
        let kept: Vec<u64> = log.events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, [0, 1, 3]);
    }

    #[test]
    fn counter_sampling_keeps_every_nth_per_track() {
        let mut cfg = ObsConfig::full();
        cfg.sample_every = 3;
        let mut log = EventLog::for_point(cfg, "p");
        for t in 0..9 {
            log.counter("q", "depth", t, t);
        }
        let kept: Vec<u64> = log.events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, [0, 3, 6]);
    }

    #[test]
    fn seal_task_span_wraps_the_recorded_envelope() {
        let mut log = EventLog::for_point(ObsConfig::full(), "point-3");
        log.instant("a", "start", 100);
        log.span("b", "work", 200, 50);
        log.seal_task_span();
        let last = log.events().last().unwrap();
        assert_eq!(log.name(last), "point-3");
        assert_eq!(last.ts_ns, 100);
        assert_eq!(last.kind, EventKind::Span { dur_ns: 150 });
    }

    #[test]
    fn identical_call_sequences_yield_equal_logs() {
        let record = |label: &str| {
            let mut log = EventLog::for_point(ObsConfig::full(), label);
            log.span("edge-0-1", "round", 0, 600);
            log.counter("edge-0-1", "queue", 600, 4);
            log.instant("admission", "admit", 700);
            log
        };
        assert_eq!(record("p"), record("p"));
    }

    #[test]
    fn detail_tokens_round_trip() {
        for d in [ObsDetail::Light, ObsDetail::Full] {
            assert_eq!(ObsDetail::from_token(d.token()), Some(d));
        }
        assert_eq!(ObsDetail::from_token("verbose"), None);
    }
}
