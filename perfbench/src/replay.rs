//! `trace-factor128` and `trace-factor128-recorded`: the committed
//! 128-bit QCLA adder trace, parsed, placed, lowered, planned by the greedy
//! scheduler, expanded into work items and replayed through the
//! discrete-event engine on a 1024-qubit `expected` machine (the default
//! 400-qubit machine cannot place its 777 qubits).
//!
//! The recorded variant replays into a full-detail `EventLog` and renders
//! both exports into memory; the difference between the two workloads is
//! the cost of recording. The input is the committed file, so the seed does
//! not change it.

use crate::spans::Tracer;
use crate::{
    median_or_zero, per_group_seconds, phase_budget, repeated_setup, set_end_to_end,
    set_self_times, set_setup_layers, timed_passes, tracing_overhead_s, Args, Outcome,
};
use qla_bench::experiments::sim_support::{machine_mesh, sim_config};
use qla_core::{fnv1a64, MachineSpec};
use qla_obs::{export, EventLog, Noop, ObsConfig};
use qla_report::{row, Column, Format, Report};
use qla_sched::Mesh;
use qla_sim::{simulate_observed, FaultTimeline, LatencySummary, SimConfig};
use qla_trace::{schedule_trace, trace_work_items, Placement, Trace, TraceTraffic};

/// The committed trace, relative to the repository root.
pub const TRACE_PATH: &str = "crates/bench/tests/data/factor128-qcla-adder.trace";

/// What a correct replay of the committed trace produces, measured at the
/// commit that introduced this benchmark (unrecorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Channel requests the scheduler routes.
    pub requests: usize,
    /// EPR pairs delivered.
    pub pairs: usize,
    /// Windows of the greedy plan.
    pub analytic_windows: usize,
    /// Windows the simulated replay spans.
    pub sim_windows: usize,
    /// Engine events.
    pub events: u64,
    /// FNV-1a 64 of the per-item sojourn times (ns, little-endian).
    pub sojourn_digest: u64,
}

/// The pinned replay result.
pub const EXPECTED: Expected = Expected {
    requests: 4_608,
    pairs: 225_792,
    analytic_windows: 45,
    sim_windows: 270,
    events: 3_128_514,
    sojourn_digest: 0xd4bc_4648_2ddd_f357,
};

/// FNV-1a 64 digests of the recorded run's Chrome trace and text timeline.
pub const CHROME_DIGEST: u64 = 0x9982_83d3_5740_9e77;
/// See [`CHROME_DIGEST`].
pub const TIMELINE_DIGEST: u64 = 0xee16_d615_a1ee_b40c;

/// Set-up also replays a generated 16-bit QCLA adder, unrecorded, as a
/// warm-up whose result is pinned like [`EXPECTED`].
pub const REFERENCE_BITS: usize = 16;

/// The pinned result of the set-up reference replay.
pub const REFERENCE: Expected = Expected {
    requests: 576,
    pairs: 28_224,
    analytic_windows: 20,
    sim_windows: 37,
    events: 385_790,
    sojourn_digest: 0x0578_c821_439b_f3ff,
};

struct Setup {
    text: String,
    mesh: Mesh,
    cfg: SimConfig,
    /// What the set-up reference replay produced.
    reference: Result<Expected, String>,
}

fn setup(tracer: &Tracer, group: u64) -> Result<Setup, String> {
    let mut spec = MachineSpec::expected();
    spec.name = "factor128".to_string();
    spec.logical_qubits = 1024;
    let spec_text = spec.render();
    let spec = tracer
        .span("core.spec_parse", None, group, |_| {
            MachineSpec::parse(&spec_text)
        })
        .map_err(|e| format!("spec parse: {e}"))?;
    let machine = tracer
        .span("core.machine_build", None, group, |_| spec.machine())
        .map_err(|e| format!("machine build: {e}"))?;
    let text = std::fs::read_to_string(TRACE_PATH)
        .map_err(|e| format!("reading {TRACE_PATH} (run from the repository root): {e}"))?;
    let mut setup = Setup {
        text,
        mesh: machine_mesh(&machine),
        cfg: sim_config(&machine, &spec.sweep.sim, None),
        reference: Err(String::new()),
    };
    let reference = qla_trace::generators::qcla_adder(REFERENCE_BITS).render();
    setup.reference = pass(&setup, &reference, &Tracer::new(false), 0, 0, false).map(|r| r.got);
    Ok(setup)
}

/// What one pass produced.
struct Replayed {
    got: Expected,
    report: String,
    /// Recorded events and the two exports' sizes and digests.
    recording: Option<Recording>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Recording {
    events: usize,
    chrome: (usize, u64),
    timeline: (usize, u64),
}

fn pass(
    setup: &Setup,
    text: &str,
    tracer: &Tracer,
    group: u64,
    parent: u64,
    recorded: bool,
) -> Result<Replayed, String> {
    let trace = tracer
        .span("trace.parse", Some(parent), group, |_| Trace::parse(text))
        .map_err(|e| format!("trace parse: {e}"))?;
    let mesh = &setup.mesh;
    let traffic = tracer.span("trace.lower", Some(parent), group, |_| {
        let placement = Placement::spread(mesh, &trace);
        TraceTraffic::lower(&trace, mesh, &placement)
    });
    let plan = tracer.span("sched.schedule", Some(parent), group, |_| {
        schedule_trace(&traffic, mesh)
    });
    let items = tracer.span("trace.work_items", Some(parent), group, |_| {
        trace_work_items(&traffic, &plan, setup.cfg.window)
    });
    let faults = FaultTimeline::default();
    let (outcome, log) = tracer.span("sim.simulate", Some(parent), group, |_| {
        if recorded {
            let mut log = EventLog::for_point(ObsConfig::full(), "factor128");
            let outcome = simulate_observed(mesh, &setup.cfg, &items, &faults, &mut log);
            (outcome, Some(log))
        } else {
            (
                simulate_observed(mesh, &setup.cfg, &items, &faults, &mut Noop),
                None,
            )
        }
    });
    let recording = log.map(|log| {
        let logs = std::slice::from_ref(&log);
        // Each export is hashed and dropped before the next is built, so
        // the peak holds one rendering at a time.
        let digest = |s: String| (s.len(), fnv1a64(s.as_bytes()));
        let chrome = tracer.span("obs.export_chrome", Some(parent), group, |_| {
            digest(export::chrome_trace(logs))
        });
        let timeline = tracer.span("obs.export_timeline", Some(parent), group, |_| {
            digest(export::text_timeline(logs))
        });
        Recording {
            events: log.events().len(),
            chrome,
            timeline,
        }
    });
    let sojourns = outcome.sojourns();
    let sojourn_bytes: Vec<u8> = sojourns
        .iter()
        .flat_map(|t| t.nanos().to_le_bytes())
        .collect();
    let got = Expected {
        requests: plan.requests,
        pairs: plan.pairs,
        analytic_windows: plan.total_windows,
        sim_windows: outcome.windows_used(setup.cfg.window),
        events: outcome.events,
        sojourn_digest: fnv1a64(&sojourn_bytes),
    };
    let report = tracer.span("report.render", Some(parent), group, |_| {
        let sojourn = LatencySummary::of(&sojourns);
        let mut report = Report::new("factor128-replay", "Factor-128 QCLA adder trace replay")
            .with_columns([
                Column::new("program"),
                Column::new("requests"),
                Column::new("pairs"),
                Column::new("analytic windows"),
                Column::new("sim windows"),
                Column::with_unit("p50 sojourn", "ms"),
                Column::with_unit("p99 sojourn", "ms"),
                Column::new("events"),
            ]);
        report.push_row(row![
            trace.name(),
            got.requests,
            got.pairs,
            got.analytic_windows,
            got.sim_windows,
            sojourn.p50_ns as f64 / 1e6,
            sojourn.p99_ns as f64 / 1e6,
            got.events
        ]);
        report.render(Format::Text)
    });
    Ok(Replayed {
        got,
        report,
        recording,
    })
}

/// Run one of the two trace workloads.
pub fn run(args: &Args, tracer: &Tracer, recorded: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let untraced = Tracer::new(false);
    let (setup, setup_s) = repeated_setup(|group| setup(tracer, group))?;
    // The reference replay counts as one checked operation.
    outcome.check(1, setup.reference == Ok(REFERENCE), || {
        format!(
            "reference replay {:?} != pinned {REFERENCE:?}",
            setup.reference
        )
    });

    let mut first_report: Option<String> = None;
    let mut check = |outcome: &mut Outcome, replayed: &Result<Replayed, String>| {
        let verdict = match replayed {
            Err(e) => Err(e.clone()),
            Ok(r) => {
                let first = first_report.get_or_insert_with(|| r.report.clone());
                let recording_ok = r.recording.map_or(!recorded, |rec| {
                    rec.chrome.1 == CHROME_DIGEST && rec.timeline.1 == TIMELINE_DIGEST
                });
                if r.got != EXPECTED {
                    Err(format!("replay {:?} != expected {EXPECTED:?}", r.got))
                } else if r.got.sim_windows < r.got.analytic_windows {
                    Err("sim windows below the analytic plan".to_string())
                } else if !recording_ok {
                    Err(format!(
                        "export digests {:?} differ from the pinned ones",
                        r.recording
                    ))
                } else if r.report != *first {
                    Err("report bytes differ from the first pass".to_string())
                } else {
                    Ok(())
                }
            }
        };
        let ok = verdict.is_ok();
        outcome.check(1, ok, || verdict.unwrap_err());
    };

    let plain = timed_passes(&untraced, phase_budget(args), 2, |group, id| {
        pass(&setup, &setup.text, &untraced, group, id, recorded)
    });
    let mut passes = Vec::new();
    let mut last = None;
    for (spent, replayed) in &plain {
        check(&mut outcome, replayed);
        if let Ok(r) = replayed {
            passes.push((*spent, r.got.events as f64));
            last = Some((r.got, r.recording));
        }
    }
    drop(plain);
    set_end_to_end(
        &mut outcome,
        tracer.enabled(),
        &setup_s,
        &passes,
        "sim_events",
    );

    if tracer.enabled() {
        let traced = timed_passes(tracer, phase_budget(args), 2, |group, id| {
            pass(&setup, &setup.text, tracer, group, id, recorded)
        });
        let traced_spent: Vec<_> = traced.iter().map(|(s, _)| *s).collect();
        for (_, replayed) in &traced {
            check(&mut outcome, replayed);
        }
        drop(traced);
        let spans = tracer.spans();
        set_setup_layers(&mut outcome, &spans);
        for (metric, name) in [
            ("trace.parse_s", "trace.parse"),
            ("trace.lower_s", "trace.lower"),
            ("sched.schedule_s", "sched.schedule"),
            ("trace.work_items_s", "trace.work_items"),
            ("sim.simulate_s", "sim.simulate"),
            ("obs.export_chrome_s", "obs.export_chrome"),
            ("obs.export_timeline_s", "obs.export_timeline"),
            ("report.render_s", "report.render"),
        ] {
            outcome.set(metric, median_or_zero(&per_group_seconds(&spans, name)));
        }
        if let Some((got, recording)) = last {
            let simulate = outcome.metrics["sim.simulate_s"];
            outcome.set("sim.events", got.events as f64);
            outcome.set("sim.events_per_busy_s", got.events as f64 / simulate);
            outcome.set("sched.requests", got.requests as f64);
            if let Some(rec) = recording {
                outcome.set("obs.events_recorded", rec.events as f64);
                outcome.set("obs.export_bytes", (rec.chrome.0 + rec.timeline.0) as f64);
            }
        }
        let untraced_spent: Vec<_> = passes.iter().map(|(s, _)| *s).collect();
        outcome.set(
            "bench.tracing_overhead_s",
            tracing_overhead_s(&traced_spent, &untraced_spent),
        );
        set_self_times(&mut outcome, &spans, traced_spent.len());
    }
    if let Some((got, recording)) = last {
        outcome.notes.push(format!(
            "factor-128 replay: sim windows {} vs analytic windows {} (queueing excess {}); \
             {} requests, {} pairs, {} engine events",
            got.sim_windows,
            got.analytic_windows,
            got.sim_windows as i64 - got.analytic_windows as i64,
            got.requests,
            got.pairs,
            got.events
        ));
        if let Some(rec) = recording {
            outcome.notes.push(format!(
                "recorded {} events; chrome trace {} bytes ({:#018x}), timeline {} bytes ({:#018x})",
                rec.events, rec.chrome.0, rec.chrome.1, rec.timeline.0, rec.timeline.1
            ));
        }
    }
    Ok(outcome)
}
