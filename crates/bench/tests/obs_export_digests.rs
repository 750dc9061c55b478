//! Byte pins for the recorded exports.
//!
//! `obs_determinism` proves the exports are equal across `--jobs` and run
//! to run, which a change that rewrote every byte the same way would still
//! pass. This test pins the bytes themselves: a generated QCLA adder is
//! replayed at `ObsConfig::full()` on the factor-128 machine (the spec
//! perfbench's recorded replay uses), and the FNV-1a digests of the Chrome
//! trace, the text timeline and the rendered `--metrics` report must equal
//! the committed ones.

use qla_bench::cli::metrics_report;
use qla_bench::experiments::sim_support::{machine_mesh, sim_config};
use qla_core::{fnv1a64, MachineSpec};
use qla_obs::export::{chrome_trace, text_timeline};
use qla_obs::{EventLog, ObsConfig};
use qla_report::Format;
use qla_sim::{simulate_observed, FaultTimeline};
use qla_trace::{schedule_trace, trace_work_items, Placement, TraceTraffic};

/// Adder width: small enough to record and export in well under two
/// seconds in a debug build, wide enough to queue on shared edges.
const BITS: usize = 4;

fn recorded_replay() -> EventLog {
    let mut spec = MachineSpec::expected();
    spec.name = "factor128".to_string();
    spec.logical_qubits = 1024;
    let machine = spec.machine().expect("factor-128 spec builds");
    let mesh = machine_mesh(&machine);
    let cfg = sim_config(&machine, &spec.sweep.sim, None);
    let trace = qla_trace::generators::qcla_adder(BITS);
    let placement = Placement::spread(&mesh, &trace);
    let traffic = TraceTraffic::lower(&trace, &mesh, &placement);
    let plan = schedule_trace(&traffic, &mesh);
    let items = trace_work_items(&traffic, &plan, cfg.window);
    let mut log = EventLog::for_point(ObsConfig::full(), format!("qcla-adder-{BITS}"));
    let _ = simulate_observed(&mesh, &cfg, &items, &FaultTimeline::default(), &mut log);
    log
}

/// What the recorded replay exports: `(events, bytes, FNV-1a 64)` per
/// rendering, captured before the exporters were rewritten to stream.
const EVENTS: usize = 101_592;
const CHROME: (usize, u64) = (8_049_126, 0x37a6_368d_93e6_6b14);
const TIMELINE: (usize, u64) = (5_117_915, 0x219a_4dd3_c158_c2fd);
const METRICS: u64 = 0x69f6_5f99_7c90_981f;

#[test]
fn recorded_exports_match_their_pinned_digests() {
    let logs = [recorded_replay()];
    assert_eq!(logs[0].events().len(), EVENTS);
    let pin = |s: String| (s.len(), fnv1a64(s.as_bytes()));
    assert_eq!(pin(chrome_trace(&logs)), CHROME, "trace.json bytes moved");
    assert_eq!(pin(text_timeline(&logs)), TIMELINE, "timeline bytes moved");
    let metrics = metrics_report("qcla-adder", &logs).render(Format::Text);
    assert_eq!(
        fnv1a64(metrics.as_bytes()),
        METRICS,
        "--metrics report moved"
    );
}
