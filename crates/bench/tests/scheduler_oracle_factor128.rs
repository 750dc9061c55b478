//! Differential test at the scale that matters: every hazard layer of the
//! committed factor-128 adder trace, lowered onto the 1024-qubit
//! `expected` machine exactly as the trace replay does, routes to the same
//! `ScheduleResult` under the greedy scheduler and under the original
//! `HashMap`-based scheduler kept as the oracle in `qla-sched`'s tests.

#[path = "../../sched/tests/oracle/mod.rs"]
mod oracle;

use oracle::assert_matches_oracle;
use qla_bench::experiments::sim_support::machine_mesh;
use qla_core::MachineSpec;
use qla_sched::{CommRequest, GreedyScheduler};
use qla_trace::{Placement, Trace, TraceTraffic, LAYER_WINDOW_BUDGET};

const FIXTURE: &str = include_str!("data/factor128-qcla-adder.trace");

#[test]
fn every_factor128_layer_matches_the_oracle() {
    let mut spec = MachineSpec::expected();
    spec.logical_qubits = 1024;
    let machine = spec.machine().expect("factor-128 machine builds");
    let mesh = machine_mesh(&machine);
    let trace = Trace::parse(FIXTURE).expect("committed trace parses");
    let placement = Placement::spread(&mesh, &trace);
    let traffic = TraceTraffic::lower(&trace, &mesh, &placement);

    let mut scheduler = GreedyScheduler::new(mesh);
    scheduler.max_windows = LAYER_WINDOW_BUDGET;
    let mut compared = 0;
    for (index, layer) in traffic.layers.iter().enumerate() {
        let requests: Vec<CommRequest> = layer
            .iter()
            .flat_map(|g| g.requests.iter().copied())
            .collect();
        if requests.is_empty() {
            continue;
        }
        assert_matches_oracle(&scheduler, &requests, &format!("hazard layer {index}"));
        compared += 1;
    }
    assert!(compared > 0, "the adder communicates");
}
