//! Criterion bench: the instruction-trace pipeline at several program sizes.
//!
//! Traces are the newest hot path — every `trace-*` experiment and any
//! future program-driven scenario pays for (a) parsing the text format,
//! (b) hazard layering + greedy window planning, and (c) the paced
//! discrete-event replay. This bench times each stage separately on QCLA
//! adder programs of 4, 8, and 16 bits at the design-point machine, so a
//! regression in any stage is visible per commit. Window planning is also
//! timed on the committed factor-128 adder, where the scheduler's
//! super-linear cost shows. CI uploads this output next to the JSON report
//! artefacts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qla_bench::experiments::sim_support::machine_mesh;
use qla_core::MachineSpec;
use qla_sim::simulate;
use qla_trace::generators::qcla_adder;
use qla_trace::{schedule_trace, trace_work_items, Placement, Trace, TraceTraffic};
use std::hint::black_box;

/// Adder register widths benchmarked (qubits = 4 × bits).
const WIDTHS: [usize; 3] = [4, 8, 16];

/// The committed 128-bit adder (512 qubits, 512 Toffolis).
const FACTOR128_TRACE: &str = include_str!("../tests/data/factor128-qcla-adder.trace");

fn bench_trace_pipeline(c: &mut Criterion) {
    let spec = MachineSpec::expected();
    let machine = spec.machine().expect("expected profile builds");
    let mesh = machine_mesh(&machine);
    let cfg = qla_sim::SimConfig {
        window: qla_sim::SimTime::from_time(machine.ecc_window()),
        pair_service: qla_sim::SimTime::from_time(machine.epr_pair_service_time()),
        pairs_per_window: machine.epr_pairs_per_ecc_window(),
        channels_per_edge: 2 * machine.config.bandwidth,
        max_in_flight: 64,
        ancilla_capacity: 12,
        ancilla_prep: qla_sim::SimTime::from_time(machine.ecc_window()),
        measure: None,
    };

    let mut parse = c.benchmark_group("trace_parse");
    for bits in WIDTHS {
        let text = qcla_adder(bits).render();
        // Determinism guard: parsing must reproduce the canonical bytes.
        assert_eq!(Trace::parse(&text).unwrap().render(), text);
        println!(
            "trace_parse/qcla-{bits}: {} bytes, {} instructions",
            text.len(),
            qcla_adder(bits).len()
        );
        parse.bench_with_input(BenchmarkId::new("qcla", bits), &text, |b, text| {
            b.iter(|| black_box(Trace::parse(black_box(text)).unwrap()));
        });
    }
    parse.finish();

    // The generated adders on the design-point machine, then the committed
    // factor-128 adder on the 1024-qubit machine its 512 qubits need.
    let mut factor128_spec = MachineSpec::expected();
    factor128_spec.logical_qubits = 1024;
    let factor128_mesh =
        machine_mesh(&factor128_spec.machine().expect("factor-128 machine builds"));
    let mut programs: Vec<(usize, Trace, &qla_sched::Mesh)> = WIDTHS
        .iter()
        .map(|&bits| (bits, qcla_adder(bits), &mesh))
        .collect();
    programs.push((
        128,
        Trace::parse(FACTOR128_TRACE).expect("committed trace parses"),
        &factor128_mesh,
    ));

    let mut schedule = c.benchmark_group("trace_schedule");
    schedule.sample_size(10);
    for (bits, trace, mesh) in &programs {
        let placement = Placement::spread(mesh, trace);
        schedule.bench_with_input(BenchmarkId::new("qcla", bits), trace, |b, trace| {
            b.iter(|| {
                let traffic = TraceTraffic::lower(black_box(trace), mesh, &placement);
                black_box(schedule_trace(&traffic, mesh))
            });
        });
    }
    schedule.finish();

    let mut replay = c.benchmark_group("trace_sim_replay");
    replay.sample_size(10);
    for bits in WIDTHS {
        let trace = qcla_adder(bits);
        let placement = Placement::spread(&mesh, &trace);
        let traffic = TraceTraffic::lower(&trace, &mesh, &placement);
        let plan = schedule_trace(&traffic, &mesh);
        let items = trace_work_items(&traffic, &plan, cfg.window);
        let reference = simulate(&mesh, &cfg, &items);
        assert!(reference.windows_used(cfg.window) >= plan.total_windows);
        assert_eq!(reference, simulate(&mesh, &cfg, &items));
        println!(
            "trace_sim_replay/qcla-{bits}: {} work items, {} events per run",
            items.len(),
            reference.events
        );
        replay.bench_with_input(BenchmarkId::new("qcla", bits), &items, |b, items| {
            b.iter(|| {
                black_box(simulate(
                    black_box(&mesh),
                    black_box(&cfg),
                    black_box(items),
                ))
            });
        });
    }
    replay.finish();
}

criterion_group!(benches, bench_trace_pipeline);
criterion_main!(benches);
