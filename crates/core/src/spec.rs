//! The Scenario API: typed, file-loadable machine profiles.
//!
//! Every experiment in the reproduction used to hard-code its machine —
//! `TechnologyParams::expected()`, `EccLatencies::paper()`, a fixed
//! bandwidth — so re-running the analysis under Section 6's relaxed
//! technology assumptions ("what if gates are 10× worse / 10× slower?")
//! meant editing source. A [`MachineSpec`] bundles everything
//! [`MachineBuilder`](crate::MachineBuilder) consumes (technology
//! parameters, error-correction latencies, recursion level, interconnect,
//! bandwidth, logical qubits) **plus** the sweep grids the parameterised
//! experiments scan, behind:
//!
//! * **named built-in profiles** — [`MachineSpec::expected`],
//!   [`MachineSpec::current`], and the Section 6 variants
//!   [`MachineSpec::relaxed_failures`] / [`MachineSpec::relaxed_speed`],
//!   resolvable by name with [`MachineSpec::builtin`];
//! * **a deterministic text format** — a hand-rolled `key = value` file
//!   (the vendored serde is structural-only, so serialization follows the
//!   `qla-report` pattern: hand-rolled and byte-stable) with
//!   [`MachineSpec::render`] / [`MachineSpec::parse`] round-tripping
//!   exactly and loud [`SpecError`]s for unknown, duplicate, missing, or
//!   malformed keys;
//! * **validation** — [`MachineSpec::validate`] checks every key against
//!   the range on its row of the field table, then the rules that relate
//!   keys, then the [`MachineBuilder`](crate::MachineBuilder) invariants,
//!   so an invalid spec fails at load time, not three experiments into a
//!   `run-all`.
//!
//! The active spec travels on the
//! [`ExperimentContext`](crate::ExperimentContext); experiments build their
//! machine with [`ExperimentContext::machine`](crate::ExperimentContext::machine)
//! and derive their sweep points from [`MachineSpec::sweep`] instead of
//! private constants. The `qla-bench` CLI selects it with `--profile <name>`
//! or `--spec <file>`.

use crate::builder::MachineBuilder;
use crate::kv::{KeyValues, KvError};
use crate::machine::QlaMachine;
use crate::MachineBuildError;
use qla_network::InterconnectParams;
use qla_obs::{ObsConfig, ObsDetail};
use qla_physical::{TechnologyParams, Time};
use qla_qec::EccLatencies;
use qla_report::Scenario;
use qla_sched::Mesh;
use serde::Serialize;

/// Average ballistic-movement distance (cells) accompanying one transversal
/// two-qubit gate — the paper's block-communication distance `r ≈ 12`, used
/// to derive the Figure 7 movement error from a profile's per-cell movement
/// failure rate.
pub const MOVEMENT_CELLS_PER_GATE: usize = 12;

/// How a profile obtains its error-correction step latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EccMode {
    /// The constants published in Section 4.1.1 (0.003 s / 0.043 s) — only
    /// meaningful while the profile keeps the Table 1 operation times.
    Paper,
    /// Derived from the structural Equation 1 model of the profile's
    /// technology ([`EccLatencies::structural_for`]).
    Structural,
}

impl core::fmt::Display for EccMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EccMode::Paper => write!(f, "paper"),
            EccMode::Structural => write!(f, "structural"),
        }
    }
}

/// The teleportation-interconnect calibration of a profile, kept as plain
/// scalars so the text format can carry it; the embedded technology is
/// supplied by the owning [`MachineSpec`] when the full
/// [`InterconnectParams`] is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InterconnectSpec {
    /// Raw EPR pair creation fidelity.
    pub creation_fidelity: f64,
    /// Infidelity added per cell of ballistic transport.
    pub per_cell_error: f64,
    /// Local-operation error of the purification protocol.
    pub local_op_error: f64,
    /// Infidelity added by each entanglement swap.
    pub swap_op_error: f64,
    /// End-to-end infidelity budget of the final pair.
    pub max_final_infidelity: f64,
    /// Wall-clock cost of one purification round.
    pub purification_round_time: Time,
    /// Wall-clock cost of one entanglement-swapping stage.
    pub swap_stage_time: Time,
}

impl InterconnectSpec {
    /// The scalars of the Figure 9 paper calibration.
    #[must_use]
    pub fn paper_calibrated() -> Self {
        InterconnectSpec::from_params(&InterconnectParams::paper_calibrated())
    }

    /// The scalar view of a full parameter set (drops the technology).
    #[must_use]
    pub fn from_params(params: &InterconnectParams) -> Self {
        InterconnectSpec {
            creation_fidelity: params.epr_source.creation_fidelity,
            per_cell_error: params.epr_source.per_cell_error,
            local_op_error: params.purification.local_op_error,
            swap_op_error: params.swap_op_error,
            max_final_infidelity: params.max_final_infidelity,
            purification_round_time: params.purification_round_time,
            swap_stage_time: params.swap_stage_time,
        }
    }

    /// The full [`InterconnectParams`] with `tech` as its technology.
    #[must_use]
    pub fn params(&self, tech: TechnologyParams) -> InterconnectParams {
        InterconnectParams {
            epr_source: qla_network::EprSource {
                creation_fidelity: self.creation_fidelity,
                per_cell_error: self.per_cell_error,
            },
            purification: qla_network::PurificationParams {
                local_op_error: self.local_op_error,
            },
            swap_op_error: self.swap_op_error,
            max_final_infidelity: self.max_final_infidelity,
            purification_round_time: self.purification_round_time,
            swap_stage_time: self.swap_stage_time,
            tech,
        }
    }
}

/// The discrete-event simulation grids and horizons (the `qla-sim`
/// experiments), carried by the profile like every other sweep so a
/// scenario file can reshape the offered-load scan, the burstiness, the
/// queue depths, and the warm-up/measurement horizons without touching
/// source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimSpec {
    /// Offered loads (Toffoli gates per error-correction window) the
    /// `sim-offered-load` experiment sweeps.
    pub offered_loads: Vec<f64>,
    /// Arrival burstiness: gates arrive in back-to-back bursts of
    /// `round(burst_factor)` (1 = smooth stream).
    pub burst_factor: f64,
    /// Admission-control queue depth: work items in flight beyond this wait
    /// in a FIFO backlog.
    pub max_in_flight: usize,
    /// Parallel preparation slots of the ancilla factory.
    pub ancilla_capacity: usize,
    /// Windows of traffic discarded as warm-up before measurement.
    pub warmup_windows: usize,
    /// Windows of traffic measured after warm-up.
    pub measure_windows: usize,
    /// Offered load of the `sim-tail-latency` distribution study.
    pub tail_offered_load: f64,
    /// Simultaneous same-route requests forming the contended regime of
    /// `sim-vs-analytic`.
    pub contended_requests: usize,
}

impl SimSpec {
    /// The default simulation shape: an offered-load scan spanning a 16×
    /// range around the design point, moderately bursty arrivals, and a
    /// factory sized so ancilla stalls appear inside the scanned range.
    #[must_use]
    pub fn paper() -> Self {
        SimSpec {
            offered_loads: vec![0.5, 1.0, 2.0, 4.0, 6.0],
            burst_factor: 2.0,
            max_in_flight: 64,
            ancilla_capacity: 12,
            warmup_windows: 2,
            measure_windows: 16,
            tail_offered_load: 1.0,
            contended_requests: 8,
        }
    }
}

/// The instruction-trace workloads (`qla-trace`) the `trace-replay` and
/// `trace-scaling` experiments generate and replay, carried by the
/// profile so a scenario file can reshape the programs without touching
/// source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceSpec {
    /// Register width (bits) of the QCLA adder program `trace-replay`
    /// lowers.
    pub adder_bits: usize,
    /// Modulus width (bits) of the modular-exponentiation program.
    pub modexp_bits: usize,
    /// Controlled-multiplier calls the modexp trace is truncated to
    /// (the full program runs `2·modexp_bits`).
    pub modexp_multiplier_calls: usize,
    /// Logical qubits of the seeded random Clifford+T program.
    pub random_qubits: usize,
    /// Instruction count of the random Clifford+T program.
    pub random_ops: usize,
    /// Adder widths (bits) the `trace-scaling` sweep replays.
    pub scaling_adder_bits: Vec<usize>,
    /// Modexp widths (bits) the `trace-scaling` sweep replays.
    pub scaling_modexp_bits: Vec<usize>,
}

impl TraceSpec {
    /// The default program shapes: a byte-sized adder and modexp (large
    /// enough to exercise every hazard class, small enough that goldens
    /// replay in seconds) and a random program around the same scale.
    #[must_use]
    pub fn paper() -> Self {
        TraceSpec {
            adder_bits: 8,
            modexp_bits: 8,
            modexp_multiplier_calls: 1,
            random_qubits: 24,
            random_ops: 160,
            scaling_adder_bits: vec![4, 8, 16, 32],
            scaling_modexp_bits: vec![4, 6, 8],
        }
    }
}

/// The fault-injection and multi-tenant scenario grids (`qla-faults`)
/// the `fault-sweep`, `traffic-matrix`, and `multi-tenant-fairness`
/// experiments sweep, carried by the profile so a scenario file can
/// reshape the stress grid without touching source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultSpec {
    /// Fault severities the `fault-sweep` experiment scans: the fraction
    /// of each degraded edge's channels taken away (0 = healthy,
    /// 1 = full outage).
    pub severities: Vec<f64>,
    /// Fraction of mesh edges degraded at each severity.
    pub degraded_edge_fraction: f64,
    /// Fault onset, in ECC windows from the start of the run.
    pub onset_windows: usize,
    /// Fault duration in ECC windows (capacity recovers afterwards).
    pub duration_windows: usize,
    /// Fraction of ancilla-factory slots lost at severity 1 (scaled
    /// linearly with severity below that).
    pub factory_loss: f64,
    /// Offered load (Toffoli gates per window) of the fault-sweep
    /// background traffic.
    pub traffic_offered_load: f64,
    /// Offered load (teleport requests per window) of the traffic-matrix
    /// streams.
    pub matrix_offered_load: f64,
    /// Fraction of mesh nodes forming the hot-spot destination set of
    /// the hot-spot traffic matrix.
    pub hotspot_fraction: f64,
    /// Tenant count of the multi-tenant fairness study.
    pub tenants: usize,
    /// Per-tenant admission quota (`max_in_flight` slots) of the
    /// best-provisioned tenant.
    pub tenant_quota: usize,
    /// Quota skews the fairness study scans: tenant quotas shrink from
    /// `tenant_quota` down to `tenant_quota / skew` across the tenant
    /// population (1 = equal quotas).
    pub quota_skews: Vec<f64>,
}

impl FaultSpec {
    /// The default stress grid: a quarter of the mesh edges degraded in
    /// four severity steps up to full outage, a mid-run fault window the
    /// measurement horizon can observe recovering, and a four-tenant
    /// population scanned up to an 8× quota skew.
    #[must_use]
    pub fn paper() -> Self {
        FaultSpec {
            severities: vec![0.0, 0.25, 0.5, 1.0],
            degraded_edge_fraction: 0.25,
            onset_windows: 4,
            duration_windows: 6,
            factory_loss: 0.5,
            traffic_offered_load: 2.0,
            matrix_offered_load: 16.0,
            hotspot_fraction: 0.125,
            tenants: 4,
            tenant_quota: 8,
            quota_skews: vec![1.0, 2.0, 4.0, 8.0],
        }
    }
}

/// The observability section (`qla-obs`): how much the deterministic
/// recorder keeps when a run is observed (`--emit-trace` / `--metrics`).
/// Recording is always *off* for plain runs — this section only shapes
/// what an observed run records, so it can never perturb a golden byte.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObsSpec {
    /// Detail level: `full` keeps per-round channel spans and queue
    /// samples, `light` drops those high-volume tracks.
    pub detail: ObsDetail,
    /// Keep every N-th counter sample per track (1 = all). Spans and
    /// instants are never sampled.
    pub sample_every: u32,
}

impl ObsSpec {
    /// The default: full detail, every counter sample kept — the paper's
    /// meshes are small enough that nothing needs thinning.
    #[must_use]
    pub fn paper() -> Self {
        ObsSpec {
            detail: ObsDetail::Full,
            sample_every: 1,
        }
    }

    /// The recorder configuration for an *observed* run under this spec.
    #[must_use]
    pub fn config(&self) -> ObsConfig {
        ObsConfig {
            enabled: true,
            detail: self.detail,
            sample_every: self.sample_every,
        }
    }
}

/// The sweep grids of the parameterised experiments, carried by the profile
/// so sensitivity studies can widen/narrow them without touching source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Component failure rates the Figure 7 threshold experiment sweeps.
    pub component_rates: Vec<f64>,
    /// Lower bound of the Figure 7 empirical-threshold geometric scan.
    pub threshold_scan_lo: f64,
    /// Upper bound of the threshold scan.
    pub threshold_scan_hi: f64,
    /// Number of points in the threshold scan.
    pub threshold_scan_points: usize,
    /// Highest recursion level the Equation 2 analysis tabulates.
    pub max_recursion_level: u32,
    /// Distance increment (cells) of the Figure 9 connection-time sweep.
    pub distance_step_cells: usize,
    /// Largest distance (cells) of the Figure 9 sweep.
    pub distance_max_cells: usize,
    /// Channel bandwidths the scheduler-utilization study sweeps.
    pub bandwidths: Vec<usize>,
    /// Concurrent Toffoli batch sizes of the scheduler study.
    pub toffoli_counts: Vec<usize>,
    /// Discrete-event simulation grids and horizons.
    pub sim: SimSpec,
    /// Instruction-trace program shapes.
    pub trace: TraceSpec,
    /// Fault-injection and multi-tenant stress grids.
    pub fault: FaultSpec,
    /// Observability: recorder detail and sampling for observed runs.
    pub obs: ObsSpec,
}

impl SweepSpec {
    /// The grids every figure of the paper uses (and every profile ships
    /// with unless a spec file overrides them).
    #[must_use]
    pub fn paper() -> Self {
        SweepSpec {
            component_rates: vec![
                5e-4, 7.5e-4, 1.0e-3, 1.25e-3, 1.5e-3, 1.75e-3, 2.0e-3, 2.25e-3, 2.5e-3, 4e-3,
                8e-3, 1.6e-2,
            ],
            threshold_scan_lo: 3e-4,
            threshold_scan_hi: 3e-2,
            threshold_scan_points: 14,
            max_recursion_level: 4,
            distance_step_cells: 2_000,
            distance_max_cells: 30_000,
            bandwidths: vec![1, 2, 4, 8],
            toffoli_counts: vec![4, 16, 48],
            sim: SimSpec::paper(),
            trace: TraceSpec::paper(),
            fault: FaultSpec::paper(),
            obs: ObsSpec::paper(),
        }
    }
}

/// A complete, named machine scenario: everything an experiment needs to
/// know about the design point it is evaluating.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MachineSpec {
    /// Profile name (kebab-case for built-ins; free-form for spec files).
    pub name: String,
    /// One-line human description (single line; must not contain `#`).
    pub description: String,
    /// Logical qubit sites the floorplan must provide.
    pub logical_qubits: usize,
    /// Recursion level of the logical qubits.
    pub recursion_level: u32,
    /// Channel bandwidth (physical channels per direction).
    pub bandwidth: usize,
    /// Where the error-correction latencies come from.
    pub ecc: EccMode,
    /// Physical technology parameters (Table 1 or a Section 6 relaxation).
    pub tech: TechnologyParams,
    /// Teleportation-interconnect calibration.
    pub interconnect: InterconnectSpec,
    /// Sweep grids for the parameterised experiments.
    pub sweep: SweepSpec,
}

/// Highest offered load (Toffoli gates per error-correction window) a spec
/// may ask the simulation experiments for — far above any physically
/// meaningful point, low enough that a typo'd load cannot ask the workload
/// generator for an unbounded arrival stream.
pub const MAX_OFFERED_LOAD: f64 = 10_000.0;

/// Widest register (bits) a spec may ask the trace generators for. A
/// QCLA adder trace is ~4 qubits and ~5 gates per bit; this cap keeps a
/// typo'd width from generating a multi-gigabyte instruction stream.
pub const MAX_TRACE_BITS: usize = 1_024;

/// Most instructions a spec may ask the random trace generator for.
pub const MAX_TRACE_OPS: usize = 1_000_000;

/// Most logical qubits: room for Table 2's largest machine (602,259 for 2048-bit Shor).
pub const MAX_LOGICAL_QUBITS: usize = 1_000_000;

/// Deepest Equation 2 table: a level-8 Steane block holds 7^8 ≈ 5.8 million qubits.
pub const MAX_RECURSION_LEVEL: usize = 8;

/// Highest machine level; the build narrows it to the levels its ECC latencies cover.
pub const MAX_MACHINE_LEVEL: usize = 16;

/// Most channels per direction: the scheduler study stops at 8.
pub const MAX_BANDWIDTH: usize = 1_024;

/// Most Figure 7 threshold-scan points; each costs a full Monte-Carlo run.
pub const MAX_SCAN_POINTS: usize = 1_000;

/// Longest Figure 9 distance (cells): wider than Table 2's largest chip (~68,000 cells).
pub const MAX_DISTANCE_CELLS: usize = 100_000;

/// Most work items one Toffoli batch, contended burst or tenant window submits at once.
pub const MAX_BATCH: usize = 10_000;

/// Most admission or ancilla-factory slots: counters, never allocated.
pub const MAX_SLOTS: usize = 1_000_000;

/// Longest simulated phase in ECC windows: keeps `load × windows` arrivals allocatable.
pub const MAX_WINDOWS: usize = 1_000;

/// Coarsest counter thinning: one sample in a million.
pub const MAX_SAMPLE_EVERY: usize = 1_000_000;

/// Longest operation or stage time (µs): the Table 1 memory lifetime, 10 s. With every time row
/// here a level-2 window is 4.5e13 ns, so `SimTime` holds 4e5 windows, 200 × the longest horizon.
pub const MAX_TIME_US: f64 = 10_000_000.0;

/// Names of the built-in profiles, in presentation order.
pub const BUILTIN_PROFILES: [&str; 4] =
    ["expected", "current", "relaxed-failures", "relaxed-speed"];

impl MachineSpec {
    /// The paper's design point: Table 1 "Pexpected" technology, recursion
    /// level 2, the published ECC constants, bandwidth 2, the Figure 9
    /// interconnect calibration, and the paper's sweep grids.
    #[must_use]
    pub fn expected() -> Self {
        MachineSpec {
            name: "expected".to_string(),
            description: "Table 1 Pexpected - the paper's design point (ARDA roadmap rates)"
                .to_string(),
            logical_qubits: 400,
            recursion_level: 2,
            bandwidth: 2,
            ecc: EccMode::Paper,
            tech: TechnologyParams::expected(),
            interconnect: InterconnectSpec::paper_calibrated(),
            sweep: SweepSpec::paper(),
        }
    }

    /// Table 1 "Pcurrent": the component failure rates demonstrated at NIST
    /// at publication time. Operation times (and therefore the published
    /// ECC latency constants) are unchanged.
    #[must_use]
    pub fn current() -> Self {
        MachineSpec {
            name: "current".to_string(),
            description: "Table 1 Pcurrent - NIST-demonstrated failure rates (2005)".to_string(),
            tech: TechnologyParams::current(),
            ..MachineSpec::expected()
        }
    }

    /// Section 6 relaxation: every failure rate 10× worse than "expected"
    /// ([`TechnologyParams::relaxed_failures`]).
    #[must_use]
    pub fn relaxed_failures() -> Self {
        MachineSpec {
            name: "relaxed-failures".to_string(),
            description: "Section 6 - every failure rate 10x worse than expected".to_string(),
            tech: TechnologyParams::relaxed_failures(),
            ..MachineSpec::expected()
        }
    }

    /// Section 6 relaxation: every operation 10× slower than Table 1
    /// ([`TechnologyParams::relaxed_speed`]). The ECC latencies switch to
    /// the structural Equation 1 model (the published constants only
    /// describe the Table 1 times), and the interconnect's round/stage
    /// clocks slow by the same factor.
    #[must_use]
    pub fn relaxed_speed() -> Self {
        let mut interconnect = InterconnectSpec::paper_calibrated();
        interconnect.purification_round_time = interconnect.purification_round_time * 10.0;
        interconnect.swap_stage_time = interconnect.swap_stage_time * 10.0;
        MachineSpec {
            name: "relaxed-speed".to_string(),
            description: "Section 6 - every operation 10x slower, structural Eq. 1 ECC".to_string(),
            ecc: EccMode::Structural,
            tech: TechnologyParams::relaxed_speed(),
            interconnect,
            ..MachineSpec::expected()
        }
    }

    /// Look up a built-in profile by name.
    #[must_use]
    pub fn builtin(name: &str) -> Option<MachineSpec> {
        match name {
            "expected" => Some(MachineSpec::expected()),
            "current" => Some(MachineSpec::current()),
            "relaxed-failures" => Some(MachineSpec::relaxed_failures()),
            "relaxed-speed" => Some(MachineSpec::relaxed_speed()),
            _ => None,
        }
    }

    /// Every built-in profile, in [`BUILTIN_PROFILES`] order.
    #[must_use]
    pub fn builtins() -> Vec<MachineSpec> {
        BUILTIN_PROFILES
            .iter()
            .map(|name| MachineSpec::builtin(name).expect("builtin names resolve"))
            .collect()
    }

    /// The error-correction latencies this profile schedules against.
    #[must_use]
    pub fn ecc_latencies(&self) -> EccLatencies {
        match self.ecc {
            EccMode::Paper => EccLatencies::paper(),
            EccMode::Structural => EccLatencies::structural_for(self.tech),
        }
    }

    /// The full interconnect parameter set (scalars + this profile's
    /// technology).
    #[must_use]
    pub fn interconnect_params(&self) -> InterconnectParams {
        self.interconnect.params(self.tech)
    }

    /// Movement error charged per transversal two-qubit gate in the
    /// Figure 7 Monte-Carlo: the per-cell movement failure rate over the
    /// block-communication distance `r` = [`MOVEMENT_CELLS_PER_GATE`],
    /// clamped to 1 (the "current" rates exceed certainty at 12 cells).
    #[must_use]
    pub fn movement_error(&self) -> f64 {
        (self.tech.failures.move_per_cell * MOVEMENT_CELLS_PER_GATE as f64).min(1.0)
    }

    /// A [`MachineBuilder`] preloaded with this profile's design point
    /// (experiments that size the machine to their workload override
    /// `logical_qubits` before building).
    #[must_use]
    pub fn builder(&self) -> MachineBuilder {
        MachineBuilder::new()
            .logical_qubits(self.logical_qubits)
            .tech(self.tech)
            .recursion_level(self.recursion_level)
            .bandwidth(self.bandwidth)
            .ecc_latencies(self.ecc_latencies())
            .interconnect(self.interconnect_params())
    }

    /// Build and validate the machine at this profile's design point.
    ///
    /// # Errors
    /// Returns the [`MachineBuildError`] for inconsistent design points
    /// (zero qubits/bandwidth, unsupported recursion level).
    pub fn machine(&self) -> Result<QlaMachine, MachineBuildError> {
        self.builder().build()
    }

    /// The scenario header stamped onto every [`Report`](qla_report::Report)
    /// produced under this profile.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        Scenario {
            profile: self.name.clone(),
            summary: format!(
                "recursion_level={} bandwidth={} logical_qubits={} ecc={} p0={:.3e}",
                self.recursion_level,
                self.bandwidth,
                self.logical_qubits,
                self.ecc,
                self.tech.failures.mean_component_rate()
            ),
        }
    }

    /// Check the whole spec: every key against the range on its row of
    /// the field table, then the rules that relate several keys, then the
    /// machine invariants (through [`MachineBuilder`]).
    ///
    /// # Errors
    /// Returns the first violation as a [`SpecError`] whose message names
    /// the offending key; of several out-of-range keys, the first in render
    /// order.
    pub fn validate(&self) -> Result<(), SpecError> {
        check_fields(self)?;
        let s = &self.sweep;
        if s.threshold_scan_lo >= s.threshold_scan_hi {
            return Err(SpecError::Invalid(format!(
                "sweep.threshold_scan_lo ({}) must be below sweep.threshold_scan_hi ({})",
                s.threshold_scan_lo, s.threshold_scan_hi
            )));
        }
        if s.distance_max_cells < s.distance_step_cells {
            return Err(SpecError::Invalid(format!(
                "sweep.distance_max_cells ({}) must be at least the step ({})",
                s.distance_max_cells, s.distance_step_cells
            )));
        }
        let machine = self.machine()?;
        // The multi-tenant study gives each tenant its own interior row of
        // the machine's mesh, so this rule reads the built floorplan.
        let mesh = Mesh::from_floorplan(&machine.floorplan, machine.config.bandwidth);
        let interior_rows = mesh.rows().saturating_sub(2);
        if s.fault.tenants > interior_rows {
            return Err(SpecError::Invalid(format!(
                "sweep.fault.tenants ({}) must be at most the {interior_rows} interior rows \
                 of the {}x{} mesh of logical_qubits = {}",
                s.fault.tenants,
                mesh.columns(),
                mesh.rows(),
                self.logical_qubits
            )));
        }
        Ok(())
    }

    /// Render the spec in the deterministic text format.
    ///
    /// The output is byte-stable for a given spec (floats use Rust's
    /// shortest round-trip formatting) and [`MachineSpec::parse`]s back to
    /// an equal value — the property the round-trip and golden tests pin.
    #[must_use]
    pub fn render(&self) -> String {
        // Room for a built-in profile (~2.3 KB): one allocation per call.
        let mut out = String::with_capacity(4096);
        VERSION.render_line(VERSION_KEY, &mut out);
        render_fields(self, &mut out);
        out
    }

    /// Parse a spec from the `key = value` text format of [`crate::kv`].
    ///
    /// Every key is required exactly once; unknown keys, duplicates,
    /// omissions, and malformed values are all loud errors — a typo in a
    /// scenario file must never silently fall back to a default.
    ///
    /// # Errors
    /// Returns the first problem found as a [`SpecError`].
    pub fn parse(text: &str) -> Result<MachineSpec, SpecError> {
        let mut fields = KeyValues::scan(text)?;
        let version = fields.take(VERSION_KEY)?;
        if version != VERSION.to_string() {
            return Err(SpecError::UnsupportedVersion {
                found: version.to_owned(),
            });
        }
        // `parse_fields` assigns every field, so the starting profile
        // does not show through.
        let mut spec = MachineSpec::expected();
        parse_fields(&mut spec, &mut fields)?;
        fields.finish()?;
        Ok(spec)
    }
}

const VERSION_KEY: &str = "format_version";
const VERSION: u32 = 1;

/// The spec's keys in render order, each bound to the field it reads and
/// writes and to the values it accepts — the one place a key is named.
/// Expands to `render_fields`, `parse_fields` and `check_fields`.
macro_rules! spec_fields {
    ($($key:literal => $($field:ident).+ : $range:expr,)+) => {
        fn render_fields(spec: &MachineSpec, out: &mut String) {
            $(SpecValue::render_line(&spec.$($field).+, $key, out);)+
        }

        fn parse_fields(
            spec: &mut MachineSpec,
            fields: &mut KeyValues<'_>,
        ) -> Result<(), KvError<'static>> {
            $(spec.$($field).+ = SpecValue::take(fields, $key)?;)+
            Ok(())
        }

        fn check_fields(spec: &MachineSpec) -> Result<(), SpecError> {
            use Range::*;
            $(SpecValue::check(&spec.$($field).+, $key, $range)?;)+
            Ok(())
        }
    };
}

spec_fields! {
    "name" => name: Name,
    "description" => description: Text,
    "logical_qubits" => logical_qubits: Int(1, MAX_LOGICAL_QUBITS),
    "recursion_level" => recursion_level: Int(1, MAX_MACHINE_LEVEL),
    "bandwidth" => bandwidth: Int(1, MAX_BANDWIDTH),
    "ecc" => ecc: Parsed,
    "tech.cell_size_um" => tech.cell_size_um: Positive,
    "tech.time.single_gate_us" => tech.times.single_gate: Duration,
    "tech.time.double_gate_us" => tech.times.double_gate: Duration,
    "tech.time.measure_us" => tech.times.measure: Duration,
    "tech.time.move_per_um_us" => tech.times.move_per_um: Duration,
    "tech.time.move_per_cell_us" => tech.times.move_per_cell: Duration,
    "tech.time.split_us" => tech.times.split: Duration,
    "tech.time.corner_turn_us" => tech.times.corner_turn: Duration,
    "tech.time.cool_us" => tech.times.cool: Duration,
    "tech.time.memory_lifetime_us" => tech.times.memory_lifetime: Duration,
    "tech.fail.single_gate" => tech.failures.single_gate: Prob,
    "tech.fail.double_gate" => tech.failures.double_gate: Prob,
    "tech.fail.measure" => tech.failures.measure: Prob,
    "tech.fail.move_per_um" => tech.failures.move_per_um: Prob,
    "tech.fail.move_per_cell" => tech.failures.move_per_cell: Prob,
    "tech.fail.memory_per_sec" => tech.failures.memory_per_sec: Positive,
    "interconnect.creation_fidelity" => interconnect.creation_fidelity: Prob,
    "interconnect.per_cell_error" => interconnect.per_cell_error: Prob,
    "interconnect.local_op_error" => interconnect.local_op_error: Prob,
    "interconnect.swap_op_error" => interconnect.swap_op_error: Prob,
    "interconnect.max_final_infidelity" => interconnect.max_final_infidelity: Prob,
    "interconnect.purification_round_time_us" => interconnect.purification_round_time: Duration,
    "interconnect.swap_stage_time_us" => interconnect.swap_stage_time: Duration,
    "sweep.component_rates" => sweep.component_rates: Open,
    "sweep.threshold_scan_lo" => sweep.threshold_scan_lo: Positive,
    "sweep.threshold_scan_hi" => sweep.threshold_scan_hi: Positive,
    "sweep.threshold_scan_points" => sweep.threshold_scan_points: Int(2, MAX_SCAN_POINTS),
    "sweep.max_recursion_level" => sweep.max_recursion_level: Int(1, MAX_RECURSION_LEVEL),
    "sweep.distance_step_cells" => sweep.distance_step_cells: Int(1, MAX_DISTANCE_CELLS),
    "sweep.distance_max_cells" => sweep.distance_max_cells: Int(1, MAX_DISTANCE_CELLS),
    "sweep.bandwidths" => sweep.bandwidths: Int(1, MAX_BANDWIDTH),
    "sweep.toffoli_counts" => sweep.toffoli_counts: Int(1, MAX_BATCH),
    "sweep.sim.offered_loads" => sweep.sim.offered_loads: Load,
    "sweep.sim.burst_factor" => sweep.sim.burst_factor: AtLeast(1.0),
    "sweep.sim.max_in_flight" => sweep.sim.max_in_flight: Int(1, MAX_SLOTS),
    "sweep.sim.ancilla_capacity" => sweep.sim.ancilla_capacity: Int(1, MAX_SLOTS),
    "sweep.sim.warmup_windows" => sweep.sim.warmup_windows: Int(0, MAX_WINDOWS),
    "sweep.sim.measure_windows" => sweep.sim.measure_windows: Int(1, MAX_WINDOWS),
    "sweep.sim.tail_offered_load" => sweep.sim.tail_offered_load: Load,
    // One request is the uncontended regime.
    "sweep.sim.contended_requests" => sweep.sim.contended_requests: Int(2, MAX_BATCH),
    "sweep.trace.adder_bits" => sweep.trace.adder_bits: Int(1, MAX_TRACE_BITS),
    // `modexp_costs` models moduli of at least 4 bits.
    "sweep.trace.modexp_bits" => sweep.trace.modexp_bits: Int(4, MAX_TRACE_BITS),
    // The full program of the widest modulus makes 2 · MAX_TRACE_BITS calls.
    "sweep.trace.modexp_multiplier_calls" =>
        sweep.trace.modexp_multiplier_calls: Int(1, 2 * MAX_TRACE_BITS),
    // A Toffoli needs three operands.
    "sweep.trace.random_qubits" => sweep.trace.random_qubits: Int(3, 4 * MAX_TRACE_BITS),
    "sweep.trace.random_ops" => sweep.trace.random_ops: Int(1, MAX_TRACE_OPS),
    "sweep.trace.scaling_adder_bits" => sweep.trace.scaling_adder_bits: Int(1, MAX_TRACE_BITS),
    "sweep.trace.scaling_modexp_bits" => sweep.trace.scaling_modexp_bits: Int(4, MAX_TRACE_BITS),
    "sweep.fault.severities" => sweep.fault.severities: Prob,
    "sweep.fault.degraded_edge_fraction" => sweep.fault.degraded_edge_fraction: Fraction,
    "sweep.fault.onset_windows" => sweep.fault.onset_windows: Int(0, MAX_WINDOWS),
    "sweep.fault.duration_windows" => sweep.fault.duration_windows: Int(1, MAX_WINDOWS),
    "sweep.fault.factory_loss" => sweep.fault.factory_loss: Prob,
    "sweep.fault.traffic_offered_load" => sweep.fault.traffic_offered_load: Load,
    "sweep.fault.matrix_offered_load" => sweep.fault.matrix_offered_load: Load,
    "sweep.fault.hotspot_fraction" => sweep.fault.hotspot_fraction: Fraction,
    // Each tenant needs its own mesh row; `validate` narrows this to the
    // machine's interior rows.
    "sweep.fault.tenants" => sweep.fault.tenants: Int(1, MAX_LOGICAL_QUBITS),
    "sweep.fault.tenant_quota" => sweep.fault.tenant_quota: Int(1, MAX_BATCH),
    "sweep.fault.quota_skews" => sweep.fault.quota_skews: AtLeast(1.0),
    "sweep.obs.detail" => sweep.obs.detail: Parsed,
    "sweep.obs.sample_every" => sweep.obs.sample_every: Int(1, MAX_SAMPLE_EVERY),
}

/// The values a spec field accepts: the range on its [`spec_fields!`] row,
/// described by its `Display`. A list must be non-empty, and each of its
/// entries must lie in the range.
#[derive(Debug, Clone, Copy)]
enum Range {
    Prob,
    Positive,
    /// A time row, µs: positive and at most [`MAX_TIME_US`].
    Duration,
    Fraction,
    Open,
    Load,
    AtLeast(f64),
    Int(usize, usize),
    /// The parser trims values, so padding would not survive a round trip.
    Text,
    Name,
    /// The field's type holds only values the parser accepts.
    Parsed,
}

impl Range {
    fn admits(self, v: f64) -> bool {
        v.is_finite()
            && match self {
                Range::Prob => (0.0..=1.0).contains(&v),
                Range::Positive => v > 0.0,
                Range::Duration => v > 0.0 && v <= MAX_TIME_US,
                Range::Fraction => v > 0.0 && v <= 1.0,
                Range::Open => v > 0.0 && v < 1.0,
                Range::Load => v > 0.0 && v <= MAX_OFFERED_LOAD,
                Range::AtLeast(min) => v >= min,
                _ => false,
            }
    }

    fn admits_int(self, v: usize) -> bool {
        matches!(self, Range::Int(lo, hi) if (lo..=hi).contains(&v))
    }

    fn admits_text(self, text: &str) -> bool {
        let line = !text.contains(['\n', '#']) && text.trim() == text;
        match self {
            Range::Text => line,
            Range::Name => line && !text.is_empty(),
            _ => false,
        }
    }
}

impl core::fmt::Display for Range {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Range::Prob => write!(f, "a probability in [0, 1]"),
            Range::Positive => write!(f, "a finite positive number"),
            Range::Duration => write!(f, "a positive time of at most {MAX_TIME_US} µs"),
            Range::Fraction => write!(f, "a fraction in (0, 1]"),
            Range::Open => write!(f, "a number in (0, 1)"),
            Range::Load => write!(
                f,
                "a positive load of at most {MAX_OFFERED_LOAD} per window"
            ),
            Range::AtLeast(min) => write!(f, "a finite number of at least {min}"),
            Range::Int(lo, hi) => write!(f, "an integer in {lo}..={hi}"),
            Range::Text => write!(f, "a line without '#' or surrounding whitespace"),
            Range::Name => write!(f, "a non-empty line without '#' or surrounding whitespace"),
            Range::Parsed => write!(f, "a value the parser accepts"),
        }
    }
}

/// A field type of the spec text format.
trait SpecValue: Sized {
    /// What a malformed value is reported as expecting.
    const EXPECTED: &'static str;
    fn parse(text: &str) -> Option<Self>;
    fn render(&self, out: &mut String);
    /// Whether the value lies in `range`.
    fn admits(&self, range: Range) -> bool;

    fn render_line(&self, key: &str, out: &mut String) {
        out.push_str(key);
        out.push_str(" = ");
        self.render(out);
        out.push('\n');
    }

    fn take(fields: &mut KeyValues<'_>, key: &'static str) -> Result<Self, KvError<'static>> {
        fields.value(key, Self::EXPECTED, Self::parse)
    }

    /// Check the value of `key` against the range on its row.
    fn check(&self, key: &str, range: Range) -> Result<(), SpecError> {
        if self.admits(range) {
            Ok(())
        } else {
            Err(out_of_range(key, range, self))
        }
    }
}

/// Implements [`SpecValue`] for each `type => expected, parse, render, admits;`.
macro_rules! spec_values {
    ($($t:ty => $expected:expr, $parse:expr, $render:expr, $admits:expr;)+) => {$(
        impl SpecValue for $t {
            const EXPECTED: &'static str = $expected;
            fn parse(text: &str) -> Option<Self> {
                $parse(text)
            }
            fn render(&self, out: &mut String) {
                $render(self, out);
            }
            fn admits(&self, range: Range) -> bool {
                $admits(self, range)
            }
        }
    )+};
}

// Rust's `Display` for `f64` is the shortest text that parses back to the
// same bits, and never uses exponent notation. Times are written in
// microseconds.
spec_values! {
    String => "a line of text", |text: &str| Some(text.to_owned()), push_display,
        |text: &String, range: Range| range.admits_text(text);
    usize => "a non-negative integer", |text: &str| text.parse().ok(), push_display,
        |v: &usize, range: Range| range.admits_int(*v);
    u32 => "a non-negative integer", |text: &str| text.parse().ok(), push_display,
        |v: &u32, range: Range| usize::try_from(*v).is_ok_and(|v| range.admits_int(v));
    f64 => "a finite number",
        |text: &str| text.parse().ok().filter(|v: &f64| v.is_finite()), push_display,
        |v: &f64, range: Range| range.admits(*v);
    Time => f64::EXPECTED,
        |text| f64::parse(text).map(Time::from_micros),
        |time: &Time, out| push_display(&time.as_micros(), out),
        |time: &Time, range: Range| range.admits(time.as_micros());
    EccMode => "`paper` or `structural`",
        |text| match text {
            "paper" => Some(EccMode::Paper),
            "structural" => Some(EccMode::Structural),
            _ => None,
        },
        push_display,
        |_, range| matches!(range, Range::Parsed);
    ObsDetail => "`full` or `light`",
        ObsDetail::from_token,
        |detail: &ObsDetail, out: &mut String| out.push_str(detail.token()),
        |_, range| matches!(range, Range::Parsed);
}

/// Implements [`SpecValue`] for comma-separated lists of each
/// `entry type => expected;`.
macro_rules! list_values {
    ($($t:ty => $expected:expr;)+) => {$(
        impl SpecValue for Vec<$t> {
            const EXPECTED: &'static str = $expected;
            fn parse(text: &str) -> Option<Self> {
                text.split(',').map(|item| <$t>::parse(item.trim())).collect()
            }
            fn render(&self, out: &mut String) {
                for (i, item) in self.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render(out);
                }
            }
            fn admits(&self, range: Range) -> bool {
                !self.is_empty() && self.iter().all(|item| item.admits(range))
            }
            fn check(&self, key: &str, range: Range) -> Result<(), SpecError> {
                if self.admits(range) {
                    return Ok(());
                }
                Err(match self.iter().find(|item| !item.admits(range)) {
                    Some(item) => out_of_range(&format!("{key} entries"), range, item),
                    None => SpecError::Invalid(format!("{key} must list at least one entry")),
                })
            }
        }
    )+};
}

list_values! {
    f64 => "a comma-separated list of finite numbers";
    usize => "a comma-separated list of non-negative integers";
}

fn push_display(value: &impl core::fmt::Display, out: &mut String) {
    use core::fmt::Write;
    write!(out, "{value}").expect("writing to a String cannot fail");
}

/// The error for `value` of `key` lying outside `range`.
fn out_of_range(key: &str, range: Range, value: &impl SpecValue) -> SpecError {
    let mut got = String::new();
    value.render(&mut got);
    SpecError::Invalid(format!(
        "{key} must be {range}, got '{}'",
        got.escape_debug()
    ))
}

/// Why a spec failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A line was not `key = value`.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A key no spec field corresponds to.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unknown key.
        key: String,
    },
    /// A key assigned more than once.
    DuplicateKey {
        /// Line of the second assignment.
        line: usize,
        /// The duplicated key.
        key: String,
        /// Line of the first assignment.
        first_line: usize,
    },
    /// A required key was absent.
    MissingKey {
        /// The missing key.
        key: &'static str,
    },
    /// A value failed to parse as its field's type.
    BadValue {
        /// The key whose value was malformed.
        key: String,
        /// The offending value text.
        value: String,
        /// What the field expects.
        expected: &'static str,
    },
    /// The `format_version` is not one this build understands.
    UnsupportedVersion {
        /// The version string found.
        found: String,
    },
    /// The design point violates a machine invariant.
    Machine(MachineBuildError),
    /// A field (or combination) is out of its valid range.
    Invalid(String),
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecError::Syntax { line, message } => {
                write!(f, "spec line {line}: {message}")
            }
            SpecError::UnknownKey { line, key } => {
                write!(f, "spec line {line}: unknown key '{key}'")
            }
            SpecError::DuplicateKey {
                line,
                key,
                first_line,
            } => write!(
                f,
                "spec line {line}: key '{key}' already assigned on line {first_line}"
            ),
            SpecError::MissingKey { key } => {
                write!(f, "spec is missing required key '{key}'")
            }
            SpecError::BadValue {
                key,
                value,
                expected,
            } => write!(
                f,
                "spec key '{key}': bad value '{value}' (expected {expected})"
            ),
            SpecError::UnsupportedVersion { found } => write!(
                f,
                "unsupported spec format_version '{found}' (this build reads version 1)"
            ),
            SpecError::Machine(e) => write!(f, "invalid design point: {e}"),
            SpecError::Invalid(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<MachineBuildError> for SpecError {
    fn from(e: MachineBuildError) -> Self {
        SpecError::Machine(e)
    }
}

impl From<KvError<'static>> for SpecError {
    fn from(e: KvError<'static>) -> Self {
        match e {
            KvError::Syntax { line, message } => SpecError::Syntax { line, message },
            KvError::DuplicateKey {
                line,
                key,
                first_line,
            } => SpecError::DuplicateKey {
                line,
                key,
                first_line,
            },
            KvError::MissingKey { key } => SpecError::MissingKey { key },
            KvError::BadValue {
                key,
                value,
                expected,
                ..
            } => SpecError::BadValue {
                key: key.to_owned(),
                value,
                expected,
            },
            KvError::UnknownKey { line, key } => SpecError::UnknownKey { line, key },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_by_name_and_validate() {
        assert_eq!(BUILTIN_PROFILES.len(), 4);
        for name in BUILTIN_PROFILES {
            let spec = MachineSpec::builtin(name).expect("builtin resolves");
            assert_eq!(spec.name, name);
            assert!(!spec.description.is_empty());
            spec.validate().expect("builtin validates");
            spec.machine().expect("builtin builds");
        }
        assert!(MachineSpec::builtin("no-such-profile").is_none());
    }

    #[test]
    fn every_builtin_round_trips_through_the_text_format() {
        for spec in MachineSpec::builtins() {
            let rendered = spec.render();
            let parsed = MachineSpec::parse(&rendered).expect("rendered spec parses");
            assert_eq!(parsed, spec, "{} did not round-trip", spec.name);
            // And rendering is idempotent (byte-stable).
            assert_eq!(parsed.render(), rendered);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_tolerated() {
        let text = format!(
            "# a scenario file\n\n{}\n# trailing comment\n",
            MachineSpec::expected().render()
        );
        assert_eq!(MachineSpec::parse(&text).unwrap(), MachineSpec::expected());
    }

    #[test]
    fn unknown_duplicate_missing_and_malformed_keys_are_loud() {
        let base = MachineSpec::expected().render();

        let unknown = format!("{base}frobnicate = 1\n");
        let err = MachineSpec::parse(&unknown).unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'frobnicate'"),
            "{err}"
        );

        let duplicate = format!("{base}bandwidth = 4\n");
        let err = MachineSpec::parse(&duplicate).unwrap_err();
        assert!(err.to_string().contains("already assigned"), "{err}");

        let missing = base.replace("bandwidth = 2\n", "");
        let err = MachineSpec::parse(&missing).unwrap_err();
        assert!(
            err.to_string().contains("missing required key 'bandwidth'"),
            "{err}"
        );

        let malformed = base.replace("bandwidth = 2", "bandwidth = two");
        let err = MachineSpec::parse(&malformed).unwrap_err();
        assert!(err.to_string().contains("bad value 'two'"), "{err}");

        let not_kv = format!("{base}this is not a key value line\n");
        let err = MachineSpec::parse(&not_kv).unwrap_err();
        assert!(err.to_string().contains("expected `key = value`"), "{err}");

        let version = base.replace("format_version = 1", "format_version = 99");
        let err = MachineSpec::parse(&version).unwrap_err();
        assert!(err.to_string().contains("format_version '99'"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        let mut spec = MachineSpec::expected();
        spec.recursion_level = 7;
        assert!(matches!(
            spec.validate().unwrap_err(),
            SpecError::Machine(MachineBuildError::UnsupportedRecursionLevel { .. })
        ));

        let mut spec = MachineSpec::expected();
        spec.sweep.component_rates.clear();
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("component_rates"));

        let mut spec = MachineSpec::expected();
        spec.sweep.threshold_scan_lo = 0.5;
        spec.sweep.threshold_scan_hi = 0.1;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("threshold_scan_lo"));

        let mut spec = MachineSpec::expected();
        spec.sweep.sim.offered_loads = vec![0.5, -1.0];
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("sim.offered_loads"));

        let mut spec = MachineSpec::expected();
        spec.sweep.sim.offered_loads = vec![MAX_OFFERED_LOAD * 2.0];
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("at most 10000"));

        let mut spec = MachineSpec::expected();
        spec.sweep.sim.tail_offered_load = f64::INFINITY;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("tail_offered_load"));

        let mut spec = MachineSpec::expected();
        spec.sweep.sim.burst_factor = 0.5;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("burst_factor"));

        let mut spec = MachineSpec::expected();
        spec.sweep.sim.contended_requests = 1;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("contended_requests"));

        let mut spec = MachineSpec::expected();
        spec.sweep.sim.measure_windows = 0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("measure_windows"));

        let mut spec = MachineSpec::expected();
        spec.sweep.trace.adder_bits = 0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("trace.adder_bits"));

        let mut spec = MachineSpec::expected();
        spec.sweep.trace.modexp_bits = 3;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("trace.modexp_bits"));

        let mut spec = MachineSpec::expected();
        spec.sweep.trace.modexp_multiplier_calls = 0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("modexp_multiplier_calls"));

        let mut spec = MachineSpec::expected();
        spec.sweep.trace.random_qubits = 2;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("random_qubits"));

        let mut spec = MachineSpec::expected();
        spec.sweep.trace.random_ops = MAX_TRACE_OPS + 1;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("random_ops"));

        let mut spec = MachineSpec::expected();
        spec.sweep.trace.scaling_adder_bits.clear();
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("scaling_adder_bits"));

        let mut spec = MachineSpec::expected();
        spec.sweep.trace.scaling_modexp_bits = vec![8, MAX_TRACE_BITS + 1];
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("scaling_modexp_bits"));

        let mut spec = MachineSpec::expected();
        spec.sweep.fault.severities = vec![0.5, 1.5];
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("fault.severities"));

        let mut spec = MachineSpec::expected();
        spec.sweep.fault.degraded_edge_fraction = 0.0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("degraded_edge_fraction"));

        let mut spec = MachineSpec::expected();
        spec.sweep.fault.duration_windows = 0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duration_windows"));

        let mut spec = MachineSpec::expected();
        spec.sweep.fault.matrix_offered_load = -2.0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("matrix_offered_load"));

        let mut spec = MachineSpec::expected();
        spec.sweep.fault.hotspot_fraction = 1.25;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("hotspot_fraction"));

        let mut spec = MachineSpec::expected();
        spec.sweep.fault.tenants = 0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("fault.tenants"));

        let mut spec = MachineSpec::expected();
        spec.sweep.fault.quota_skews = vec![1.0, 0.5];
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("quota_skews"));

        let mut spec = MachineSpec::expected();
        spec.sweep.obs.sample_every = 0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("obs.sample_every"));

        let mut spec = MachineSpec::expected();
        spec.tech.failures.double_gate = 1.5;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("tech.fail.double_gate"));

        let mut spec = MachineSpec::expected();
        spec.name = "two\nlines".to_string();
        assert!(spec.validate().is_err());

        // Padding would be trimmed away by parse(), breaking the
        // render→parse round trip, so validation refuses it up front.
        let mut spec = MachineSpec::expected();
        spec.description = " padded ".to_string();
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("whitespace"));
    }

    /// `expected` rendered with `key` set to `value`.
    fn expected_with(key: &str, value: &str) -> String {
        MachineSpec::expected()
            .render()
            .lines()
            .map(|line| match line.split_once(" = ") {
                Some((k, _)) if k == key => format!("{key} = {value}\n"),
                _ => format!("{line}\n"),
            })
            .collect()
    }

    /// Each of these once passed `validate` and then crashed a run:
    /// allocation failures, `SimTime` overflow, `capacity overflow`, and
    /// more tenants than the mesh has interior rows.
    #[test]
    fn specs_that_crashed_runs_fail_validation_naming_the_key() {
        const MAX: &str = "18446744073709551615";
        for (key, value) in [
            ("logical_qubits", "4000000000000"),
            ("sweep.distance_max_cells", MAX),
            ("sweep.sim.warmup_windows", MAX),
            ("sweep.fault.onset_windows", MAX),
            ("sweep.sim.contended_requests", MAX),
            ("sweep.fault.tenant_quota", MAX),
            ("sweep.fault.tenants", "10"),
        ] {
            let spec = MachineSpec::parse(&expected_with(key, value)).expect(key);
            let err = spec.validate().expect_err(key).to_string();
            assert!(err.contains(key), "{key}: {err}");
        }
        // Time rows feed `SimTime`; 1e20 µs overflowed it in sim-offered-load.
        let spec = MachineSpec::parse(&expected_with("tech.time.measure_us", "1e20")).unwrap();
        let err = spec
            .validate()
            .expect_err("1e20 µs measurement")
            .to_string();
        assert!(err.contains("tech.time.measure_us"), "{err}");
        // The expected 400-qubit floorplan is 37x11: nine interior rows.
        let spec = MachineSpec::parse(&expected_with("sweep.fault.tenants", "9")).unwrap();
        spec.validate().expect("one tenant per interior row");
    }

    /// Every integer key, and every entry of an integer list, has a finite
    /// upper bound: its type's maximum fails validation naming the key.
    #[test]
    fn every_integer_key_rejects_its_types_maximum() {
        let mut integer_keys = 0;
        for line in MachineSpec::expected().render().lines().skip(1) {
            let (key, _) = line.split_once(" = ").expect("key = value");
            let is_integer = matches!(
                MachineSpec::parse(&expected_with(key, "0.5")),
                Err(SpecError::BadValue { expected, .. }) if expected.contains("integer")
            );
            if !is_integer {
                continue;
            }
            integer_keys += 1;
            let spec = [usize::MAX.to_string(), u32::MAX.to_string()]
                .iter()
                .find_map(|max| MachineSpec::parse(&expected_with(key, max)).ok())
                .unwrap_or_else(|| panic!("{key}: no integer maximum parses"));
            let err = spec.validate().expect_err(key).to_string();
            assert!(err.contains(key), "{key}: {err}");
        }
        assert_eq!(integer_keys, 26, "integer keys of the table");
    }

    #[test]
    fn profile_machines_differ_where_they_should() {
        let expected = MachineSpec::expected().machine().unwrap();
        let current = MachineSpec::current().machine().unwrap();
        let slow = MachineSpec::relaxed_speed().machine().unwrap();
        // Same geometry, different technology.
        assert_eq!(expected.logical_qubits(), current.logical_qubits());
        assert_ne!(expected.config.tech, current.config.tech);
        // The slow profile's structural ECC window paces slower.
        assert!(slow.ecc_window() > expected.ecc_window());
        // Interconnect technology follows the profile.
        assert_eq!(slow.interconnect.tech, TechnologyParams::relaxed_speed());
    }

    #[test]
    fn movement_error_tracks_the_technology_and_clamps() {
        assert!((MachineSpec::expected().movement_error() - 1.2e-5).abs() < 1e-18);
        // Pcurrent movement is 0.1 per cell; over 12 cells that saturates.
        assert_eq!(MachineSpec::current().movement_error(), 1.0);
    }

    #[test]
    fn scenario_header_is_deterministic_and_names_the_profile() {
        let scenario = MachineSpec::expected().scenario();
        assert_eq!(scenario.profile, "expected");
        assert!(scenario.summary.contains("recursion_level=2"));
        assert!(
            scenario.summary.contains("p0=2.800e-7"),
            "{}",
            scenario.summary
        );
        assert_eq!(scenario, MachineSpec::expected().scenario());
    }
}
