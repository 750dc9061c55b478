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
//! * **validation** — [`MachineSpec::validate`] routes the design point
//!   through the [`MachineBuilder`](crate::MachineBuilder) invariants and
//!   checks the sweep grids, so an invalid spec fails at load time, not
//!   three experiments into a `run-all`.
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

    /// Check the whole spec: the machine invariants (through
    /// [`MachineBuilder`]) plus the text-format and sweep-grid constraints.
    ///
    /// # Errors
    /// Returns the first violation as a [`SpecError`] with a message naming
    /// the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let line_safe = |label: &str, value: &str| -> Result<(), SpecError> {
            if value.is_empty() && label == "name" {
                return Err(SpecError::Invalid(format!("{label} must not be empty")));
            }
            if value.contains('\n') || value.contains('#') {
                return Err(SpecError::Invalid(format!(
                    "{label} must be a single line without '#' (got {value:?})"
                )));
            }
            // The parser trims values, so padding would not survive a
            // render→parse round trip; reject it here instead of silently
            // mutating the spec.
            if value.trim() != value {
                return Err(SpecError::Invalid(format!(
                    "{label} must not have leading/trailing whitespace (got {value:?})"
                )));
            }
            Ok(())
        };
        line_safe("name", &self.name)?;
        line_safe("description", &self.description)?;

        let prob = |key: &str, v: f64| -> Result<(), SpecError> {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(SpecError::Invalid(format!(
                    "{key} must be a probability in [0, 1], got {v}"
                )));
            }
            Ok(())
        };
        let positive = |key: &str, v: f64| -> Result<(), SpecError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(SpecError::Invalid(format!(
                    "{key} must be a finite positive number, got {v}"
                )));
            }
            Ok(())
        };

        positive("tech.cell_size_um", self.tech.cell_size_um)?;
        let t = &self.tech.times;
        for (key, time) in [
            ("tech.time.single_gate_us", t.single_gate),
            ("tech.time.double_gate_us", t.double_gate),
            ("tech.time.measure_us", t.measure),
            ("tech.time.move_per_um_us", t.move_per_um),
            ("tech.time.move_per_cell_us", t.move_per_cell),
            ("tech.time.split_us", t.split),
            ("tech.time.corner_turn_us", t.corner_turn),
            ("tech.time.cool_us", t.cool),
            ("tech.time.memory_lifetime_us", t.memory_lifetime),
        ] {
            positive(key, time.as_micros())?;
        }
        let p = &self.tech.failures;
        for (key, rate) in [
            ("tech.fail.single_gate", p.single_gate),
            ("tech.fail.double_gate", p.double_gate),
            ("tech.fail.measure", p.measure),
            ("tech.fail.move_per_um", p.move_per_um),
            ("tech.fail.move_per_cell", p.move_per_cell),
        ] {
            prob(key, rate)?;
        }
        positive("tech.fail.memory_per_sec", p.memory_per_sec)?;

        let ic = &self.interconnect;
        prob("interconnect.creation_fidelity", ic.creation_fidelity)?;
        prob("interconnect.per_cell_error", ic.per_cell_error)?;
        prob("interconnect.local_op_error", ic.local_op_error)?;
        prob("interconnect.swap_op_error", ic.swap_op_error)?;
        prob("interconnect.max_final_infidelity", ic.max_final_infidelity)?;
        positive(
            "interconnect.purification_round_time_us",
            ic.purification_round_time.as_micros(),
        )?;
        positive(
            "interconnect.swap_stage_time_us",
            ic.swap_stage_time.as_micros(),
        )?;

        let s = &self.sweep;
        if s.component_rates.is_empty() {
            return Err(SpecError::Invalid(
                "sweep.component_rates must list at least one rate".to_string(),
            ));
        }
        for &rate in &s.component_rates {
            if !rate.is_finite() || rate <= 0.0 || rate >= 1.0 {
                return Err(SpecError::Invalid(format!(
                    "sweep.component_rates entries must lie in (0, 1), got {rate}"
                )));
            }
        }
        positive("sweep.threshold_scan_lo", s.threshold_scan_lo)?;
        positive("sweep.threshold_scan_hi", s.threshold_scan_hi)?;
        if s.threshold_scan_lo >= s.threshold_scan_hi {
            return Err(SpecError::Invalid(format!(
                "sweep.threshold_scan_lo ({}) must be below sweep.threshold_scan_hi ({})",
                s.threshold_scan_lo, s.threshold_scan_hi
            )));
        }
        if s.threshold_scan_points < 2 {
            return Err(SpecError::Invalid(format!(
                "sweep.threshold_scan_points must be at least 2, got {}",
                s.threshold_scan_points
            )));
        }
        if !(1..=8).contains(&s.max_recursion_level) {
            return Err(SpecError::Invalid(format!(
                "sweep.max_recursion_level must lie in 1..=8, got {}",
                s.max_recursion_level
            )));
        }
        if s.distance_step_cells == 0 {
            return Err(SpecError::Invalid(
                "sweep.distance_step_cells must be at least 1".to_string(),
            ));
        }
        if s.distance_max_cells < s.distance_step_cells {
            return Err(SpecError::Invalid(format!(
                "sweep.distance_max_cells ({}) must be at least the step ({})",
                s.distance_max_cells, s.distance_step_cells
            )));
        }
        if s.bandwidths.is_empty() || s.bandwidths.contains(&0) {
            return Err(SpecError::Invalid(
                "sweep.bandwidths must list at least one non-zero bandwidth".to_string(),
            ));
        }
        if s.toffoli_counts.is_empty() || s.toffoli_counts.contains(&0) {
            return Err(SpecError::Invalid(
                "sweep.toffoli_counts must list at least one non-zero batch size".to_string(),
            ));
        }

        let sim = &s.sim;
        if sim.offered_loads.is_empty() {
            return Err(SpecError::Invalid(
                "sweep.sim.offered_loads must list at least one load".to_string(),
            ));
        }
        // Loads are bounded above as well as below: an astronomical load
        // would offer millions of gates per window and turn a "sweep point"
        // into an out-of-memory run before the engine's own clamps engage.
        let load_in_range = |key: &str, load: f64| -> Result<(), SpecError> {
            if !load.is_finite() || load <= 0.0 || load > MAX_OFFERED_LOAD {
                return Err(SpecError::Invalid(format!(
                    "{key} must be a positive load of at most {MAX_OFFERED_LOAD} \
                     Toffolis per window, got {load}"
                )));
            }
            Ok(())
        };
        for &load in &sim.offered_loads {
            load_in_range("sweep.sim.offered_loads entries", load)?;
        }
        load_in_range("sweep.sim.tail_offered_load", sim.tail_offered_load)?;
        if !sim.burst_factor.is_finite() || sim.burst_factor < 1.0 {
            return Err(SpecError::Invalid(format!(
                "sweep.sim.burst_factor must be at least 1, got {}",
                sim.burst_factor
            )));
        }
        if sim.max_in_flight == 0 {
            return Err(SpecError::Invalid(
                "sweep.sim.max_in_flight must be at least 1".to_string(),
            ));
        }
        if sim.ancilla_capacity == 0 {
            return Err(SpecError::Invalid(
                "sweep.sim.ancilla_capacity must be at least 1".to_string(),
            ));
        }
        if sim.measure_windows == 0 {
            return Err(SpecError::Invalid(
                "sweep.sim.measure_windows must be at least 1".to_string(),
            ));
        }
        if sim.contended_requests < 2 {
            return Err(SpecError::Invalid(format!(
                "sweep.sim.contended_requests must be at least 2 (one request is the \
                 uncontended regime), got {}",
                sim.contended_requests
            )));
        }

        let trace = &s.trace;
        let bits_in_range = |key: &str, bits: usize, floor: usize| -> Result<(), SpecError> {
            if bits < floor || bits > MAX_TRACE_BITS {
                return Err(SpecError::Invalid(format!(
                    "{key} must be between {floor} and {MAX_TRACE_BITS} bits, got {bits}"
                )));
            }
            Ok(())
        };
        bits_in_range("sweep.trace.adder_bits", trace.adder_bits, 1)?;
        // modexp_costs models moduli of at least 4 bits.
        bits_in_range("sweep.trace.modexp_bits", trace.modexp_bits, 4)?;
        if trace.modexp_multiplier_calls == 0 {
            return Err(SpecError::Invalid(
                "sweep.trace.modexp_multiplier_calls must be at least 1".to_string(),
            ));
        }
        if trace.random_qubits < 3 || trace.random_qubits > MAX_TRACE_BITS * 4 {
            return Err(SpecError::Invalid(format!(
                "sweep.trace.random_qubits must be between 3 (Toffoli operands) and {}, got {}",
                MAX_TRACE_BITS * 4,
                trace.random_qubits
            )));
        }
        if trace.random_ops == 0 || trace.random_ops > MAX_TRACE_OPS {
            return Err(SpecError::Invalid(format!(
                "sweep.trace.random_ops must be between 1 and {MAX_TRACE_OPS}, got {}",
                trace.random_ops
            )));
        }
        if trace.scaling_adder_bits.is_empty() {
            return Err(SpecError::Invalid(
                "sweep.trace.scaling_adder_bits must list at least one width".to_string(),
            ));
        }
        for &bits in &trace.scaling_adder_bits {
            bits_in_range("sweep.trace.scaling_adder_bits entries", bits, 1)?;
        }
        if trace.scaling_modexp_bits.is_empty() {
            return Err(SpecError::Invalid(
                "sweep.trace.scaling_modexp_bits must list at least one width".to_string(),
            ));
        }
        for &bits in &trace.scaling_modexp_bits {
            bits_in_range("sweep.trace.scaling_modexp_bits entries", bits, 4)?;
        }

        let fault = &s.fault;
        if fault.severities.is_empty() {
            return Err(SpecError::Invalid(
                "sweep.fault.severities must list at least one severity".to_string(),
            ));
        }
        for &severity in &fault.severities {
            prob("sweep.fault.severities entries", severity)?;
        }
        let fraction = |key: &str, v: f64| -> Result<(), SpecError> {
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(SpecError::Invalid(format!(
                    "{key} must be a fraction in (0, 1], got {v}"
                )));
            }
            Ok(())
        };
        fraction(
            "sweep.fault.degraded_edge_fraction",
            fault.degraded_edge_fraction,
        )?;
        if fault.duration_windows == 0 {
            return Err(SpecError::Invalid(
                "sweep.fault.duration_windows must be at least 1".to_string(),
            ));
        }
        prob("sweep.fault.factory_loss", fault.factory_loss)?;
        load_in_range(
            "sweep.fault.traffic_offered_load",
            fault.traffic_offered_load,
        )?;
        load_in_range("sweep.fault.matrix_offered_load", fault.matrix_offered_load)?;
        fraction("sweep.fault.hotspot_fraction", fault.hotspot_fraction)?;
        if fault.tenants == 0 {
            return Err(SpecError::Invalid(
                "sweep.fault.tenants must be at least 1".to_string(),
            ));
        }
        if fault.tenant_quota == 0 {
            return Err(SpecError::Invalid(
                "sweep.fault.tenant_quota must be at least 1".to_string(),
            ));
        }
        if fault.quota_skews.is_empty() {
            return Err(SpecError::Invalid(
                "sweep.fault.quota_skews must list at least one skew".to_string(),
            ));
        }
        for &skew in &fault.quota_skews {
            if !skew.is_finite() || skew < 1.0 {
                return Err(SpecError::Invalid(format!(
                    "sweep.fault.quota_skews entries must be at least 1, got {skew}"
                )));
            }
        }

        let obs = &s.obs;
        if obs.sample_every == 0 {
            return Err(SpecError::Invalid(
                "sweep.obs.sample_every must be at least 1".to_string(),
            ));
        }

        // Finally the machine invariants themselves.
        self.machine().map_err(SpecError::Machine)?;
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
/// writes — the one place a key is named. Expands to `render_fields` and
/// `parse_fields`.
macro_rules! spec_fields {
    ($($key:literal => $($field:ident).+,)+) => {
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
    };
}

spec_fields! {
    "name" => name,
    "description" => description,
    "logical_qubits" => logical_qubits,
    "recursion_level" => recursion_level,
    "bandwidth" => bandwidth,
    "ecc" => ecc,
    "tech.cell_size_um" => tech.cell_size_um,
    "tech.time.single_gate_us" => tech.times.single_gate,
    "tech.time.double_gate_us" => tech.times.double_gate,
    "tech.time.measure_us" => tech.times.measure,
    "tech.time.move_per_um_us" => tech.times.move_per_um,
    "tech.time.move_per_cell_us" => tech.times.move_per_cell,
    "tech.time.split_us" => tech.times.split,
    "tech.time.corner_turn_us" => tech.times.corner_turn,
    "tech.time.cool_us" => tech.times.cool,
    "tech.time.memory_lifetime_us" => tech.times.memory_lifetime,
    "tech.fail.single_gate" => tech.failures.single_gate,
    "tech.fail.double_gate" => tech.failures.double_gate,
    "tech.fail.measure" => tech.failures.measure,
    "tech.fail.move_per_um" => tech.failures.move_per_um,
    "tech.fail.move_per_cell" => tech.failures.move_per_cell,
    "tech.fail.memory_per_sec" => tech.failures.memory_per_sec,
    "interconnect.creation_fidelity" => interconnect.creation_fidelity,
    "interconnect.per_cell_error" => interconnect.per_cell_error,
    "interconnect.local_op_error" => interconnect.local_op_error,
    "interconnect.swap_op_error" => interconnect.swap_op_error,
    "interconnect.max_final_infidelity" => interconnect.max_final_infidelity,
    "interconnect.purification_round_time_us" => interconnect.purification_round_time,
    "interconnect.swap_stage_time_us" => interconnect.swap_stage_time,
    "sweep.component_rates" => sweep.component_rates,
    "sweep.threshold_scan_lo" => sweep.threshold_scan_lo,
    "sweep.threshold_scan_hi" => sweep.threshold_scan_hi,
    "sweep.threshold_scan_points" => sweep.threshold_scan_points,
    "sweep.max_recursion_level" => sweep.max_recursion_level,
    "sweep.distance_step_cells" => sweep.distance_step_cells,
    "sweep.distance_max_cells" => sweep.distance_max_cells,
    "sweep.bandwidths" => sweep.bandwidths,
    "sweep.toffoli_counts" => sweep.toffoli_counts,
    "sweep.sim.offered_loads" => sweep.sim.offered_loads,
    "sweep.sim.burst_factor" => sweep.sim.burst_factor,
    "sweep.sim.max_in_flight" => sweep.sim.max_in_flight,
    "sweep.sim.ancilla_capacity" => sweep.sim.ancilla_capacity,
    "sweep.sim.warmup_windows" => sweep.sim.warmup_windows,
    "sweep.sim.measure_windows" => sweep.sim.measure_windows,
    "sweep.sim.tail_offered_load" => sweep.sim.tail_offered_load,
    "sweep.sim.contended_requests" => sweep.sim.contended_requests,
    "sweep.trace.adder_bits" => sweep.trace.adder_bits,
    "sweep.trace.modexp_bits" => sweep.trace.modexp_bits,
    "sweep.trace.modexp_multiplier_calls" => sweep.trace.modexp_multiplier_calls,
    "sweep.trace.random_qubits" => sweep.trace.random_qubits,
    "sweep.trace.random_ops" => sweep.trace.random_ops,
    "sweep.trace.scaling_adder_bits" => sweep.trace.scaling_adder_bits,
    "sweep.trace.scaling_modexp_bits" => sweep.trace.scaling_modexp_bits,
    "sweep.fault.severities" => sweep.fault.severities,
    "sweep.fault.degraded_edge_fraction" => sweep.fault.degraded_edge_fraction,
    "sweep.fault.onset_windows" => sweep.fault.onset_windows,
    "sweep.fault.duration_windows" => sweep.fault.duration_windows,
    "sweep.fault.factory_loss" => sweep.fault.factory_loss,
    "sweep.fault.traffic_offered_load" => sweep.fault.traffic_offered_load,
    "sweep.fault.matrix_offered_load" => sweep.fault.matrix_offered_load,
    "sweep.fault.hotspot_fraction" => sweep.fault.hotspot_fraction,
    "sweep.fault.tenants" => sweep.fault.tenants,
    "sweep.fault.tenant_quota" => sweep.fault.tenant_quota,
    "sweep.fault.quota_skews" => sweep.fault.quota_skews,
    "sweep.obs.detail" => sweep.obs.detail,
    "sweep.obs.sample_every" => sweep.obs.sample_every,
}

/// A field type of the spec text format.
trait SpecValue: Sized {
    /// What a malformed value is reported as expecting.
    const EXPECTED: &'static str;
    fn parse(text: &str) -> Option<Self>;
    fn render(&self, out: &mut String);

    fn render_line(&self, key: &str, out: &mut String) {
        out.push_str(key);
        out.push_str(" = ");
        self.render(out);
        out.push('\n');
    }

    fn take(fields: &mut KeyValues<'_>, key: &'static str) -> Result<Self, KvError<'static>> {
        fields.value(key, Self::EXPECTED, Self::parse)
    }
}

/// Implements [`SpecValue`] for each `type => expected, parse, render;`.
macro_rules! spec_values {
    ($($t:ty => $expected:expr, $parse:expr, $render:expr;)+) => {$(
        impl SpecValue for $t {
            const EXPECTED: &'static str = $expected;
            fn parse(text: &str) -> Option<Self> {
                $parse(text)
            }
            fn render(&self, out: &mut String) {
                $render(self, out);
            }
        }
    )+};
}

// Rust's `Display` for `f64` is the shortest text that parses back to the
// same bits, and never uses exponent notation. Times are written in
// microseconds.
spec_values! {
    String => "a line of text", |text: &str| Some(text.to_owned()), push_display;
    usize => "a non-negative integer", |text: &str| text.parse().ok(), push_display;
    u32 => "a non-negative integer", |text: &str| text.parse().ok(), push_display;
    f64 => "a finite number",
        |text: &str| text.parse().ok().filter(|v: &f64| v.is_finite()), push_display;
    Time => f64::EXPECTED,
        |text| f64::parse(text).map(Time::from_micros),
        |time: &Time, out| push_display(&time.as_micros(), out);
    EccMode => "`paper` or `structural`",
        |text| match text {
            "paper" => Some(EccMode::Paper),
            "structural" => Some(EccMode::Structural),
            _ => None,
        },
        push_display;
    ObsDetail => "`full` or `light`",
        ObsDetail::from_token,
        |detail: &ObsDetail, out: &mut String| out.push_str(detail.token());
    Vec<f64> => "a comma-separated list of finite numbers", parse_list, render_list;
    Vec<usize> => "a comma-separated list of non-negative integers", parse_list, render_list;
}

fn push_display(value: &impl core::fmt::Display, out: &mut String) {
    use core::fmt::Write;
    write!(out, "{value}").expect("writing to a String cannot fail");
}

fn parse_list<T: SpecValue>(text: &str) -> Option<Vec<T>> {
    text.split(',').map(|item| T::parse(item.trim())).collect()
}

fn render_list<T: SpecValue>(items: &[T], out: &mut String) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item.render(out);
    }
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
