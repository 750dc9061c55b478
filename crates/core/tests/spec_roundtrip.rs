//! Round-trip and golden tests for the machine-spec text format.
//!
//! `parse(render(spec)) == spec` must hold for every built-in profile and
//! for randomized mutations of them, and the rendered `expected` profile is
//! byte-pinned by a committed golden so the format itself cannot drift
//! silently (a drifted format would orphan every spec file users have
//! written). Regenerate the golden together with the report fixtures:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qla-bench --test report_golden
//! UPDATE_GOLDEN=1 cargo test -p qla-core  --test spec_roundtrip
//! ```

use qla_core::{EccMode, MachineSpec, SpecError, BUILTIN_PROFILES};
use qla_obs::ObsDetail;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

#[test]
fn every_builtin_round_trips_byte_stably() {
    for name in BUILTIN_PROFILES {
        let spec = MachineSpec::builtin(name).unwrap();
        let rendered = spec.render();
        let parsed = MachineSpec::parse(&rendered).unwrap();
        assert_eq!(parsed, spec, "{name}: value round-trip");
        assert_eq!(parsed.render(), rendered, "{name}: byte round-trip");
    }
}

#[test]
fn rendered_expected_profile_matches_the_committed_golden() {
    let actual = MachineSpec::expected().render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/expected.spec");
        std::fs::write(path, &actual).expect("rewrite expected.spec");
        return;
    }
    assert_eq!(
        actual,
        include_str!("golden/expected.spec"),
        "the spec text format drifted; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p qla-core --test spec_roundtrip \
         and bump format_version if existing files stop parsing"
    );
}

/// Property-style randomized round-trip: mutate every numeric field of a
/// built-in through seeded draws (including awkward magnitudes from 1e-12
/// up) and require exact value round-trips. Rust's shortest-representation
/// float formatting guarantees re-parsing yields identical bits; this test
/// is what keeps that assumption honest if the renderer ever changes.
#[test]
fn randomized_specs_round_trip_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_5BEC);
    for case in 0..200u32 {
        let mut spec =
            MachineSpec::builtin(BUILTIN_PROFILES[case as usize % BUILTIN_PROFILES.len()]).unwrap();

        let rate = |rng: &mut ChaCha8Rng| -> f64 {
            let exponent = rng.random_range(-12.0..0.0);
            10f64.powf(exponent)
        };

        spec.name = format!("fuzz-{case}");
        spec.description = format!("randomized case {case}");
        spec.logical_qubits = rng.random_range(1..100_000);
        spec.recursion_level = rng.random_range(1..=2);
        spec.bandwidth = rng.random_range(1..64);
        spec.ecc = if rng.random::<bool>() {
            EccMode::Paper
        } else {
            EccMode::Structural
        };
        spec.tech.cell_size_um = rng.random_range(1.0..100.0);
        spec.tech.failures.single_gate = rate(&mut rng);
        spec.tech.failures.double_gate = rate(&mut rng);
        spec.tech.failures.measure = rate(&mut rng);
        spec.tech.failures.move_per_cell = rate(&mut rng);
        spec.tech.failures.move_per_um = rate(&mut rng);
        spec.interconnect.creation_fidelity = rng.random_range(0.9..1.0);
        spec.interconnect.per_cell_error = rate(&mut rng);
        spec.sweep.component_rates = (0..rng.random_range(1..20))
            .map(|_| rate(&mut rng))
            .collect();
        spec.sweep.threshold_scan_points = rng.random_range(2..40);
        spec.sweep.bandwidths = (0..rng.random_range(1..6))
            .map(|_| rng.random_range(1..32))
            .collect();
        spec.sweep.sim.offered_loads = (0..rng.random_range(1..8))
            .map(|_| rng.random_range(0.01..64.0))
            .collect();
        spec.sweep.sim.burst_factor = rng.random_range(1.0..8.0);
        spec.sweep.sim.max_in_flight = rng.random_range(1..1_000);
        spec.sweep.sim.ancilla_capacity = rng.random_range(1..100);
        spec.sweep.sim.warmup_windows = rng.random_range(0..10);
        spec.sweep.sim.measure_windows = rng.random_range(1..100);
        spec.sweep.sim.tail_offered_load = rng.random_range(0.01..32.0);
        spec.sweep.sim.contended_requests = rng.random_range(2..32);
        spec.sweep.trace.adder_bits = rng.random_range(1..64);
        spec.sweep.trace.modexp_bits = rng.random_range(4..64);
        spec.sweep.trace.modexp_multiplier_calls = rng.random_range(1..16);
        spec.sweep.trace.random_qubits = rng.random_range(3..256);
        spec.sweep.trace.random_ops = rng.random_range(1..10_000);
        spec.sweep.trace.scaling_adder_bits = (0..rng.random_range(1..6))
            .map(|_| rng.random_range(1..64))
            .collect();
        spec.sweep.trace.scaling_modexp_bits = (0..rng.random_range(1..6))
            .map(|_| rng.random_range(4..64))
            .collect();
        spec.sweep.obs.detail = if rng.random::<bool>() {
            ObsDetail::Full
        } else {
            ObsDetail::Light
        };
        spec.sweep.obs.sample_every = rng.random_range(1..1000);

        let rendered = spec.render();
        let parsed = MachineSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("case {case} failed to parse: {e}\n{rendered}"));
        assert_eq!(parsed, spec, "case {case} did not round-trip");
    }
}

/// Every key is wired to its own field: changing one key's value in the
/// text changes that key's line, and only that line, after a
/// parse → render round trip. A getter or setter bound to the wrong field
/// moves a different line, or none.
#[test]
fn each_key_reads_and_writes_only_its_own_field() {
    let base = MachineSpec::expected().render();
    let lines: Vec<&str> = base.lines().collect();
    for (index, line) in lines.iter().enumerate().skip(1) {
        let (key, value) = line
            .split_once(" = ")
            .expect("rendered lines are key = value");
        let perturbed = match value {
            "paper" => "structural".to_owned(),
            "full" => "light".to_owned(),
            // Integers and floats alike: + 1 stays in the field's type.
            v if v.parse::<f64>().is_ok() => format!("{}", v.parse::<f64>().unwrap() + 1.0),
            // Lists gain an entry; free text gains a suffix.
            v => format!("{v}, 7"),
        };
        let mut text = lines.clone();
        let replaced = format!("{key} = {perturbed}");
        text[index] = &replaced;
        let spec = MachineSpec::parse(&(text.join("\n") + "\n"))
            .unwrap_or_else(|e| panic!("{key}: perturbed spec failed to parse: {e}"));
        let rendered = spec.render();
        let changed: Vec<usize> = rendered
            .lines()
            .zip(&lines)
            .enumerate()
            .filter(|(_, (after, before))| after != *before)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(changed, [index], "{key}: perturbing it moved other lines");
        assert_eq!(rendered.lines().count(), lines.len());
    }
}

/// Of several unknown keys, the error names the one on the lowest line.
#[test]
fn the_unknown_key_on_the_lowest_line_is_reported() {
    let text = format!("{}zulu = 1\nalpha = 2\n", MachineSpec::expected().render());
    let line = text.lines().count() - 1;
    assert_eq!(
        MachineSpec::parse(&text),
        Err(SpecError::UnknownKey {
            line,
            key: "zulu".to_owned()
        })
    );
}
