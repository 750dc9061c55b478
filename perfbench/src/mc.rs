//! `mc-fig7`: the Figure 7 sweep plus the threshold scan at the
//! experiment's default 160k trials, on a two-worker executor.
//!
//! Untraced passes call `ThresholdExperiment::sweep_with` and
//! `estimate_threshold_with` as the `fig7-threshold` experiment does.
//! Traced passes drive the same executor themselves, one single-point call
//! per rate, so every sweep point gets its own span; the rendered report
//! must come out byte-identical either way.

use crate::spans::Tracer;
use crate::{
    median_or_zero, per_group_seconds, phase_budget, repeated_setup, set_end_to_end,
    set_self_times, set_setup_layers, timed_passes, tracing_overhead_s, Args, Outcome,
};
use qla_bench::experiments::fig7_threshold::{Fig7Output, Fig7Threshold};
use qla_core::{
    fnv1a64, Executor, Experiment, ExperimentContext, MachineSpec, ThresholdExperiment,
};
use qla_report::Format;

/// Monte Carlo trials per rate (the `fig7-threshold` default).
pub const TRIALS: usize = 160_000;
/// Executor workers.
pub const WORKERS: usize = 2;
/// The paper's threshold band, (2.1 ± 1.8)e-3.
pub const PAPER_BAND: (f64, f64) = (0.3e-3, 3.9e-3);

/// Set-up also runs one reduced reference pass whose JSON report is pinned:
/// `qla-bench run fig7-threshold --trials 8000 --seed 2005 --format json`
/// at the commit that introduced this benchmark, hashed with FNV-1a 64.
const REFERENCE_TRIALS: usize = 8_000;
const REFERENCE_SEED: u64 = 2005;
const REFERENCE_DIGEST: u64 = 0x38b0_86e8_37c3_0cd9;

/// Everything a pass needs.
struct Setup {
    ctx: ExperimentContext,
    experiment: ThresholdExperiment,
    /// The reference pass's report digest, checked against the pinned one.
    reference_digest: u64,
}

impl Setup {
    fn new(spec: &MachineSpec, trials: usize, seed: u64) -> Setup {
        let experiment = ThresholdExperiment {
            trials,
            seed,
            movement_error: spec.movement_error(),
        };
        let ctx = ExperimentContext::new(trials, seed)
            .with_spec(spec.clone())
            .with_executor(Executor::from_jobs(WORKERS));
        Setup {
            ctx,
            experiment,
            reference_digest: 0,
        }
    }

    /// Monte Carlo trials one pass runs: one level-1 estimate per swept
    /// rate, a level-2 estimate where level 1 failed at all, and one
    /// level-1 estimate per scan point.
    fn trials_per_pass(&self, output: &Fig7Output) -> usize {
        let level2 = output
            .points
            .iter()
            .filter(|p| p.level1_rate != 0.0)
            .count();
        let sweep = &self.ctx.spec.sweep;
        self.experiment.trials * (output.points.len() + level2 + sweep.threshold_scan_points)
    }
}

/// One pass: sweep, scan, render. Returns the output and its JSON report.
fn pass(setup: &Setup, tracer: &Tracer, group: u64, parent: u64) -> (Fig7Output, String) {
    let experiment = &setup.experiment;
    let executor = &setup.ctx.executor;
    let sweep = &setup.ctx.spec.sweep;
    let points = tracer.span("core.montecarlo.sweep", Some(parent), group, |span| {
        if !tracer.enabled() {
            return experiment.sweep_with(&sweep.component_rates, executor);
        }
        executor.map(&sweep.component_rates, |_, &p| {
            tracer.span("core.montecarlo.point", Some(span), group, |_| {
                experiment.sweep_with(&[p], &Executor::Sequential)[0]
            })
        })
    });
    let (lo, hi, n) = (
        sweep.threshold_scan_lo,
        sweep.threshold_scan_hi,
        sweep.threshold_scan_points,
    );
    let empirical_threshold = tracer.span("core.montecarlo.scan", Some(parent), group, |span| {
        if !tracer.enabled() {
            return experiment.estimate_threshold_with(lo, hi, n, executor);
        }
        // The parallel scan of `estimate_threshold_with`: every point is
        // evaluated, then the first crossing of y = x is located.
        let ratios = executor.map_indices(n, |i| {
            tracer.span("core.montecarlo.point", Some(span), group, |_| {
                let t = i as f64 / (n - 1).max(1) as f64;
                let p = lo * (hi / lo).powf(t);
                (p, experiment.level1_failure_rate(p) / p)
            })
        });
        ratios
            .windows(2)
            .find(|w| w[0].1 < 1.0 && w[1].1 >= 1.0)
            .map(|w| (w[0].0 * w[1].0).sqrt())
    });
    let output = Fig7Output {
        points,
        empirical_threshold,
    };
    let json = tracer.span("report.render", Some(parent), group, |_| {
        Fig7Threshold
            .report(&setup.ctx, &output)
            .with_scenario(setup.ctx.spec.scenario())
            .render(Format::Json)
    });
    (output, json)
}

/// Set up, including the pinned reference pass.
fn setup(tracer: &Tracer, group: u64, seed: u64) -> Result<Setup, String> {
    // The input is the rendered `expected` profile, parsed back the way
    // `--spec FILE` would read it.
    let text = MachineSpec::expected().render();
    let spec = tracer
        .span("core.spec_parse", None, group, |_| {
            MachineSpec::parse(&text)
        })
        .map_err(|e| format!("spec parse: {e}"))?;
    tracer
        .span("core.machine_build", None, group, |_| spec.machine())
        .map_err(|e| format!("machine build: {e}"))?;
    let reference = Setup::new(&spec, REFERENCE_TRIALS, REFERENCE_SEED);
    let (_, json) = pass(&reference, &Tracer::new(false), 0, 0);
    Ok(Setup {
        reference_digest: fnv1a64(json.as_bytes()),
        ..Setup::new(&spec, TRIALS, seed)
    })
}

/// Run the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let untraced = Tracer::new(false);
    let (setup, setup_s) = repeated_setup(|group| setup(tracer, group, args.seed))?;
    // The reference pass counts as one checked operation.
    let digest = setup.reference_digest;
    outcome.check(1, digest == REFERENCE_DIGEST, || {
        format!("reference report digest {digest:#018x} != pinned {REFERENCE_DIGEST:#018x}")
    });

    let mut first: Option<(Fig7Output, String)> = None;
    let mut check = |outcome: &mut Outcome, output: Fig7Output, json: String| {
        let reference = first.get_or_insert_with(|| (output.clone(), json.clone()));
        outcome.check(
            output.points.len() as u64,
            output.points == reference.0.points,
            || "a sweep point differs from the first pass".to_string(),
        );
        let in_band = output
            .empirical_threshold
            .is_some_and(|t| (PAPER_BAND.0..=PAPER_BAND.1).contains(&t));
        outcome.check(1, in_band && json == reference.1, || {
            format!(
                "threshold {:?} outside the paper band, or report bytes differ from the first pass",
                output.empirical_threshold
            )
        });
    };

    let plain = timed_passes(&untraced, phase_budget(args), 2, |group, id| {
        pass(&setup, &untraced, group, id)
    });
    let mut passes = Vec::new();
    let mut threshold = None;
    for (spent, (output, json)) in plain {
        passes.push((spent, setup.trials_per_pass(&output) as f64));
        threshold = output.empirical_threshold;
        check(&mut outcome, output, json);
    }
    set_end_to_end(
        &mut outcome,
        tracer.enabled(),
        &setup_s,
        &passes,
        "mc_trials",
    );

    if tracer.enabled() {
        let traced = timed_passes(tracer, phase_budget(args), 2, |group, id| {
            pass(&setup, tracer, group, id)
        });
        let traced_spent: Vec<_> = traced.iter().map(|(s, _)| *s).collect();
        for (_, (output, json)) in traced {
            check(&mut outcome, output, json);
        }
        let spans = tracer.spans();
        set_setup_layers(&mut outcome, &spans);
        let sweep = per_group_seconds(&spans, "core.montecarlo.sweep");
        let scan = per_group_seconds(&spans, "core.montecarlo.scan");
        let points = per_group_seconds(&spans, "core.montecarlo.point");
        let point_max: Vec<f64> = (0..traced_spent.len() as u64)
            .map(|g| {
                spans
                    .iter()
                    .filter(|s| s.group == g && s.name == "core.montecarlo.point")
                    .map(|s| s.dur_ns() as f64 / 1e9)
                    .fold(0.0, f64::max)
            })
            .collect();
        let busy: Vec<f64> = points
            .iter()
            .zip(sweep.iter().zip(&scan))
            .map(|(p, (a, b))| p / ((a + b) * WORKERS as f64))
            .collect();
        outcome.set("core.montecarlo.sweep_s", median_or_zero(&sweep));
        outcome.set("core.montecarlo.scan_s", median_or_zero(&scan));
        outcome.set("core.montecarlo.point_max_s", median_or_zero(&point_max));
        outcome.set("core.executor.busy_share", median_or_zero(&busy));
        outcome.set(
            "report.render_s",
            median_or_zero(&per_group_seconds(&spans, "report.render")),
        );
        let untraced_spent: Vec<_> = passes.iter().map(|(s, _)| *s).collect();
        outcome.set(
            "bench.tracing_overhead_s",
            tracing_overhead_s(&traced_spent, &untraced_spent),
        );
        set_self_times(&mut outcome, &spans, traced_spent.len());
    }
    outcome.notes.push(format!(
        "fig7 empirical threshold {} vs the paper's (2.1 +/- 1.8)e-3 band [{:.1e}, {:.1e}]",
        threshold.map_or("none".to_string(), |t| format!("{t:.3e}")),
        PAPER_BAND.0,
        PAPER_BAND.1
    ));
    Ok(outcome)
}
