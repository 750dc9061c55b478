//! The QLA repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mc-fig7|trace-factor128|trace-factor128-recorded|serve-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets itself up several times (reporting the median as
//! `setup_s`), then repeats its timed body for `--seconds` and checks every
//! output it produced. The gated times are process CPU time (see
//! [`clock`]); wall time is printed beside them. `--trace 0` reports the
//! end-to-end metrics. `--trace 1` runs the body untraced for half the time
//! and traced for the other half, and reports the per-layer metrics,
//! measured from spans the benchmark records around its calls into each
//! crate. The human-readable
//! block before the last line names each metric with its unit and sample
//! count; the last line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md` for which
//! per-layer metric should move which end-to-end metric.

mod clock;
mod mc;
mod replay;
mod serve;
mod spans;
mod stats;

use clock::{Spent, StealMeter, Stopwatch};
use spans::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics: every workload reports each of them, untraced.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("work_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every workload reports each of them in a traced run,
/// as 0 where the workload does not reach the layer.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.spec_parse_s", "s"),
    ("core.machine_build_s", "s"),
    ("core.montecarlo.sweep_s", "s"),
    ("core.montecarlo.scan_s", "s"),
    ("core.montecarlo.point_max_s", "s"),
    ("core.executor.busy_share", "share"),
    ("trace.parse_s", "s"),
    ("trace.lower_s", "s"),
    ("sched.schedule_s", "s"),
    ("trace.work_items_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.events_per_busy_s", "1/s"),
    ("sim.events", "count"),
    ("sched.requests", "count"),
    ("obs.events_recorded", "count"),
    ("obs.export_chrome_s", "s"),
    ("obs.export_timeline_s", "s"),
    ("obs.export_bytes", "bytes"),
    ("report.render_s", "s"),
    ("serve.lookups", "count"),
    ("serve.lookup_s", "s"),
    ("serve.hit_ratio", "share"),
    ("serve.client_hit_share", "share"),
    ("serve.eval_s", "s"),
    ("serve.eval_p50_ms", "ms"),
    ("serve.miss_overhead_p50_ms", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.evictions", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.peak_in_flight", "count"),
    ("serve.hit_latency_p50_us", "us"),
    ("serve.hit_latency_p99_us", "us"),
    ("serve.miss_latency_p50_ms", "ms"),
    ("serve.miss_latency_p90_ms", "ms"),
    ("bench.tracing_overhead_s", "s"),
    ("core.self_s", "s"),
    ("trace.self_s", "s"),
    ("sched.self_s", "s"),
    ("sim.self_s", "s"),
    ("obs.self_s", "s"),
    ("report.self_s", "s"),
    ("serve.self_s", "s"),
    ("bench.self_s", "s"),
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "mc-fig7",
    "trace-factor128",
    "trace-factor128-recorded",
    "serve-mixed",
];

/// Each workload sets itself up at least this many times, and keeps
/// repeating (up to [`MAX_SETUP_REPEATS`]) until [`SETUP_BUDGET_S`] has
/// been spent, so a cheap set-up is summarised over many repeats.
/// `setup_s` is the median.
pub const MIN_SETUP_REPEATS: usize = 5;
/// See [`MIN_SETUP_REPEATS`].
pub const MAX_SETUP_REPEATS: usize = 51;
/// See [`MIN_SETUP_REPEATS`].
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (or `all`).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement time of the timed body.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(format!("--seconds must be in (0, 60], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    });
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (expected one of {} or all)",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One named metric value as a workload measured it.
#[derive(Debug, Clone, PartialEq)]
pub struct Named {
    /// Metric name, as printed.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweep points, replays, requests).
    pub attempted: u64,
    /// Operations whose output was wrong, refused or lost.
    pub failed: u64,
    /// Why each failed operation failed (first few).
    pub failures: Vec<String>,
    /// Contract metrics: the end-to-end set, or the per-layer set in a
    /// traced run.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own named end-to-end figures (`mc_trials_per_s`,
    /// `hit_latency_p99_us`, …) with sample counts, for the printed block.
    pub named: Vec<Named>,
    /// Accuracy and cross-check lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count `ops` attempted operations, failing them all with `why` unless
    /// `ok`.
    pub fn check(&mut self, ops: u64, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// Set one contract metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Add one named figure for the printed block.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.named.push(Named {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }
}

/// Span groups at and above this value belong to set-up repeats
/// (`SETUP_GROUP + repeat`); groups below it are passes or requests.
pub const SETUP_GROUP: u64 = 1 << 32;

/// Set up repeatedly (see [`MIN_SETUP_REPEATS`]); returns the last state
/// and the time of each repeat. Each repeat builds everything from scratch
/// and gets the span group `SETUP_GROUP + repeat`.
pub fn repeated_setup<T>(
    mut setup: impl FnMut(u64) -> Result<T, String>,
) -> Result<(T, Vec<Spent>), String> {
    let mut spent: Vec<Spent> = Vec::new();
    let mut state = None;
    while spent.len() < MIN_SETUP_REPEATS
        || (spent.iter().map(|s| s.wall_s).sum::<f64>() < SETUP_BUDGET_S
            && spent.len() < MAX_SETUP_REPEATS)
    {
        // Drop the previous state first so a repeat never overlaps its
        // predecessor (a serve repeat rebinds its listener).
        drop(state.take());
        let watch = Stopwatch::start();
        state = Some(setup(SETUP_GROUP + spent.len() as u64)?);
        spent.push(watch.elapsed());
    }
    Ok((state.expect("at least one repeat"), spent))
}

/// Run `body` repeatedly until `budget` of wall time has passed and at
/// least `min_passes` passes ran, each inside a `bench.pass` span whose
/// group is the pass index. Returns each pass's time and result.
pub fn timed_passes<T>(
    tracer: &Tracer,
    budget: Duration,
    min_passes: usize,
    mut body: impl FnMut(u64, u64) -> T,
) -> Vec<(Spent, T)> {
    let start = Stopwatch::start();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.wall_s() < budget.as_secs_f64() {
        let group = passes.len() as u64;
        let watch = Stopwatch::start();
        let result = tracer.span("bench.pass", None, group, |id| body(group, id));
        passes.push((watch.elapsed(), result));
    }
    passes
}

/// CPU seconds of each interval.
#[must_use]
pub fn cpu_seconds(spent: &[Spent]) -> Vec<f64> {
    spent.iter().map(|s| s.cpu_s).collect()
}

/// Wall seconds of each interval.
#[must_use]
pub fn wall_seconds(spent: &[Spent]) -> Vec<f64> {
    spent.iter().map(|s| s.wall_s).collect()
}

/// `bench.tracing_overhead_s`: median CPU time of a traced pass minus that
/// of an untraced one.
#[must_use]
pub fn tracing_overhead_s(traced: &[Spent], untraced: &[Spent]) -> f64 {
    median_or_zero(&cpu_seconds(traced)) - median_or_zero(&cpu_seconds(untraced))
}

/// Set the end-to-end metrics of an untraced run and print them, with their
/// wall-clock twins, in the human-readable block. `passes` holds each timed
/// pass (on `serve-mixed`, each block of requests) with the work it did,
/// counted in units of `work` (`mc_trials`, `sim_events`, `serve_requests`).
/// A traced run only prints them.
pub fn set_end_to_end(
    outcome: &mut Outcome,
    traced: bool,
    setup: &[Spent],
    passes: &[(Spent, f64)],
    work: &str,
) {
    let spent: Vec<Spent> = passes.iter().map(|(s, _)| *s).collect();
    let setup_s = median_or_zero(&cpu_seconds(setup));
    let cpu_s = median_or_zero(&cpu_seconds(&spent));
    let per_cpu_s: Vec<f64> = passes.iter().map(|(s, w)| w / s.cpu_s).collect();
    let work_per_cpu_s = median_or_zero(&per_cpu_s);
    let total_work: f64 = passes.iter().map(|(_, w)| w).sum();
    let work_per_s = total_work / spent.iter().map(|s| s.wall_s).sum::<f64>();
    if !traced {
        outcome.set("setup_s", setup_s);
        outcome.set("cpu_s", cpu_s);
        outcome.set("work_per_cpu_s", work_per_cpu_s);
    }
    let n = passes.len();
    outcome.named("setup_s", setup_s, "s", setup.len());
    outcome.named(
        "setup_wall_s",
        median_or_zero(&wall_seconds(setup)),
        "s",
        setup.len(),
    );
    outcome.named("cpu_s", cpu_s, "s", n);
    outcome.named("wall_s", median_or_zero(&wall_seconds(&spent)), "s", n);
    outcome.named(&format!("{work}_per_cpu_s"), work_per_cpu_s, "1/s", n);
    outcome.named(&format!("{work}_per_s"), work_per_s, "1/s", n);
}

/// The budget of one measured phase: all of `--seconds` untraced, half of
/// it for each phase of a traced run.
#[must_use]
pub fn phase_budget(args: &Args) -> Duration {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    Duration::from_secs_f64(seconds)
}

/// Peak resident set size of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Durations (s) of every span named `name`, summed per group, in group
/// order — one value per pass (or per request).
#[must_use]
pub fn per_group_seconds(spans: &[spans::Span], name: &str) -> Vec<f64> {
    let mut by_group: BTreeMap<u64, f64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *by_group.entry(span.group).or_insert(0.0) += span.dur_ns() as f64 / 1e9;
    }
    by_group.into_values().collect()
}

/// Median of `samples`, or 0 for none.
#[must_use]
pub fn median_or_zero(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

/// Set the set-up layer metrics (`core.spec_parse_s`,
/// `core.machine_build_s`): medians over the set-up repeats.
pub fn set_setup_layers(outcome: &mut Outcome, spans: &[spans::Span]) {
    for (metric, span) in [
        ("core.spec_parse_s", "core.spec_parse"),
        ("core.machine_build_s", "core.machine_build"),
    ] {
        outcome.set(metric, median_or_zero(&per_group_seconds(spans, span)));
    }
}

/// Self time by layer (`<layer>.self_s`) of the measured spans (set-up
/// excluded), divided over `units` passes.
pub fn set_self_times(outcome: &mut Outcome, spans: &[spans::Span], units: usize) {
    let measured: Vec<spans::Span> = spans
        .iter()
        .filter(|s| s.group < SETUP_GROUP)
        .cloned()
        .collect();
    for (layer, seconds) in spans::self_seconds_by_layer(&measured) {
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_suffix(".self_s") == Some(layer))
            .unwrap_or_else(|| panic!("span layer {layer} has no self-time metric"));
        outcome.set(name, seconds / units.max(1) as f64);
    }
}

/// Write the traced run's spans next to the build output
/// (`$CARGO_TARGET_DIR/perfbench`, else `target/perfbench`), returning the
/// path written.
fn write_spans(tracer: &Tracer, workload: &str, seed: u64) -> std::io::Result<String> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = std::path::Path::new(&base).join("perfbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.tsv"));
    tracer.write_tsv(std::fs::File::create(&path)?)?;
    Ok(path.display().to_string())
}

fn run_workload(args: &Args, workload: &str) -> Result<Outcome, String> {
    let started = Stopwatch::start();
    let steal = StealMeter::start();
    let tracer = Tracer::new(args.trace);
    let mut outcome = match workload {
        "mc-fig7" => mc::run(args, &tracer)?,
        "trace-factor128" => replay::run(args, &tracer, false)?,
        "trace-factor128-recorded" => replay::run(args, &tracer, true)?,
        "serve-mixed" => serve::run(args, &tracer)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if args.trace {
        let path =
            write_spans(&tracer, workload, args.seed).map_err(|e| format!("writing spans: {e}"))?;
        outcome
            .notes
            .push(format!("{} spans written to {path}", tracer.spans().len()));
    } else {
        let rss = peak_rss_mb();
        outcome.set("peak_rss_mb", rss);
        outcome.named("peak_rss_mb", rss, "MB", 1);
    }
    let took = started.elapsed();
    outcome.notes.push(format!(
        "run took {:.1} s wall, {:.1} s CPU; the host gave {} of this machine's vCPU \
         time to other guests meanwhile",
        took.wall_s,
        took.cpu_s,
        steal
            .share()
            .map_or("an unknown share".to_string(), |s| format!(
                "{:.1}%",
                s * 100.0
            ))
    ));
    outcome.notes.push(
        "the model is unvalidated against hardware: simulated figures are the paper's model, \
         host times are this machine's"
            .to_string(),
    );
    for name in outcome.metrics.keys() {
        assert!(
            reported(args.trace).iter().any(|(n, _)| n == name),
            "{workload} set undeclared metric {name}"
        );
    }
    Ok(outcome)
}

/// The metrics a run reports: the end-to-end set, or in a traced run the
/// per-layer set.
fn reported(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The printed block for one workload.
fn human_block(workload: &str, args: &Args, outcome: &Outcome) -> String {
    let mut out = String::new();
    let mode = if args.trace { "traced" } else { "untraced" };
    let _ = writeln!(
        out,
        "== {workload} (seed {}, {} s, {mode}) ==",
        args.seed, args.seconds
    );
    let _ = writeln!(
        out,
        "{:<32} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for n in &outcome.named {
        // A tail without ten samples beyond it is not reported.
        let value = if n.value.is_nan() {
            "too few".to_string()
        } else {
            format!("{:.6}", n.value)
        };
        let _ = writeln!(
            out,
            "{:<32} {value:>16} {:<6} {:>8}",
            n.name, n.unit, n.samples
        );
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "{:<32} {:>16.6} {:<6} {:>8}",
        "failure_share", share, "share", outcome.attempted
    );
    if args.trace {
        let _ = writeln!(out, "-- per-layer --");
        for (name, unit) in PER_LAYER {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "{name:<32} {value:>20.9} {unit:<6}");
        }
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "note: {note}");
    }
    for failure in &outcome.failures {
        let _ = writeln!(out, "FAILED: {failure}");
    }
    out
}

/// The last output line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for workload in &workloads {
        let outcome = match run_workload(&args, workload) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                std::process::exit(1);
            }
        };
        print!("{}", human_block(workload, &args, &outcome));
        attempted += outcome.attempted;
        failed += outcome.failed;
        for &(name, unit) in reported(args.trace) {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let key = if workloads.len() == 1 {
                name.to_string()
            } else {
                format!("{workload}/{name}")
            };
            metrics.push((key, value, unit));
        }
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qla_serve::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(entries)) = json.field(key) else {
            panic!("{key} is not an array");
        };
        entries
            .iter()
            .map(|e| {
                (
                    e.field("name").and_then(Json::as_str).unwrap().to_string(),
                    e.field("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
        let Some(Json::Arr(workloads)) = json.field("workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.field("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in [
            "core", "trace", "sched", "sim", "obs", "report", "serve", "bench",
        ] {
            let name = format!("{layer}.self_s");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv = [
            "--workload",
            "mc-fig7",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = Args::parse(argv.iter().map(ToString::to_string)).unwrap();
        assert_eq!(args.workload, "mc-fig7");
        assert_eq!(args.seed, 3);
        assert!((args.seconds - 10.0).abs() < f64::EPSILON);
        assert!(args.trace);
        let bad = ["--workload", "nope"];
        assert!(Args::parse(bad.iter().map(ToString::to_string)).is_err());
        let bad = ["--workload", "mc-fig7", "--trace", "2"];
        assert!(Args::parse(bad.iter().map(ToString::to_string)).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("cpu_s".to_string(), 1.25, "s")]);
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .fields()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
