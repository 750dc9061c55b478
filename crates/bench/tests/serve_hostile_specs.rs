//! `qla-bench serve --once` fed hostile request lines: inline specs that
//! each once passed validation and then crashed a run (allocation failure,
//! `SimTime` overflow, `capacity overflow`, more tenants than mesh rows),
//! and JSON nested deep enough to overflow a recursive parser's stack. Run
//! as a subprocess so that an abort fails the test instead of ending it:
//! every request must come back as a `bad-request` line, and the server
//! must go on to answer `stats` and exit cleanly.

use qla_core::MachineSpec;
use std::io::Write;
use std::process::{Command, Stdio};

/// `u64::MAX`, the value most of the cases set.
const MAX: &str = "18446744073709551615";

/// (experiment, key, value): `expected` with one key changed.
const CASES: [(&str, &str, &str); 7] = [
    ("sim-offered-load", "logical_qubits", "4000000000000"),
    ("fig9-connection", "sweep.distance_max_cells", MAX),
    ("sim-offered-load", "sweep.sim.warmup_windows", MAX),
    ("fault-sweep", "sweep.fault.onset_windows", MAX),
    ("sim-vs-analytic", "sweep.sim.contended_requests", MAX),
    ("multi-tenant-fairness", "sweep.fault.tenant_quota", MAX),
    ("multi-tenant-fairness", "sweep.fault.tenants", "10"),
];

fn inline_spec(key: &str, value: &str) -> String {
    let text: String = MachineSpec::expected()
        .render()
        .lines()
        .map(|line| match line.split_once(" = ") {
            Some((k, _)) if k == key => format!("{key} = {value}\n"),
            _ => format!("{line}\n"),
        })
        .collect();
    assert!(
        text.contains(&format!("{key} = {value}\n")),
        "{key} not rendered"
    );
    qla_report::json_escape(&text)
}

/// Feed `input` to `qla-bench serve --once`; require exit code 0 and
/// return its stdout.
fn serve_once(input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qla-bench"))
        .args(["serve", "--once"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qla-bench serve --once");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("serve --once exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn hostile_specs_are_refused_and_the_server_keeps_serving() {
    let mut input = String::new();
    for (experiment, key, value) in CASES {
        input.push_str(&format!(
            "{{\"experiment\": \"{experiment}\", \"spec\": {}, \"trials\": 10}}\n",
            inline_spec(key, value)
        ));
    }
    input.push_str("{\"cmd\": \"stats\"}\n");

    let stdout = serve_once(&input);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), CASES.len() + 1, "{stdout}");
    for ((_, key, _), line) in CASES.iter().zip(&lines) {
        assert!(line.contains("\"error\":\"bad-request\""), "{key}: {line}");
        assert!(line.contains(key), "{key}: detail does not name it: {line}");
    }
    let stats = lines[CASES.len()];
    assert!(
        stats.starts_with("{\"status\":\"ok\",\"requests\":0,"),
        "{stats}"
    );
    assert!(stats.contains("\"errors\":7"), "{stats}");
}

#[test]
fn deeply_nested_json_is_refused_and_the_server_keeps_serving() {
    let input = format!("{}\n{{\"cmd\": \"stats\"}}\n", "[".repeat(200_000));
    let stdout = serve_once(&input);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].contains("\"error\":\"bad-request\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("nesting"), "{}", lines[0]);
    assert!(lines[1].starts_with("{\"status\":\"ok\","), "{}", lines[1]);
}
