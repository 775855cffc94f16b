//! `--smoke` end to end: every workload at a twentieth of its size,
//! both passes, the same checks as a full run.

use std::process::Command;

fn smoke(trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ginflow-benchmark"))
        .args(["--smoke", "--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--smoke --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 5, "one result line per workload");
    for line in results {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    }
    assert!(
        stdout.lines().last().is_some_and(|l| l.starts_with('{')),
        "the result is the last line"
    );
}

#[test]
fn smoke_untraced_pass_is_green() {
    smoke("0");
}

#[test]
fn smoke_traced_pass_is_green() {
    smoke("1");
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_ginflow-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
