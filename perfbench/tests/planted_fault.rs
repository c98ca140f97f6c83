//! A planted fault must be counted as a failure and fail the run: the
//! benchmark corrupts one expected result (`--plant-fault`), and the run
//! must report `failed` above zero, `correct: false`, and a non-zero exit.
//! The same run without the fault must pass.

use std::path::Path;
use std::process::Command;

/// Run the benchmark from the repository root (where it finds the golden
/// report) and return its exit status and result line.
fn run(workload: &str, plant_fault: bool) -> (bool, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(root).args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    if plant_fault {
        cmd.arg("--plant-fault");
    }
    let out = cmd.output().expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// The `failed` count of a result line.
fn failed(line: &str) -> u64 {
    let rest = line
        .split("\"failed\": ")
        .nth(1)
        .unwrap_or_else(|| panic!("no failed count in {line:?}"));
    rest.split(',').next().unwrap().trim().parse().unwrap()
}

fn check(workload: &str) {
    let (ok, line) = run(workload, true);
    assert!(!ok, "{workload}: a planted fault must fail the run: {line}");
    assert!(line.contains("\"correct\": false"), "{line}");
    assert!(failed(&line) > 0, "{line}");

    let (ok, line) = run(workload, false);
    assert!(ok, "{workload}: the clean run must pass: {line}");
    assert!(line.contains("\"correct\": true"), "{line}");
    assert_eq!(failed(&line), 0, "{line}");
}

#[test]
fn a_wrong_report_byte_fails_paper_report() {
    check("paper_report");
}

#[test]
fn a_wrong_oracle_expectation_fails_fuzz_oracle() {
    check("fuzz_oracle");
}

#[test]
fn a_flipped_response_byte_fails_daemon_mixed() {
    check("daemon_mixed");
}
