//! The command as the driver runs it: one workload per process, the result
//! object on the last line of stdout, and the exit code.

use std::process::{Command, Output};

fn roadbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_roadbench")).args(args).output().expect("roadbench runs")
}

/// The last line of stdout: the result object.
fn result_line(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn a_run_prints_the_result_object_last_and_exits_zero() {
    let output =
        roadbench(&["--workload", "build_reopen", "--seed", "7", "--seconds", "1", "--trace", "0"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    // The in-process tests parse result objects; here the shape as printed.
    let result = result_line(&output);
    assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
    assert!(
        result.contains(", \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "),
        "{result}"
    );
    assert!(result.ends_with("\"unit\": \"MB\"}}}"), "{result}");
}

/// One damaged expected hit list makes the command fail, on both checking
/// paths: answers checked op by op, and answers checked after a live window.
#[test]
fn a_wrong_answer_fails_the_command() {
    for workload in ["mem_serve", "live_update"] {
        let output = roadbench(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            "0",
            "--corrupt-expected",
        ]);
        assert!(!output.status.success(), "{workload} exited zero on a wrong answer");
        let result = result_line(&output);
        assert!(result.starts_with("{\"correct\": false, "), "{workload}: {result}");
        assert!(!result.contains("\"failed\": 0,"), "{workload}: {result}");
    }
}

#[test]
fn bad_arguments_exit_with_a_usage_error_and_no_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let output = roadbench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
