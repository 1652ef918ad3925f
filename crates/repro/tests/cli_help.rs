//! The `repro` command line: asking for help prints the usage and runs no
//! simulation; an unknown subcommand, flag or argument, or a bad flag
//! value, is an error (exit 2) found before anything runs.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn help_flags_print_usage_without_running_a_trace() {
    for flag in ["--help", "-h", "help"] {
        let out = repro(&[flag]);
        assert!(out.status.success(), "repro {flag} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage:"),
            "repro {flag}: no usage in {stdout:?}"
        );
        assert!(stdout.contains("golden <record|check> [--dir DIR]"));
        assert!(!stdout.contains("Trace:"), "repro {flag} ran the CG trace");
    }
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = repro(&["fgi12"]);
    assert_eq!(out.status.code(), Some(2), "repro fgi12 must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    assert!(out.stdout.is_empty(), "repro fgi12 wrote to stdout");
}

/// One invocation and what it must do. `{dir}` in an argument is a
/// scratch directory of this test.
struct Case {
    args: &'static [&'static str],
    code: i32,
    stdout: &'static [&'static str],
    stderr: &'static [&'static str],
}

#[rustfmt::skip]
const CASES: &[Case] = &[
    // A global flag before the subcommand does not turn it into `trace`.
    Case { args: &["--dat", "{dir}/dat", "table1"], code: 0, stdout: &["Table 1:"], stderr: &[] },
    Case { args: &["table1", "--bogus"], code: 2, stdout: &[], stderr: &["unknown flag --bogus", "usage: repro table1"] },
    Case { args: &["fig10", "--dat"], code: 2, stdout: &[], stderr: &["--dat needs a value", "usage: repro fig10"] },
    Case { args: &["ring", "--ranks", "x"], code: 2, stdout: &[], stderr: &["--ranks", "usage: repro ring"] },
    Case { args: &["ring", "--ranks", "0"], code: 2, stdout: &[], stderr: &["--ranks", "usage: repro ring"] },
    // The execution driver is not a knob: there is one.
    Case { args: &["ring", "--shards", "2"], code: 2, stdout: &[], stderr: &["unknown flag --shards", "usage: repro ring"] },
    Case { args: &["golden", "check", "--pdes", "1"], code: 2, stdout: &[], stderr: &["unknown flag --pdes", "usage: repro golden"] },
    // The flag's value is not taken for the file.
    Case {
        args: &["validate", "--require-event", "mpi_span", "{dir}/mini.json"],
        code: 0,
        stdout: &["mini.json: valid JSON", "has event \"mpi_span\""],
        stderr: &[],
    },
    Case { args: &["trace", "--trace-out", "{dir}/ft.json", "FT"], code: 0, stdout: &["Trace: FT class A"], stderr: &[] },
    Case { args: &["blame", "nope"], code: 2, stdout: &[], stderr: &["\"nope\"", "usage: repro blame"] },
    Case { args: &["blame", "pingpong", "--fromat", "json"], code: 2, stdout: &[], stderr: &["unknown flag --fromat"] },
    // Global flags alone still run the CG trace.
    Case { args: &["--trace-out", "{dir}/cg.json"], code: 0, stdout: &["Trace: CG class A"], stderr: &[] },
];

#[test]
fn one_parser_checks_every_invocation_before_running_it() {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mini = r#"{"traceEvents":[{"name":"send","cat":"mpi_span","ph":"X","ts":0,"dur":1}]}"#;
    std::fs::write(dir.join("mini.json"), mini).expect("fixture");
    for case in CASES {
        let args: Vec<String> = case
            .args
            .iter()
            .map(|a| a.replace("{dir}", &dir.to_string_lossy()))
            .collect();
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = repro(&args);
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        let shown = format!("repro {args:?}\nstdout: {stdout}\nstderr: {stderr}");
        assert_eq!(out.status.code(), Some(case.code), "{shown}");
        assert!(!stderr.contains("panicked"), "{shown}");
        if case.code == 2 {
            assert!(stdout.is_empty(), "usage error wrote to stdout: {shown}");
        }
        // Only the cases that ask for a trace run one.
        let traced = case.stdout.iter().any(|w| w.starts_with("Trace:"));
        assert_eq!(stdout.contains("Trace:"), traced, "{shown}");
        for want in case.stdout {
            assert!(stdout.contains(want), "no {want:?} on stdout: {shown}");
        }
        for want in case.stderr {
            assert!(stderr.contains(want), "no {want:?} on stderr: {shown}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
