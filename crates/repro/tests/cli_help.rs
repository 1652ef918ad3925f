//! The `repro` command line: asking for help prints the usage and runs no
//! simulation; an unknown subcommand is an error (exit 2).

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
        assert!(stdout.contains("golden <record|check> [--dir DIR] [--pdes N]"));
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
