//! The `bench` command line: an unknown group or flag, or an ill-typed
//! flag value, is an error (exit 2, usage on stderr, nothing on stdout)
//! that runs no benchmark.

use std::process::Command;

/// Each `(arguments, what stderr must name)` case exits 2 with the usage.
fn rejects(cases: &[(&[&str], &str)]) {
    for (args, expect) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(*args)
            .output()
            .expect("bench binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "bench {args:?}: {stderr}");
        assert!(stderr.contains(expect), "bench {args:?}: {stderr:?}");
        assert!(stderr.contains("usage:"), "bench {args:?}: {stderr:?}");
        assert!(out.stdout.is_empty(), "bench {args:?} wrote to stdout");
    }
}

#[test]
fn unknown_group_prints_usage_and_exits_2() {
    rejects(&[(&["smkoe"], "unknown group: smkoe")]);
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    rejects(&[
        (&["kernel", "--quiet"], "unknown flag: --quiet"),
        (&["kernel", "--json"], "--json needs a value"),
    ]);
}

#[test]
fn the_removed_baseline_flag_is_unknown() {
    rejects(&[(
        &["kernel", "--baseline", "none"],
        "unknown flag: --baseline",
    )]);
}

#[test]
fn threshold_must_be_a_non_negative_number() {
    let bad = "--threshold takes a non-negative number";
    rejects(&[
        (&["compare", "a.json", "b.json", "--threshold", "abc"], bad),
        (&["compare", "a.json", "b.json", "--threshold", "-5"], bad),
    ]);
}
