//! The `bench` command line: an unknown group name is an error (exit 2)
//! that runs no benchmark.

use std::process::Command;

#[test]
fn unknown_group_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("smkoe")
        .output()
        .expect("bench binary runs");
    assert_eq!(out.status.code(), Some(2), "bench smkoe must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown group: smkoe"), "{stderr:?}");
    assert!(stderr.contains("usage:"), "{stderr:?}");
    assert!(out.stdout.is_empty(), "bench smkoe wrote to stdout");
}
