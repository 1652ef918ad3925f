//! The committed golden corpus (`results/golden/`) is the guard on the
//! simulator's bit-reproducibility: `repro golden check` recomputes every
//! scenario's digest with the fast path as configured and pinned off, and
//! both passes must match the recorded runs.

use std::process::Command;

#[test]
fn golden_check_passes_with_the_fast_path_on_and_off() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/golden");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["golden", "check", "--dir", corpus])
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "golden check failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("golden check passed (7 scenarios, fast path on and off)"),
        "unexpected output: {stdout}"
    );
}
