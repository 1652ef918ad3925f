//! The committed golden corpus (`results/golden/`) is the guard on the
//! simulator's bit-reproducibility: `repro golden check` recomputes every
//! scenario's digest, and each must match its recorded run.

use std::path::Path;
use std::process::{Command, Output};

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/golden");

fn golden_check(dir: &Path) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["golden", "check", "--dir"])
        .arg(dir)
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out, stdout)
}

#[test]
fn golden_check_passes() {
    let (out, stdout) = golden_check(Path::new(CORPUS));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "golden check failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("golden check passed (8 scenarios)"),
        "unexpected output: {stdout}"
    );
}

/// A corpus file that records no scenario (a renamed or dropped
/// scenario's leftover) fails the check by name, although every
/// scenario matches.
#[test]
fn golden_check_fails_on_a_corpus_file_that_records_no_scenario() {
    let dir = std::env::temp_dir().join(format!("golden-stray-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(CORPUS).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    std::fs::copy(dir.join("pingpong.json"), dir.join("dropped.json")).unwrap();
    let (out, stdout) = golden_check(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert_eq!(stdout.matches(" ok ").count(), 8, "stdout: {stdout}");
    assert!(
        stdout.contains("dropped.json records no scenario"),
        "stdout: {stdout}"
    );
    assert!(stderr.contains("dropped.json"), "stderr: {stderr}");
}
