//! The collective decision tables: a quick `repro autotune-coll --check`
//! sweep must pass its LAN/WAN divergence gate, and every row it writes
//! must be a row of the committed full table of the same name.

use std::path::Path;
use std::process::Command;

#[test]
fn quick_decision_rows_are_rows_of_the_committed_tables() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("autotune_quick");
    // A fresh cache, so every row below is simulated by this run.
    let _ = std::fs::remove_dir_all(&tmp);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["autotune-coll", "--quick", "--check", "--dat"])
        .args([tmp.join("dat"), "--cache".into(), tmp.join("cache.json")])
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "autotune-coll failed: {stderr}");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/dat");
    for name in ["coll_decision_tuned.dat", "coll_decision_untuned.dat"] {
        let read = |dir: &Path| std::fs::read_to_string(dir.join(name)).expect(name);
        let full = read(&committed);
        let quick = read(&tmp.join("dat"));
        let rows: Vec<&str> = quick.lines().filter(|l| !l.starts_with('#')).collect();
        assert!(!rows.is_empty(), "{name}: the quick sweep wrote no rows");
        for row in rows {
            assert!(
                full.lines().any(|l| l == row),
                "{name}: {row:?} not committed"
            );
        }
    }
}
