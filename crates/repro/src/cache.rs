//! The sweep result cache shared by `repro campaign` and
//! `repro autotune-coll`: one JSON object per file, keyed by an FNV-1a
//! digest of everything that determines a result.
//!
//! Values are written with [`json::write`], which prints every number in
//! its shortest round-trip form, so a warm rerun reads back the same f64
//! bits a cold run computed and ranks near-ties identically.

use std::collections::BTreeMap;
use std::path::Path;

use desim::obs::json::{self, Value};

/// 64-bit FNV-1a of `s`: the cache-key and seed hash.
pub fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Load the cache at `path`, keeping the members `keep` accepts. A
/// missing or unparsable file is an empty cache.
pub fn load<T>(path: &Path, keep: impl Fn(Value) -> Option<T>) -> BTreeMap<String, T> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeMap::new();
    };
    let Ok(Value::Obj(members)) = json::parse(&text) else {
        return BTreeMap::new();
    };
    members
        .into_iter()
        .filter_map(|(k, v)| keep(v).map(|v| (k, v)))
        .collect()
}

/// Write `cache` to `path` as one JSON object, creating parent
/// directories as needed.
pub fn save<T>(
    path: &Path,
    cache: &BTreeMap<String, T>,
    to_value: impl Fn(&T) -> Value,
) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let members = cache
        .iter()
        .map(|(k, v)| (k.clone(), to_value(v)))
        .collect();
    std::fs::write(path, json::write(&Value::Obj(members)))
        .map_err(|e| format!("cannot write cache {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_values_round_trip_bit_exactly() {
        let awkward = [
            0.1,
            1.0 / 3.0,
            2.0f64.sqrt(),
            1.0000000000000002,
            0.30000000000000004,
            123_456.789e-9,
            6.02214076e23,
            1e-300,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            -0.0,
            -2.5e-7,
        ];
        let path =
            std::env::temp_dir().join(format!("repro_cache_roundtrip_{}.json", std::process::id()));
        let cache: BTreeMap<String, f64> = awkward
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("k{i:02}"), v))
            .collect();
        save(&path, &cache, |&v| Value::Num(v)).expect("cache saves");
        let back = load(&path, |v| v.as_f64());
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.len(), cache.len());
        for (k, v) in &cache {
            assert_eq!(
                back[k].to_bits(),
                v.to_bits(),
                "{k}: {v:e} came back as {:e}",
                back[k]
            );
        }
    }

    #[test]
    fn missing_or_foreign_entries_are_skipped() {
        let dir = std::env::temp_dir();
        assert!(load(&dir.join("repro_cache_absent.json"), |v| v.as_f64()).is_empty());
        let path = dir.join(format!("repro_cache_mixed_{}.json", std::process::id()));
        std::fs::write(&path, "{\"a\": 1.5, \"b\": {\"x\": 1}, \"c\": \"s\"}").unwrap();
        let nums = load(&path, |v| v.as_f64());
        let objs = load(&path, |v| matches!(v, Value::Obj(_)).then_some(v));
        let _ = std::fs::remove_file(&path);
        assert_eq!(nums.keys().collect::<Vec<_>>(), ["a"]);
        assert_eq!(objs.keys().collect::<Vec<_>>(), ["b"]);
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64("foobar"), 0x85944171f73967e8);
    }
}
