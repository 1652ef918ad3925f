//! The reference table: every reachable job's virtual outputs, recorded
//! once and compared exactly on every run.
//!
//! One line per job, tab-separated:
//! `key elapsed_ns wire_msgs wire_bytes aux digest`. `aux` is written with
//! Rust's shortest round-trip float formatting, so parsing it back gives
//! the same bits. Lines starting with `#` are comments.

use std::collections::HashMap;

use desim::DigestValue;

use crate::jobs::Output;

/// Parsed reference rows by job key.
pub struct Reference {
    rows: HashMap<String, Output>,
}

/// How one job's outputs compare with its reference row.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Every pinned output matches; `digest_match` says whether the event
    /// digest does too (`None` when no digest was taken).
    Match {
        /// Digest comparison, when the job ran with a digest sink.
        digest_match: Option<bool>,
    },
    /// A pinned output differs (or the key has no row): the job failed.
    Mismatch(String),
}

impl Reference {
    /// Parse a reference table.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut rows = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("reference line {}: malformed: {line}", n + 1);
            if f.len() != 6 {
                return Err(bad());
            }
            let out = Output {
                elapsed_ns: f[1].parse().map_err(|_| bad())?,
                wire_msgs: f[2].parse().map_err(|_| bad())?,
                wire_bytes: f[3].parse().map_err(|_| bad())?,
                aux: f[4].parse().map_err(|_| bad())?,
                digest: Some(DigestValue::parse(f[5]).ok_or_else(bad)?),
            };
            rows.insert(f[0].to_string(), out);
        }
        Ok(Reference { rows })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether `key` has a row.
    #[cfg(test)]
    pub fn has(&self, key: &str) -> bool {
        self.rows.contains_key(key)
    }

    /// Compare `out` with the row for `key`.
    pub fn check(&self, key: &str, out: &Output) -> Verdict {
        let Some(want) = self.rows.get(key) else {
            return Verdict::Mismatch(format!("{key}: no reference row"));
        };
        let fields = [
            ("elapsed_ns", want.elapsed_ns == out.elapsed_ns),
            ("wire_msgs", want.wire_msgs == out.wire_msgs),
            ("wire_bytes", want.wire_bytes == out.wire_bytes),
            ("aux", want.aux.to_bits() == out.aux.to_bits()),
        ];
        if let Some((name, _)) = fields.iter().find(|(_, ok)| !ok) {
            return Verdict::Mismatch(format!(
                "{key}: {name} differs from the reference (got {}, want {})",
                line(key, out),
                line(key, want)
            ));
        }
        Verdict::Match {
            digest_match: out.digest.map(|d| Some(d) == want.digest),
        }
    }
}

/// Format one reference line (without the newline).
pub fn line(key: &str, out: &Output) -> String {
    let digest = out.digest.map(|d| d.to_string()).unwrap_or_default();
    format!(
        "{key}\t{}\t{}\t{}\t{:?}\t{digest}",
        out.elapsed_ns, out.wire_msgs, out.wire_bytes, out.aux
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(aux: f64) -> Output {
        Output {
            elapsed_ns: 12,
            wire_msgs: 3,
            wire_bytes: 4096,
            aux,
            digest: DigestValue::parse("0123456789abcdef0123456789abcdef"),
        }
    }

    #[test]
    fn lines_round_trip_exactly() {
        let o = out(1.0 / 3.0);
        let r = Reference::parse(&format!("# header\n{}\n", line("k", &o))).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.check("k", &o),
            Verdict::Match {
                digest_match: Some(true)
            }
        );
    }

    #[test]
    fn any_pinned_difference_is_a_mismatch_but_a_digest_is_not() {
        let o = out(0.5);
        let r = Reference::parse(&line("k", &o)).unwrap();
        let mut late = o.clone();
        late.elapsed_ns += 1;
        assert!(matches!(r.check("k", &late), Verdict::Mismatch(_)));
        let mut off = o.clone();
        off.aux = f64::from_bits(0.5f64.to_bits() + 1);
        assert!(matches!(r.check("k", &off), Verdict::Mismatch(_)));
        assert!(matches!(r.check("other", &o), Verdict::Mismatch(_)));
        let mut other_digest = o.clone();
        other_digest.digest = DigestValue::parse("ffffffffffffffffffffffffffffffff");
        assert_eq!(
            r.check("k", &other_digest),
            Verdict::Match {
                digest_match: Some(false)
            }
        );
        let mut untraced = o;
        untraced.digest = None;
        assert_eq!(
            r.check("k", &untraced),
            Verdict::Match { digest_match: None }
        );
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert!(Reference::parse("k\t1\t2\n").is_err());
        assert!(Reference::parse("k\tx\t2\t3\t0.5\t0123456789abcdef0123456789abcdef").is_err());
    }
}
