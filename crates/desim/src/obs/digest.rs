//! Streaming run digests: fold an event stream (plus any final scalars a
//! harness wants to pin, like elapsed and per-rank times) into a stable
//! 128-bit value that bit-identifies a simulation's behaviour.
//!
//! ## Canonical encoding
//!
//! Every event is absorbed as a kind tag followed by its fields in
//! declaration order, each widened to a `u64` word:
//!
//! * integers are absorbed as their raw two's-complement bits;
//! * floats are canonicalized first (`-0.0` → `+0.0`, every NaN → one
//!   quiet NaN pattern) and then absorbed as IEEE-754 bits, so a digest
//!   never depends on how an equal value was computed;
//! * strings absorb their byte length and then their bytes packed
//!   little-endian into words, so `("ab", "c")` and `("a", "bc")` hash
//!   differently.
//!
//! The digest consumes **virtual-time data only** — no wall clock, no
//! host addresses, no iteration counts from the harness — so the same
//! scenario yields the same digest on any machine, on any run.
//!
//! One deliberate exception: [`Event::KernelRun`] is absorbed *without*
//! its `events` count. The kernel dispatch count is an engine detail —
//! netsim runs a lone flow's pinned TCP rounds back to back in one
//! dispatch, so how many rounds a dispatch runs moves the count while
//! every virtual timestamp stays bit-identical. A digest
//! must pin simulation *semantics*, not the engine's step count, so it
//! keeps `end_ns` and drops `events`.

use std::fmt;
use std::sync::Arc;

use super::{Event, Recorder};
use crate::sync::Mutex;

/// The canonical bit pattern every NaN collapses to before absorption.
const CANON_NAN: u64 = 0x7ff8_0000_0000_0000;

/// splitmix64's finalizer: a cheap full-avalanche 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A 128-bit digest value (two independently mixed 64-bit lanes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DigestValue {
    /// First lane.
    pub hi: u64,
    /// Second lane.
    pub lo: u64,
}

impl DigestValue {
    /// Parse the 32-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<DigestValue> {
        let s = s.trim();
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(DigestValue {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

impl fmt::Display for DigestValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Incremental digest state. Words are folded in sequence; the stream
/// position is part of the state, so reordered or dropped words change
/// the value.
#[derive(Clone, Debug)]
pub struct Digest {
    h: [u64; 2],
    words: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    /// Fresh digest (fixed public seed, so values are comparable across
    /// processes and machines).
    pub fn new() -> Digest {
        Digest {
            // First 16 hex digits of pi and e: nothing-up-my-sleeve seeds
            // that keep the two lanes decorrelated from word one.
            h: [0x3243_f6a8_885a_308d, 0x2b7e_1516_28ae_d2a6],
            words: 0,
        }
    }

    /// Absorb one 64-bit word.
    pub fn absorb_u64(&mut self, v: u64) {
        self.words += 1;
        // Each lane folds position and payload through the mixer with its
        // own pre-whitening, so single-bit payload differences avalanche
        // independently in both halves.
        self.h[0] = mix(self.h[0] ^ v).wrapping_add(self.words);
        self.h[1] =
            mix(self.h[1].rotate_left(29) ^ v ^ self.words.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }

    /// Absorb a signed integer (two's-complement bits).
    pub fn absorb_i64(&mut self, v: i64) {
        self.absorb_u64(v as u64);
    }

    /// Absorb a float, canonicalized: `-0.0` and `+0.0` absorb alike, and
    /// every NaN absorbs as one fixed pattern.
    pub fn absorb_f64(&mut self, v: f64) {
        let bits = if v.is_nan() {
            CANON_NAN
        } else if v == 0.0 {
            0
        } else {
            v.to_bits()
        };
        self.absorb_u64(bits);
    }

    /// Absorb a string: byte length, then bytes packed little-endian into
    /// words (the trailing partial word zero-padded).
    pub fn absorb_str(&mut self, s: &str) {
        let b = s.as_bytes();
        self.absorb_u64(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.absorb_u64(u64::from_le_bytes(w));
        }
    }

    /// Absorb one observability event under the canonical encoding.
    pub fn absorb_event(&mut self, ev: &Event) {
        // Kind tags are absorbed as strings (stable names, not enum
        // ordinals) so reordering the enum cannot silently change digests.
        self.absorb_str(ev.kind());
        match ev {
            Event::KernelRun { end_ns, events: _ } => {
                // `events` deliberately excluded: see module docs.
                self.absorb_u64(*end_ns);
            }
            Event::TcpSample {
                channel,
                t_ns,
                cwnd,
                ssthresh,
                phase,
                outcome,
            } => {
                self.absorb_u64(*channel);
                self.absorb_u64(*t_ns);
                self.absorb_u64(*cwnd);
                self.absorb_f64(*ssthresh);
                self.absorb_str(phase);
                self.absorb_str(outcome);
            }
            Event::FlowStart {
                channel,
                t_ns,
                bytes,
                queued,
            } => {
                self.absorb_u64(*channel);
                self.absorb_u64(*t_ns);
                self.absorb_u64(*bytes);
                self.absorb_u64(*queued);
            }
            Event::FlowFinish {
                channel,
                t_ns,
                bytes,
            } => {
                self.absorb_u64(*channel);
                self.absorb_u64(*t_ns);
                self.absorb_u64(*bytes);
            }
            Event::LinkSample {
                link,
                t_ns,
                delivered_bytes,
            } => {
                self.absorb_u64(*link);
                self.absorb_u64(*t_ns);
                self.absorb_f64(*delivered_bytes);
            }
            Event::MpiSpan {
                rank,
                op,
                peer,
                bytes,
                start_ns,
                end_ns,
                msg_id,
            } => {
                self.absorb_u64(*rank);
                self.absorb_str(op);
                self.absorb_i64(*peer);
                self.absorb_u64(*bytes);
                self.absorb_u64(*start_ns);
                self.absorb_u64(*end_ns);
                self.absorb_u64(*msg_id);
            }
            Event::Phase { rank, name, t_ns } => {
                self.absorb_u64(*rank);
                self.absorb_str(name);
                self.absorb_u64(*t_ns);
            }
            Event::Fault {
                kind,
                subject,
                t_ns,
                info,
            } => {
                self.absorb_str(kind);
                self.absorb_u64(*subject);
                self.absorb_u64(*t_ns);
                self.absorb_f64(*info);
            }
        }
    }

    /// Current value. Finalization mixes in the word count, so a prefix
    /// of a stream never shares its digest with the full stream.
    pub fn value(&self) -> DigestValue {
        DigestValue {
            hi: mix(self.h[0] ^ self.words),
            lo: mix(self.h[1] ^ self.words.rotate_left(32)),
        }
    }
}

/// A [`Recorder`] that folds every event into a [`Digest`] as it is
/// recorded — constant memory regardless of run length, no retained
/// events. After the run, fold in any closing scalars (elapsed time,
/// per-rank times) with [`DigestSink::absorb_u64`] / friends, then read
/// [`DigestSink::value`].
pub struct DigestSink {
    inner: Mutex<SinkState>,
}

struct SinkState {
    digest: Digest,
    events: u64,
}

impl Default for DigestSink {
    fn default() -> DigestSink {
        DigestSink::new()
    }
}

impl DigestSink {
    /// Fresh sink.
    pub fn new() -> DigestSink {
        DigestSink {
            inner: Mutex::new(SinkState {
                digest: Digest::new(),
                events: 0,
            }),
        }
    }

    /// Fold a closing word (e.g. an elapsed-time nanosecond count).
    pub fn absorb_u64(&self, v: u64) {
        self.inner.lock().digest.absorb_u64(v);
    }

    /// Fold a closing float under the canonical float encoding.
    pub fn absorb_f64(&self, v: f64) {
        self.inner.lock().digest.absorb_f64(v);
    }

    /// Fold a label (e.g. a scenario segment name separating sub-runs).
    pub fn absorb_str(&self, s: &str) {
        self.inner.lock().digest.absorb_str(s);
    }

    /// Events absorbed so far (closing scalars are not counted).
    pub fn events(&self) -> u64 {
        self.inner.lock().events
    }

    /// Current digest value.
    pub fn value(&self) -> DigestValue {
        self.inner.lock().digest.value()
    }
}

impl Recorder for DigestSink {
    fn record(&self, ev: &Event) {
        let mut g = self.inner.lock();
        g.digest.absorb_event(ev);
        g.events += 1;
    }
}

/// A fan-out [`Recorder`]: forwards every event to each attached sink, in
/// order. Lets a run feed a [`DigestSink`] and a [`super::RingSink`] (or
/// any other combination) through the single recorder slot producers
/// offer.
pub struct Tee {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl Tee {
    /// Fan out to `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Tee {
        Tee { sinks }
    }
}

impl Recorder for Tee {
    fn record(&self, ev: &Event) {
        for s in &self.sinks {
            s.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(rank: u64, name: &'static str, t_ns: u64) -> Event {
        Event::Phase { rank, name, t_ns }
    }

    #[test]
    fn identical_streams_identical_digests() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        for d in [&mut a, &mut b] {
            d.absorb_event(&phase(1, "timed", 5));
            d.absorb_u64(42);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn field_and_order_sensitivity() {
        let base = {
            let mut d = Digest::new();
            d.absorb_event(&phase(1, "timed", 5));
            d.value()
        };
        // Any single field change moves the digest.
        for ev in [
            phase(2, "timed", 5),
            phase(1, "warm", 5),
            phase(1, "timed", 6),
        ] {
            let mut d = Digest::new();
            d.absorb_event(&ev);
            assert_ne!(d.value(), base, "{ev:?} collided");
        }
        // Reordering two events moves the digest.
        let (mut ab, mut ba) = (Digest::new(), Digest::new());
        ab.absorb_event(&phase(1, "a", 1));
        ab.absorb_event(&phase(1, "b", 2));
        ba.absorb_event(&phase(1, "b", 2));
        ba.absorb_event(&phase(1, "a", 1));
        assert_ne!(ab.value(), ba.value());
    }

    #[test]
    fn string_boundaries_are_unambiguous() {
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.absorb_str("ab");
        a.absorb_str("c");
        b.absorb_str("a");
        b.absorb_str("bc");
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn float_canonicalization() {
        let bits = |v: f64| {
            let mut d = Digest::new();
            d.absorb_f64(v);
            d.value()
        };
        assert_eq!(bits(0.0), bits(-0.0));
        assert_eq!(bits(f64::NAN), bits(-f64::NAN));
        assert_ne!(bits(1.0), bits(2.0));
        assert_ne!(bits(f64::INFINITY), bits(f64::NAN));
    }

    #[test]
    fn kernel_run_event_count_is_excluded() {
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.absorb_event(&Event::KernelRun {
            end_ns: 7,
            events: 10,
        });
        b.absorb_event(&Event::KernelRun {
            end_ns: 7,
            events: 9_999,
        });
        assert_eq!(a.value(), b.value(), "dispatch count must not matter");
        let mut c = Digest::new();
        c.absorb_event(&Event::KernelRun {
            end_ns: 8,
            events: 10,
        });
        assert_ne!(a.value(), c.value(), "end time must matter");
    }

    #[test]
    fn prefix_differs_from_full_stream() {
        let mut a = Digest::new();
        a.absorb_u64(1);
        let prefix = a.value();
        a.absorb_u64(0);
        assert_ne!(a.value(), prefix);
    }

    #[test]
    fn display_roundtrips() {
        let mut d = Digest::new();
        d.absorb_str("roundtrip");
        let v = d.value();
        let s = v.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(DigestValue::parse(&s), Some(v));
        assert_eq!(DigestValue::parse("xyz"), None);
        assert_eq!(DigestValue::parse(&s[1..]), None);
    }

    #[test]
    fn tee_feeds_all_sinks() {
        let digest = Arc::new(DigestSink::new());
        let ring = Arc::new(super::super::RingSink::new(8));
        let tee = Tee::new(vec![
            digest.clone() as Arc<dyn Recorder>,
            ring.clone() as Arc<dyn Recorder>,
        ]);
        tee.record(&phase(0, "p", 1));
        tee.record(&phase(0, "p", 2));
        assert_eq!(digest.events(), 2);
        assert_eq!(ring.len(), 2);

        // The digest through the tee matches a directly-fed digest.
        let direct = DigestSink::new();
        direct.record(&phase(0, "p", 1));
        direct.record(&phase(0, "p", 2));
        assert_eq!(digest.value(), direct.value());
    }
}
