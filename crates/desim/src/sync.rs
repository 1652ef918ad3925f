//! A thin wrapper over [`std::sync::Mutex`] with a non-poisoning API,
//! private to the crate: the observability sinks in [`crate::obs`] are
//! `Send + Sync`, as the public [`crate::obs::Recorder`] trait requires,
//! and lock their buffers with it. The simulation itself is single-owner
//! and takes no lock.
//!
//! `lock()` returns the guard directly rather than a `Result`. Poisoning
//! is deliberately ignored — a panicking simulated task already aborts
//! the run through the kernel's failure channel, and the state behind a
//! poisoned lock is only ever read afterwards to report that failure.

use std::sync::{MutexGuard, PoisonError};

/// A mutual-exclusion lock whose `lock()` never fails.
///
/// Wraps [`std::sync::Mutex`], recovering from poisoning instead of
/// propagating it.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new lock holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the current thread until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }
}
