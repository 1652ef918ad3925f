//! One-shot cross-task synchronisation: a `Trigger`/`Completion` pair.
//!
//! A `Completion<T>` is waited on by exactly one task
//! ([`crate::Cx::wait`]); the paired `Trigger<T>` is fired exactly once —
//! either directly from a task or callback ([`Trigger::fire_from`]), or at
//! a scheduled virtual time via [`Trigger::fire_at`]. This is the
//! primitive on which all higher-level blocking (message delivery, MPI
//! request completion, flow completion) is built.

use std::sync::Arc;

use crate::sync::Mutex;

use crate::exec::TaskId;
use crate::kernel::Sched;
use crate::time::SimTime;

enum State<T> {
    Empty,
    /// A suspended task is subscribed for a wake-up at fire time.
    Waiting(TaskId),
    Fired(T),
    /// Fired while a waiter was registered; value parked for pick-up.
    FiredWaking(T),
    Taken,
}

struct Shared<T> {
    state: Mutex<State<T>>,
}

/// The firing half of a one-shot completion.
pub struct Trigger<T> {
    shared: Arc<Shared<T>>,
}

/// The waiting half of a one-shot completion.
pub struct Completion<T> {
    shared: Arc<Shared<T>>,
}

/// Create a connected one-shot `Trigger`/`Completion` pair.
pub fn completion<T: Send + 'static>() -> (Trigger<T>, Completion<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Empty),
    });
    (
        Trigger {
            shared: Arc::clone(&shared),
        },
        Completion { shared },
    )
}

impl<T: Send + 'static> Trigger<T> {
    /// Fire with `value` at the current instant, waking the waiter (if
    /// any). `s` is the firing task's [`crate::Cx::sched`] or a callback's
    /// own handle.
    pub fn fire_from(self, s: &Sched, value: T) {
        let wake = {
            let mut st = self.shared.state.lock();
            match std::mem::replace(&mut *st, State::Taken) {
                State::Empty => {
                    *st = State::Fired(value);
                    None
                }
                State::Waiting(w) => {
                    *st = State::FiredWaking(value);
                    Some(w)
                }
                State::Fired(_) | State::FiredWaking(_) | State::Taken => {
                    panic!("completion fired twice")
                }
            }
        };
        if let Some(tid) = wake {
            s.wake_task_at(s.now(), tid);
        }
    }

    /// Schedule the fire for virtual time `at` (clamped to now).
    pub fn fire_at(self, s: &Sched, at: SimTime, value: T) {
        s.call_at(at, move |s2| self.fire_from(s2, value));
    }
}

impl<T: Send + 'static> Completion<T> {
    /// True once the trigger has fired (value not yet taken).
    pub fn is_fired(&self) -> bool {
        matches!(
            &*self.shared.state.lock(),
            State::Fired(_) | State::FiredWaking(_)
        )
    }

    /// Take the value if already fired, without blocking.
    pub fn try_take(self) -> Result<T, Completion<T>> {
        let mut st = self.shared.state.lock();
        match std::mem::replace(&mut *st, State::Taken) {
            State::Fired(v) | State::FiredWaking(v) => Ok(v),
            other => {
                *st = other;
                drop(st);
                Err(self)
            }
        }
    }

    /// Take the value if fired, or subscribe task `tid` for a wake-up at
    /// fire time (the body of [`crate::Cx::wait`]): on `Err` the completion
    /// is handed back so the suspended task can take the value when
    /// re-polled.
    pub(crate) fn take_or_subscribe(self, tid: TaskId) -> Result<T, Completion<T>> {
        let mut st = self.shared.state.lock();
        match std::mem::replace(&mut *st, State::Taken) {
            State::Fired(v) | State::FiredWaking(v) => Ok(v),
            State::Empty => {
                *st = State::Waiting(tid);
                drop(st);
                Err(self)
            }
            State::Waiting(_) => panic!("completion waited on twice"),
            State::Taken => panic!("completion value already taken"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};

    #[test]
    fn fire_before_wait_returns_immediately() {
        let sim = Sim::new();
        let (tx, rx) = completion::<&'static str>();
        sim.spawn_task("t", move |cx| async move {
            tx.fire_from(&cx.sched(), "early");
            assert_eq!(cx.wait(rx).await, "early");
        });
        sim.run().unwrap();
    }

    #[test]
    fn fire_at_wakes_at_scheduled_time() {
        let sim = Sim::new();
        let (tx, rx) = completion::<u64>();
        sim.spawn_task("t", move |cx| async move {
            let at = cx.now() + SimDuration::from_micros(123);
            tx.fire_at(&cx.sched(), at, 9);
            assert_eq!(cx.wait(rx).await, 9);
            assert_eq!(cx.now().as_micros(), 123);
        });
        sim.run().unwrap();
    }

    #[test]
    fn try_take_round_trip() {
        let sim = Sim::new();
        let (tx, rx) = completion::<u32>();
        sim.spawn_task("t", move |cx| async move {
            let rx = match rx.try_take() {
                Err(rx) => rx,
                Ok(_) => panic!("nothing fired yet"),
            };
            tx.fire_from(&cx.sched(), 5);
            assert!(rx.is_fired());
            assert_eq!(rx.try_take().ok(), Some(5));
        });
        sim.run().unwrap();
    }

    #[test]
    fn cross_task_handoff_chain() {
        let sim = Sim::new();
        let (tx1, rx1) = completion::<u32>();
        let (tx2, rx2) = completion::<u32>();
        sim.spawn_task("first", move |cx| async move {
            cx.advance(SimDuration::from_millis(1)).await;
            tx1.fire_from(&cx.sched(), 1);
            assert_eq!(cx.wait(rx2).await, 2);
            assert_eq!(cx.now().as_millis(), 3);
        });
        sim.spawn_task("second", move |cx| async move {
            assert_eq!(cx.wait(rx1).await, 1);
            cx.advance(SimDuration::from_millis(2)).await;
            tx2.fire_from(&cx.sched(), 2);
        });
        sim.run().unwrap();
    }
}
