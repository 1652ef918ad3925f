//! The execution engine behind simulated actors: pooled *continuation
//! tasks*.
//!
//! An actor body ([`crate::Sim::spawn_task`]) is a `Future` compiled by
//! rustc into a stackless state machine. Blocking points suspend the state
//! machine and hand control straight back to the kernel's dispatch loop;
//! resumption is an ordinary event pop. A blocked task holds *no* OS
//! thread, so a single process can host tens of thousands of actors, and
//! the ready path (pop event → poll task) involves zero context switches.
//! Every actor is driven from the same `(virtual time, insertion
//! sequence)` event queue, so a program produces a bit-identical event
//! stream on every run — the property the golden-digest suite pins down.
//!
//! ## The blocking-point contract
//!
//! A task may suspend only through the futures returned by [`Cx`]
//! (`advance`, `sleep_until`, `yield_now`, `wait`). Each of those
//! registers exactly one wake-up (a timer event or a
//! [`crate::Completion`] subscription) before returning `Pending`, so a
//! suspended task always has exactly one pending resume and the kernel
//! never needs a `Waker` — wake-ups travel through the event heap, which
//! is what keeps them deterministic.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::kernel::{EventKind, Inner};
use crate::time::{SimDuration, SimTime};
use crate::{Completion, Sched};

/// Identifier of a continuation task (dense index, assigned in spawn
/// order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// The dense index of this task.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Execution context of a simulated actor (a pooled continuation task).
///
/// Its blocking operations return futures that suspend the task's state
/// machine until the kernel resumes it.
pub struct Cx {
    inner: Arc<Inner>,
    id: TaskId,
    name: Arc<str>,
}

impl Cx {
    pub(crate) fn for_task(inner: Arc<Inner>, id: TaskId, name: Arc<str>) -> Cx {
        Cx { inner, id, name }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.lock().now
    }

    /// This actor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A non-blocking scheduling handle usable from kernel callbacks.
    pub fn sched(&self) -> Sched {
        Sched {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Let `d` of virtual time pass (models local computation or a fixed
    /// latency). A zero duration still yields to other events at the same
    /// instant.
    pub fn advance(&self, d: SimDuration) -> Sleep<'_> {
        Sleep {
            cx: self,
            target: SleepTarget::After(d),
            suspended: false,
        }
    }

    /// Block until virtual time `at` (clamped to now if already past).
    pub fn sleep_until(&self, at: SimTime) -> Sleep<'_> {
        Sleep {
            cx: self,
            target: SleepTarget::Until(at),
            suspended: false,
        }
    }

    /// Relinquish control so other events at the current instant run
    /// before this actor continues.
    pub fn yield_now(&self) -> Sleep<'_> {
        Sleep {
            cx: self,
            target: SleepTarget::After(SimDuration::ZERO),
            suspended: false,
        }
    }

    /// Block until `c` fires; resolves to the fired value.
    pub fn wait<T: Send + 'static>(&self, c: Completion<T>) -> Wait<'_, T> {
        Wait {
            cx: self,
            c: Some(c),
        }
    }
}

enum SleepTarget {
    After(SimDuration),
    Until(SimTime),
}

/// Future returned by [`Cx::advance`] / [`Cx::sleep_until`] /
/// [`Cx::yield_now`].
#[must_use = "futures do nothing unless awaited"]
pub struct Sleep<'a> {
    cx: &'a Cx,
    target: SleepTarget,
    suspended: bool,
}

impl Future for Sleep<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        if this.suspended {
            return Poll::Ready(());
        }
        let mut g = this.cx.inner.lock();
        let at = match this.target {
            SleepTarget::After(d) => g.now + d,
            SleepTarget::Until(at) => at.max(g.now),
        };
        g.push(at, EventKind::TaskWake(this.cx.id));
        this.suspended = true;
        Poll::Pending
    }
}

/// Future returned by [`Cx::wait`].
#[must_use = "futures do nothing unless awaited"]
pub struct Wait<'a, T> {
    cx: &'a Cx,
    c: Option<Completion<T>>,
}

impl<T: Send + 'static> Future for Wait<'_, T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<T> {
        let this = &mut *self;
        let c = this.c.take().expect("completion future polled after ready");
        match c.take_or_subscribe(this.cx.id) {
            Ok(v) => Poll::Ready(v),
            Err(c) => {
                this.c = Some(c);
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn task_advances_clock() {
        let sim = Sim::new();
        sim.spawn_task("t", |cx| async move {
            cx.advance(SimDuration::from_millis(10)).await;
            cx.advance(SimDuration::from_millis(5)).await;
        });
        assert_eq!(sim.run().unwrap().as_millis(), 15);
    }

    #[test]
    fn task_completion_handoff() {
        let sim = Sim::new();
        let (tx, rx) = crate::completion::<u64>();
        sim.spawn_task("producer", |cx| async move {
            cx.advance(SimDuration::from_millis(3)).await;
            tx.fire_from(&cx.sched(), 17);
        });
        sim.spawn_task("consumer", |cx| async move {
            let v = cx.wait(rx).await;
            assert_eq!(v, 17);
            assert_eq!(cx.now().as_millis(), 3);
        });
        sim.run().unwrap();
    }

    /// Run `n` tasks; task `i` advances by `(i + 1) * stride + k` on its
    /// `k`-th of `steps` steps and logs `(now, i)` after each.
    fn stride_trace(n: usize, stride: u64, steps: u64) -> Vec<(u64, usize)> {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let sim = Sim::new();
        for i in 0..n {
            let log = Arc::clone(&log);
            sim.spawn_task(format!("a{i}"), move |cx| async move {
                for k in 0..steps {
                    cx.advance(SimDuration::from_nanos((i as u64 + 1) * stride + k))
                        .await;
                    log.lock().unwrap().push((cx.now().as_nanos(), i));
                }
            });
        }
        sim.run().unwrap();
        let v = log.lock().unwrap().clone();
        v
    }

    /// The interleaving is fixed by `(virtual time, insertion sequence)`
    /// alone. Both expected traces were recorded when a thread-per-actor
    /// engine and this one produced them identically; the second has
    /// equal-time wake-ups (45, 57, 99, 115, 185, 225) that resolve in
    /// insertion order.
    #[test]
    fn stride_traces_match_the_recorded_interleaving() {
        const TIMES_4X8: [u64; 32] = [
            13, 26, 27, 39, 42, 52, 53, 58, 75, 79, 81, 93, 105, 110, 112, 120, 132, 140, 159, 162,
            171, 203, 205, 214, 236, 249, 270, 294, 327, 340, 385, 444,
        ];
        const WHO_4X8: [usize; 32] = [
            0, 1, 0, 2, 0, 3, 1, 0, 0, 2, 1, 0, 3, 1, 0, 2, 0, 1, 3, 2, 1, 1, 2, 3, 1, 2, 3, 2, 3,
            2, 3, 3,
        ];
        let expected: Vec<_> = TIMES_4X8.into_iter().zip(WHO_4X8).collect();
        assert_eq!(stride_trace(4, 13, 8), expected);

        const TIMES_6X10: [u64; 60] = [
            7, 14, 15, 21, 24, 28, 29, 34, 35, 42, 43, 45, 45, 57, 57, 62, 66, 70, 71, 80, 84, 85,
            87, 90, 99, 99, 108, 115, 115, 118, 119, 129, 140, 141, 146, 150, 162, 168, 174, 183,
            185, 185, 196, 217, 220, 225, 225, 252, 255, 266, 267, 288, 308, 315, 325, 351, 364,
            395, 414, 465,
        ];
        const WHO_6X10: [usize; 60] = [
            0, 1, 0, 2, 0, 3, 1, 0, 4, 5, 2, 1, 0, 3, 0, 1, 2, 0, 4, 1, 0, 5, 3, 2, 1, 0, 4, 2, 0,
            3, 1, 5, 1, 2, 4, 3, 1, 2, 5, 3, 4, 1, 2, 3, 5, 4, 2, 3, 2, 4, 5, 3, 4, 5, 3, 4, 5, 4,
            5, 5,
        ];
        let expected: Vec<_> = TIMES_6X10.into_iter().zip(WHO_6X10).collect();
        assert_eq!(stride_trace(6, 7, 10), expected);
    }

    #[test]
    fn task_panic_is_reported() {
        let sim = Sim::new();
        sim.spawn_task("bad", |cx| async move {
            cx.advance(SimDuration::from_millis(1)).await;
            panic!("task boom");
        });
        match sim.run() {
            Err(crate::SimError::ProcessPanicked(m)) => assert!(m.contains("task boom")),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn task_deadlock_is_detected_with_name() {
        let sim = Sim::new();
        let (_tx, rx) = crate::completion::<()>();
        sim.spawn_task("stuck-task", |cx| async move {
            cx.wait(rx).await;
        });
        match sim.run() {
            Err(crate::SimError::Deadlock(names)) => {
                assert_eq!(names, vec!["stuck-task".to_string()])
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn yield_now_interleaves_tasks_in_spawn_order() {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let sim = Sim::new();
        for name in ["a", "b"] {
            let log = Arc::clone(&log);
            sim.spawn_task(name, move |cx| async move {
                for i in 0..3 {
                    log.lock().unwrap().push(format!("{name}{i}"));
                    cx.yield_now().await;
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(
            *log.lock().unwrap(),
            vec!["a0", "b0", "a1", "b1", "a2", "b2"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn advance_zero_still_yields() {
        let sim = Sim::new();
        sim.spawn_task("z", |cx| async move {
            cx.advance(SimDuration::ZERO).await;
            assert_eq!(cx.now().as_nanos(), 0);
        });
        assert_eq!(sim.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn names_and_ids() {
        let sim = Sim::new();
        let id = sim.spawn_task("worker-3", |cx| async move {
            assert_eq!(cx.name(), "worker-3");
        });
        assert_eq!(id.index(), 0);
        sim.run().unwrap();
    }

    #[test]
    fn ten_thousand_tasks_one_process() {
        let sim = Sim::new();
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for i in 0..10_000usize {
            let counter = Arc::clone(&counter);
            sim.spawn_task(format!("t{i}"), move |cx| async move {
                cx.advance(SimDuration::from_nanos(i as u64 + 1)).await;
                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
        sim.run().unwrap();
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 10_000);
    }
}
