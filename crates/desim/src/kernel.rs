//! The event queue and simulation driver.
//!
//! ## Execution model
//!
//! Every simulated actor is a pooled continuation task (see
//! [`crate::exec`]). The dispatch loop runs on the thread that called
//! [`Sim::run`] (or [`Sim::run_window`]): it pops the next event, then
//! either polls the woken task inline or runs the kernel callback, and
//! returns to its caller when the run ends or the window closes. Events
//! are ordered by `(virtual time, insertion sequence)` so the execution
//! order is a pure function of the simulated program.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use crate::sync::Mutex;

use crate::exec::TaskId;
use crate::time::{SimDuration, SimTime};

/// Errors surfaced by [`Sim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A simulated actor panicked; contains the panic message of the first
    /// actor that failed.
    ProcessPanicked(String),
    /// The event queue drained while actors were still blocked — the
    /// simulated program deadlocked. Contains the names of blocked actors.
    Deadlock(Vec<String>),
    /// Virtual time passed the limit given to [`Sim::run_until`] before all
    /// actors finished — the simulated program timed out.
    TimeLimitExceeded(SimTime),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcessPanicked(m) => write!(f, "simulated actor panicked: {m}"),
            SimError::Deadlock(names) => {
                write!(f, "simulation deadlock; blocked actors: {names:?}")
            }
            SimError::TimeLimitExceeded(t) => {
                write!(f, "simulation exceeded its virtual time limit at {t}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of one bounded dispatch window (see [`Sim::run_window`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Every task finished and the event queue drained.
    Done(RunStats),
    /// The next event lies at or beyond the horizon; contains its time.
    Paused(SimTime),
    /// The event queue drained while tasks are still blocked.
    /// Not a deadlock verdict: a blocked shard may be waiting on cross-shard
    /// mail that another shard has yet to send. The sharded driver declares
    /// a global deadlock only when *every* shard is idle.
    Idle,
}

/// A scheduling capability handed to kernel callbacks, and obtainable from
/// any task via [`crate::Cx::sched`]. It can read the clock, schedule
/// further callbacks and fire [`crate::Trigger`]s, but cannot block.
/// Cloning is cheap (a reference-count bump).
#[derive(Clone)]
pub struct Sched {
    pub(crate) inner: Arc<Inner>,
}

impl Sched {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.lock().now
    }

    /// Schedule `f` to run at virtual time `at` (clamped to now if in the
    /// past). The callback runs inside the dispatch loop.
    pub fn call_at(&self, at: SimTime, f: impl FnOnce(&Sched) + Send + 'static) {
        let mut g = self.inner.lock();
        let at = at.max(g.now);
        g.push(at, EventKind::Call(Box::new(f)));
    }

    /// Schedule `f` to run `after` from now.
    pub fn call_after(&self, after: SimDuration, f: impl FnOnce(&Sched) + Send + 'static) {
        let mut g = self.inner.lock();
        let at = g.now + after;
        g.push(at, EventKind::Call(Box::new(f)));
    }

    pub(crate) fn wake_task_at(&self, at: SimTime, tid: TaskId) {
        let mut g = self.inner.lock();
        let at = at.max(g.now);
        g.push(at, EventKind::TaskWake(tid));
    }
}

pub(crate) enum EventKind {
    TaskWake(TaskId),
    Call(Box<dyn FnOnce(&Sched) + Send>),
}

struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A pooled continuation task: a stackless state machine polled inline by
/// the dispatch loop. `fut` is `None` while the task is being polled and
/// after it completes.
pub(crate) struct TaskSlot {
    pub(crate) name: Arc<str>,
    pub(crate) fut: Option<Pin<Box<dyn Future<Output = ()> + Send>>>,
}

pub(crate) struct Shared {
    heap: BinaryHeap<Reverse<Event>>,
    pub(crate) now: SimTime,
    seq: u64,
    pub(crate) tasks: Vec<TaskSlot>,
    /// Continuation tasks spawned but not yet completed.
    pub(crate) task_live: usize,
    pub(crate) failure: Option<SimError>,
    pub(crate) limit: SimTime,
    /// True once this sim is driven through [`Sim::run_window`]: the
    /// dispatch loop then pauses at `horizon` instead of failing, and an
    /// empty queue with live tasks is a window boundary, not a deadlock.
    /// Never set on the classic [`Sim::run`] path.
    windowed: bool,
    /// Exclusive upper bound on event times the current window may run.
    horizon: SimTime,
    /// Events dispatched so far (task wakes and callbacks), for throughput
    /// reporting via [`Sim::run_counted`].
    pub(crate) events: u64,
    /// Observability sink; a completed run reports itself here.
    pub(crate) recorder: Option<Arc<dyn crate::obs::Recorder>>,
    /// Host-time self-profiler with its pre-interned dispatch-loop keys.
    pub(crate) profiler: Option<KernelProf>,
}

/// The dispatch loop samples one event in this many for host-time
/// profiling and extrapolates (weight-scaled) instead of timing every
/// event: two clock reads per event would cost a double-digit share of
/// the ~100ns fast-path dispatch cycle, busting the profiler's own ≤5%
/// overhead gate. The selector is the deterministic dispatch counter,
/// so sampling cannot perturb the simulation.
///
/// Sized for hosts where a clock read costs ~40 ns (paravirtual
/// clocksources): two reads per sampled event amortize to ~3 ns per
/// dispatched event, a single-digit share of the ~100 ns cycle. Prime
/// so a repeating event-kind pattern (ping/pong alternation has period
/// 2, TCP rounds often 4) can never alias with the stride and starve a
/// kind of samples.
pub(crate) const PROF_SAMPLE: u64 = 31;

/// The kernel's handle on an attached [`crate::obs::HostProfiler`]: keys
/// are interned once at attach time so the dispatch loop pays one
/// `Instant` pair and one indexed add per *sampled* event, nothing more.
#[derive(Clone)]
pub(crate) struct KernelProf {
    pub(crate) prof: Arc<crate::obs::HostProfiler>,
    /// Inline poll of a pooled continuation task.
    pub(crate) task_poll: crate::obs::ProfKey,
    /// A kernel callback (timer/flow events scheduled via `call_at`).
    pub(crate) call: crate::obs::ProfKey,
}

impl Shared {
    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }
}

/// The kernel state every handle (`Sim`, `Sched`, `Cx`) shares.
pub(crate) type Inner = Mutex<Shared>;

/// A simulation instance: spawn tasks, then [`Sim::run`] to completion.
pub struct Sim {
    inner: Arc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Sim {
        Sim {
            inner: Arc::new(Mutex::new(Shared {
                heap: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
                tasks: Vec::new(),
                task_live: 0,
                failure: None,
                limit: SimTime::MAX,
                windowed: false,
                horizon: SimTime::MAX,
                events: 0,
                recorder: None,
                profiler: None,
            })),
        }
    }

    /// Spawn a pooled continuation task. `f` receives this task's
    /// [`crate::Cx`] and returns the task body as a future; the body runs as
    /// a stackless state machine polled inline by the dispatch loop, so a
    /// blocked task occupies no OS thread. It becomes runnable at the
    /// current virtual time.
    ///
    /// The body may suspend only through its `Cx` (see
    /// [`crate::exec`] for the blocking-point contract).
    pub fn spawn_task<F, Fut>(&self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnOnce(crate::exec::Cx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        spawn_task(&self.inner, name.into(), f)
    }

    /// Like [`Sim::run`], but fail with [`SimError::TimeLimitExceeded`] if
    /// virtual time passes `limit` before the tasks finish. As with a
    /// deadlock, the still-suspended tasks are dropped when the run
    /// returns — the simulation is abandoned, not unwound.
    pub fn run_until(self, limit: SimTime) -> Result<SimTime, SimError> {
        self.inner.lock().limit = limit;
        self.run()
    }

    /// Run the simulation until every task has finished. Returns the final
    /// virtual time, or the first failure (task panic or deadlock).
    pub fn run(self) -> Result<SimTime, SimError> {
        self.run_counted().map(|s| s.end)
    }

    /// Attach observability per the given [`crate::obs::Obs`] config:
    /// the recorder (a completed run emits one
    /// [`crate::obs::Event::KernelRun`] with its final virtual time and
    /// dispatch count; recording happens host-side after the run ends, so
    /// it cannot perturb the event order or virtual timestamps) and the
    /// host-time self-profiler (the dispatch loop attributes its
    /// wall-clock time to `desim;dispatch;{task_poll,call}` stacks,
    /// sampling one event in `PROF_SAMPLE` (31) and extrapolating so the
    /// clock reads stay far below the loop's own per-event cost). Fields
    /// left `None` leave the corresponding attachment untouched.
    pub fn attach_obs(&self, obs: &crate::obs::Obs) {
        if let Some(rec) = &obs.recorder {
            self.inner.lock().recorder = Some(Arc::clone(rec));
        }
        if let Some(prof) = &obs.profiler {
            let keys = KernelProf {
                task_poll: prof.intern("desim;dispatch;task_poll"),
                call: prof.intern("desim;dispatch;call"),
                prof: Arc::clone(prof),
            };
            self.inner.lock().profiler = Some(keys);
        }
    }

    /// Like [`Sim::run`], but also report how many events were dispatched —
    /// the denominator of the kernel's events-per-second throughput.
    pub fn run_counted(self) -> Result<RunStats, SimError> {
        dispatch(&self.inner);
        let (stats, recorder) = {
            let g = self.inner.lock();
            if let Some(e) = &g.failure {
                return Err(e.clone());
            }
            (
                RunStats {
                    end: g.now,
                    events: g.events,
                },
                g.recorder.clone(),
            )
        };
        if let Some(rec) = recorder {
            rec.record(&crate::obs::Event::KernelRun {
                end_ns: stats.end.as_nanos(),
                events: stats.events,
            });
        }
        Ok(stats)
    }

    /// Run one bounded dispatch window: execute events strictly below
    /// `horizon`, then report how the window ended. Unlike [`Sim::run`]
    /// this does not consume the sim — the conservative-PDES driver
    /// ([`crate::shard::ShardedSim`]) calls it repeatedly, widening the
    /// horizon by the lookahead each round. A windowed sim keeps running
    /// trailing kernel callbacks after its last task finishes (they may
    /// post cross-shard mail); [`Window::Done`] therefore requires the
    /// queue to be fully drained, and a `Done` shard is revived by a later
    /// [`Sim::post_at`].
    pub fn run_window(&self, horizon: SimTime) -> Result<Window, SimError> {
        {
            let mut g = self.inner.lock();
            g.windowed = true;
            g.horizon = horizon;
        }
        dispatch(&self.inner);
        let g = self.inner.lock();
        if let Some(e) = &g.failure {
            return Err(e.clone());
        }
        Ok(classify(&g))
    }

    /// Schedule `f` at virtual time `at` from *outside* the dispatch loop —
    /// the cross-shard mail delivery hook. The conservative horizon
    /// guarantees `at` is never in this shard's past (debug-asserted).
    pub fn post_at(&self, at: SimTime, f: impl FnOnce(&Sched) + Send + 'static) {
        let mut g = self.inner.lock();
        debug_assert!(
            at >= g.now,
            "cross-shard post into this shard's past ({at} < {})",
            g.now
        );
        let at = at.max(g.now);
        g.push(at, EventKind::Call(Box::new(f)));
    }

    /// Time of the earliest pending event, if any. Between windows this is
    /// the shard's bid for the next global horizon.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.inner.lock().heap.peek().map(|Reverse(ev)| ev.time)
    }

    /// True while any task has not finished.
    pub fn anything_live(&self) -> bool {
        self.inner.lock().task_live > 0
    }

    /// Names of currently suspended tasks, for the sharded driver's
    /// global-deadlock diagnostic.
    pub fn blocked_names(&self) -> Vec<String> {
        suspended_names(&self.inner.lock())
    }

    /// Current virtual time and dispatch count, without ending the run.
    pub fn stats(&self) -> RunStats {
        let g = self.inner.lock();
        RunStats {
            end: g.now,
            events: g.events,
        }
    }
}

impl Drop for Sim {
    /// Release what a finished or abandoned run left behind: suspended
    /// tasks hold a [`crate::Cx`] and trailing callbacks may hold a
    /// [`Sched`], and either keeps this kernel alive through a reference
    /// cycle. They are dropped after the lock is released, because their
    /// destructors may touch the kernel.
    fn drop(&mut self) {
        let leftovers = {
            let mut g = self.inner.lock();
            (std::mem::take(&mut g.heap), std::mem::take(&mut g.tasks))
        };
        drop(leftovers);
    }
}

/// Names of the tasks suspended at a blocking point.
fn suspended_names(g: &Shared) -> Vec<String> {
    g.tasks
        .iter()
        .filter(|t| t.fut.is_some())
        .map(|t| t.name.to_string())
        .collect()
}

/// Classify a quiescent (between-windows) shared state into a [`Window`].
fn classify(g: &Shared) -> Window {
    match g.heap.peek() {
        Some(Reverse(ev)) => Window::Paused(ev.time),
        None if g.task_live == 0 => Window::Done(RunStats {
            end: g.now,
            events: g.events,
        }),
        None => Window::Idle,
    }
}

/// Outcome of a completed run: final virtual time and event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Final virtual time.
    pub end: SimTime,
    /// Total events dispatched (task wakes plus kernel callbacks).
    pub events: u64,
}

/// Register a continuation task: allocate its slot and push its first wake,
/// then construct the body and store it. Safe against the wake being
/// dispatched before the future is stored: the dispatch loop only pops the
/// wake after the spawning task or callback has returned to it (or, before
/// [`Sim::run`], nobody dispatches at all).
pub(crate) fn spawn_task<F, Fut>(inner: &Arc<Inner>, name: String, f: F) -> TaskId
where
    F: FnOnce(crate::exec::Cx) -> Fut,
    Fut: Future<Output = ()> + Send + 'static,
{
    let name: Arc<str> = name.into();
    let id = {
        let mut g = inner.lock();
        let id = TaskId(g.tasks.len());
        g.tasks.push(TaskSlot {
            name: Arc::clone(&name),
            fut: None,
        });
        g.task_live += 1;
        let now = g.now;
        g.push(now, EventKind::TaskWake(id));
        id
    };
    let cx = crate::exec::Cx::for_task(Arc::clone(inner), id, name);
    let fut = f(cx);
    inner.lock().tasks[id.0].fut = Some(Box::pin(fut));
    id
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run the dispatch loop until the run ends, the window closes, or the
/// queue drains. The outcome (failure, clock, event count) is left in
/// `Shared` for the caller to read.
fn dispatch(inner: &Arc<Inner>) {
    let mut guard = inner.lock();
    // Snapshot the profiler handle once per dispatch entry: it is
    // immutable for the whole run, and re-cloning the Arc per event
    // while holding the shared lock was measurable on the hot path.
    let prof = guard.profiler.clone();
    loop {
        if guard.task_live == 0 && !guard.windowed {
            // All tasks done: ignore any trailing timer/callback events
            // (e.g. pending TCP window rounds) and end the simulation. A
            // windowed shard instead keeps draining those callbacks — they
            // may carry cross-shard mail.
            return;
        }
        if guard.windowed
            && guard
                .heap
                .peek()
                .is_some_and(|Reverse(ev)| ev.time >= guard.horizon)
        {
            // Window boundary: hand control back to the sharded driver.
            return;
        }
        if guard
            .heap
            .peek()
            .is_some_and(|Reverse(ev)| ev.time > guard.limit)
        {
            if guard.failure.is_none() {
                guard.failure = Some(SimError::TimeLimitExceeded(guard.limit));
            }
            return;
        }
        let Some(Reverse(ev)) = guard.heap.pop() else {
            // An empty queue is not a verdict for a windowed shard: it may
            // be waiting on cross-shard mail, and the driver decides.
            if !guard.windowed && guard.task_live > 0 && guard.failure.is_none() {
                // Every live task is suspended at a blocking point whose
                // wake-up never arrived.
                guard.failure = Some(SimError::Deadlock(suspended_names(&guard)));
            }
            return;
        };
        debug_assert!(ev.time >= guard.now, "event queue went backwards");
        guard.now = guard.now.max(ev.time);
        guard.events += 1;
        let sample = prof
            .as_ref()
            .filter(|_| guard.events.is_multiple_of(PROF_SAMPLE));
        match ev.kind {
            EventKind::TaskWake(tid) => {
                // Poll the task inline: no park/unpark, no context switch.
                // The future is taken out of its slot for the duration of
                // the poll so the task body can lock the kernel (to push
                // events) without aliasing it.
                let mut fut = guard.tasks[tid.0]
                    .fut
                    .take()
                    .expect("task woken while running or after completion (double wake)");
                drop(guard);
                let t0 = sample.map(|_| Instant::now());
                let poll = catch_unwind(AssertUnwindSafe(|| {
                    fut.as_mut().poll(&mut Context::from_waker(Waker::noop()))
                }));
                if let (Some(p), Some(t0)) = (sample, t0) {
                    p.prof
                        .add_ns_sampled(p.task_poll, t0.elapsed().as_nanos() as u64, PROF_SAMPLE);
                }
                guard = inner.lock();
                match poll {
                    Ok(Poll::Pending) => {
                        // Suspended at a blocking point; its wake-up (timer
                        // event or completion subscription) is already
                        // registered.
                        guard.tasks[tid.0].fut = Some(fut);
                    }
                    Ok(Poll::Ready(())) => {
                        guard.task_live -= 1;
                    }
                    Err(payload) => {
                        guard.task_live -= 1;
                        let msg = panic_message(payload);
                        if guard.failure.is_none() {
                            guard.failure = Some(SimError::ProcessPanicked(msg));
                        }
                        // Fail fast: drop all pending work so the run ends.
                        guard.heap.clear();
                    }
                }
            }
            EventKind::Call(f) => {
                drop(guard);
                let t0 = sample.map(|_| Instant::now());
                f(&Sched {
                    inner: Arc::clone(inner),
                });
                if let (Some(p), Some(t0)) = (sample, t0) {
                    p.prof
                        .add_ns_sampled(p.call, t0.elapsed().as_nanos() as u64, PROF_SAMPLE);
                }
                guard = inner.lock();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn single_task_advances_clock() {
        let sim = Sim::new();
        sim.spawn_task("t", |cx| async move {
            cx.advance(SimDuration::from_millis(10)).await;
            cx.advance(SimDuration::from_millis(5)).await;
        });
        assert_eq!(sim.run().unwrap().as_millis(), 15);
    }

    #[test]
    fn interleaving_is_time_ordered() {
        use std::sync::Mutex as StdMutex;
        let log = Arc::new(StdMutex::new(Vec::new()));
        let sim = Sim::new();
        for (name, step_ms) in [("a", 3u64), ("b", 5u64), ("c", 7u64)] {
            let log = Arc::clone(&log);
            sim.spawn_task(name, move |cx| async move {
                for _ in 0..4 {
                    cx.advance(SimDuration::from_millis(step_ms)).await;
                    log.lock().unwrap().push((cx.now().as_millis(), name));
                }
            });
        }
        sim.run().unwrap();
        let log = log.lock().unwrap();
        let times: Vec<u64> = log.iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "events must be observed in time order");
        assert_eq!(log.len(), 12);
    }

    #[test]
    fn call_at_runs_between_tasks() {
        let sim = Sim::new();
        let (tx, rx) = crate::completion::<u64>();
        sim.spawn_task("waiter", move |cx| async move {
            cx.sched()
                .call_after(SimDuration::from_millis(2), move |s| {
                    tx.fire_from(s, s.now().as_millis());
                });
            assert_eq!(cx.wait(rx).await, 2);
        });
        sim.run().unwrap();
    }

    #[test]
    fn run_until_reports_time_limit() {
        let sim = Sim::new();
        sim.spawn_task("slow", |cx| async move {
            cx.advance(SimDuration::from_secs(100)).await;
        });
        match sim.run_until(SimTime::from_nanos(1_000_000)) {
            Err(SimError::TimeLimitExceeded(t)) => assert_eq!(t.as_micros(), 1_000),
            other => panic!("expected time limit, got {other:?}"),
        }
    }

    #[test]
    fn run_until_is_inert_for_fast_runs() {
        let sim = Sim::new();
        sim.spawn_task("fast", |cx| async move {
            cx.advance(SimDuration::from_millis(1)).await;
        });
        let end = sim
            .run_until(SimTime::from_nanos(1_000_000_000))
            .expect("finishes before the limit");
        assert_eq!(end.as_millis(), 1);
    }

    #[test]
    fn determinism_same_trace_twice() {
        fn trace() -> Vec<(u64, usize)> {
            let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
            let sim = Sim::new();
            for i in 0..8usize {
                let log = Arc::clone(&log);
                sim.spawn_task(format!("p{i}"), move |cx| async move {
                    for k in 0..16u64 {
                        cx.advance(SimDuration::from_nanos((i as u64 + 1) * 37 + k))
                            .await;
                        log.lock().push((cx.now().as_nanos(), i));
                    }
                });
            }
            sim.run().unwrap();
            let v = log.lock().clone();
            v
        }
        assert_eq!(trace(), trace());
    }

    /// A run that ends — cleanly, deadlocked, or past its limit — must
    /// release everything it captured: suspended tasks and trailing
    /// callbacks hold handles on the kernel, which would otherwise keep
    /// the whole simulation alive in a reference cycle.
    #[test]
    fn ended_runs_release_captured_state() {
        let probe = Arc::new(());

        let sim = Sim::new();
        let (_tx, rx) = crate::completion::<()>();
        let p = Arc::clone(&probe);
        sim.spawn_task("stuck", move |cx| async move {
            let _p = p;
            cx.wait(rx).await;
        });
        assert!(matches!(sim.run(), Err(SimError::Deadlock(_))));
        assert_eq!(Arc::strong_count(&probe), 1, "deadlocked run leaked");

        let sim = Sim::new();
        let p = Arc::clone(&probe);
        sim.spawn_task("slow", move |cx| async move {
            let _p = p;
            cx.advance(SimDuration::from_secs(100)).await;
        });
        let limit = SimTime::from_nanos(1_000);
        assert!(matches!(
            sim.run_until(limit),
            Err(SimError::TimeLimitExceeded(_))
        ));
        assert_eq!(Arc::strong_count(&probe), 1, "timed-out run leaked");

        let sim = Sim::new();
        let p = Arc::clone(&probe);
        sim.spawn_task("arm", move |cx| async move {
            let s = cx.sched();
            cx.sched().call_after(SimDuration::from_secs(1), move |_| {
                let _keep = (p, s);
            });
        });
        sim.run().unwrap();
        assert_eq!(Arc::strong_count(&probe), 1, "trailing callback leaked");
    }
}
