//! The event queue and simulation driver.
//!
//! ## Execution model
//!
//! Every simulated actor is a pooled continuation task (see
//! [`crate::exec`]). The dispatch loop runs on the thread that called
//! [`Sim::run`]: it pops the next event, then either polls the woken task
//! inline or runs the kernel callback, and returns to its caller when the
//! run ends. Events
//! are ordered by `(virtual time, insertion sequence)` so the execution
//! order is a pure function of the simulated program.
//!
//! Besides its heap the kernel dispatches from attached [`Timeline`]s:
//! event queues that a layer keeps itself (netsim's per-flow timers) and
//! that share the heap's key space. An entry takes its key from
//! [`Sched::stamp`], which hands out the `(time, seq)` that
//! [`Sched::call_at`] would have used, and each timeline publishes its
//! earliest key; the loop runs whichever of the heap top and the
//! published keys is smallest, so the dispatch order is the one a single
//! heap holding every entry would give.
//!
//! The kernel state has one owner thread: `Sim`, `Sched` and `Cx` share
//! it through an `Rc<RefCell<_>>`, so dispatching an event takes no lock
//! and bumps no atomic count.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

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

/// A scheduling capability handed to kernel callbacks, and obtainable from
/// any task via [`crate::Cx::sched`]. It can read the clock, schedule
/// further callbacks and fire [`crate::Trigger`]s, but cannot block.
/// Cloning is cheap (a reference-count bump).
///
/// Like [`Sim`], a `Sched` belongs to the thread that built the
/// simulation:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<desim::Sched>();
/// ```
#[derive(Clone)]
pub struct Sched {
    pub(crate) inner: Rc<Inner>,
}

impl Sched {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Schedule `f` to run at virtual time `at` (clamped to now if in the
    /// past). The callback runs inside the dispatch loop.
    pub fn call_at(&self, at: SimTime, f: impl FnOnce(&Sched) + 'static) {
        let mut g = self.inner.borrow_mut();
        let at = at.max(g.now);
        g.push(at, EventKind::Call(Box::new(f)));
    }

    /// Schedule `f` to run `after` from now.
    pub fn call_after(&self, after: SimDuration, f: impl FnOnce(&Sched) + 'static) {
        let mut g = self.inner.borrow_mut();
        let at = g.now + after;
        g.push(at, EventKind::Call(Box::new(f)));
    }

    /// The key [`Sched::call_at`]`(at, ..)` would give its event now:
    /// `at` clamped to now, and the next insertion sequence number, which
    /// this call consumes. An entry of an attached [`Timeline`] keyed by
    /// it runs exactly where that heap event would have run.
    pub fn stamp(&self, at: SimTime) -> EventKey {
        let mut g = self.inner.borrow_mut();
        let time = at.max(g.now);
        let seq = g.seq;
        g.seq += 1;
        EventKey { time, seq }
    }

    /// Attach `tl` to this kernel, with nothing published yet. The
    /// kernel holds it until the [`Sim`] is dropped.
    pub fn attach_timeline(&self, tl: Rc<dyn Timeline>) -> TimelineId {
        let mut g = self.inner.borrow_mut();
        g.timelines.push(Attached { key: None, tl });
        TimelineId {
            kernel: g.kernel,
            index: g.timelines.len() - 1,
        }
    }

    /// True if `tl` is attached to this kernel. Kernels are told apart by
    /// an id issued at [`Sim::new`], never reused, so a timeline of a
    /// dropped simulation is not mistaken for one of a new simulation at
    /// the same address.
    pub fn owns(&self, tl: TimelineId) -> bool {
        self.inner.borrow().kernel == tl.kernel
    }

    /// Publish `key` as the earliest entry of timeline `tl` (`None`: it
    /// has none). Whenever control returns to the dispatch loop, the
    /// published key must be no later than the timeline's earliest entry,
    /// so a timeline publishes at least whenever it adds an entry ahead
    /// of the published one; a published key whose entry has gone is
    /// handled by [`Timeline::dispatch`].
    pub fn publish(&self, tl: TimelineId, key: Option<EventKey>) {
        let mut g = self.inner.borrow_mut();
        assert_eq!(g.kernel, tl.kernel, "timeline of another kernel");
        g.timelines[tl.index].key = key;
        g.timeline_next = g
            .timelines
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.key.map(|k| (k, i)))
            .min();
    }

    /// The key timeline `tl`'s entries must stay below to run before
    /// anything else this kernel holds: the smallest of the heap top,
    /// every other timeline's published key and the run's time limit (as
    /// the key just past it). A [`Sched::stamp`] taken now is newer than
    /// every pending key, so an entry stamped now at time `t` runs first
    /// iff `t < bound.time`: a tie in time goes to the foreign entry.
    pub fn bound(&self, tl: TimelineId) -> EventKey {
        let g = self.inner.borrow();
        assert_eq!(g.kernel, tl.kernel, "timeline of another kernel");
        let past_limit = EventKey {
            time: g.limit + SimDuration::from_nanos(1),
            seq: 0,
        };
        let heap = g.heap.peek().map(|Reverse(ev)| EventKey {
            time: ev.time,
            seq: ev.seq,
        });
        g.timelines
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != tl.index)
            .filter_map(|(_, t)| t.key)
            .chain(heap)
            .fold(past_limit, EventKey::min)
    }

    /// `Some(weight)` if the dispatch in progress is one the attached
    /// [`crate::obs::HostProfiler`] samples (one in `weight`), else
    /// `None`. Host-time scopes nested in a dispatch
    /// follow this one decision: a sampled dispatch times every scope
    /// inside it with its weight, an unsampled one times none, so their
    /// rows nest inside the dispatch's row and share its weight.
    pub fn host_sample(&self) -> Option<u64> {
        Some(self.inner.borrow().host_sample).filter(|&w| w != 0)
    }

    pub(crate) fn wake_task_at(&self, at: SimTime, tid: TaskId) {
        let mut g = self.inner.borrow_mut();
        let at = at.max(g.now);
        g.push(at, EventKind::TaskWake(tid));
    }
}

/// The `(virtual time, insertion sequence)` key the kernel orders every
/// dispatch by. Sequence numbers are unique within a kernel, so no two
/// keys of one kernel are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// When the entry is due.
    pub time: SimTime,
    /// Its insertion sequence number, from [`Sched::stamp`].
    pub seq: u64,
}

/// An event queue kept outside the kernel heap and dispatched by the
/// kernel in key order among the heap's events (see [`Sched::stamp`] and
/// [`Sched::publish`]).
pub trait Timeline {
    /// Run the entry keyed `key`, the key this timeline last published,
    /// at virtual time `key.time`, publish the new earliest key and
    /// return true. If that entry is gone, publish the current earliest
    /// key, run nothing and return false; a dispatch that runs nothing is
    /// not counted as an event.
    fn dispatch(&self, s: &Sched, key: EventKey) -> bool;
}

/// Names one timeline attached to one kernel (see
/// [`Sched::attach_timeline`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineId {
    kernel: u64,
    index: usize,
}

/// An attached timeline and the earliest key it published.
struct Attached {
    key: Option<EventKey>,
    tl: Rc<dyn Timeline>,
}

/// Source of kernel ids: each [`Sim`] takes the next one.
static NEXT_KERNEL: AtomicU64 = AtomicU64::new(0);

pub(crate) enum EventKind {
    TaskWake(TaskId),
    Call(Box<dyn FnOnce(&Sched)>),
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
    pub(crate) name: Rc<str>,
    pub(crate) fut: Option<Pin<Box<dyn Future<Output = ()>>>>,
}

pub(crate) struct Shared {
    heap: BinaryHeap<Reverse<Event>>,
    /// This kernel's id (see [`Sched::owns`]).
    kernel: u64,
    /// Attached timelines, indexed by [`TimelineId::index`].
    timelines: Vec<Attached>,
    /// The smallest published key and its timeline's index.
    timeline_next: Option<(EventKey, usize)>,
    pub(crate) now: SimTime,
    seq: u64,
    pub(crate) tasks: Vec<TaskSlot>,
    /// Continuation tasks spawned but not yet completed.
    pub(crate) task_live: usize,
    pub(crate) failure: Option<SimError>,
    pub(crate) limit: SimTime,
    /// Events dispatched so far (task wakes and callbacks), for throughput
    /// reporting via [`Sim::run_counted`].
    pub(crate) events: u64,
    /// Observability sink; a completed run reports itself here.
    pub(crate) recorder: Option<Arc<dyn crate::obs::Recorder>>,
    /// Host-time self-profiler with its pre-interned dispatch-loop keys.
    pub(crate) profiler: Option<KernelProf>,
    /// The weight of the dispatch in progress if the profiler samples
    /// it, else 0: what [`Sched::host_sample`] reads.
    pub(crate) host_sample: u64,
}

/// The dispatch loop samples one event in this many for host-time
/// profiling and extrapolates (weight-scaled) instead of timing every
/// event: clock reads on every event would cost a double-digit share of
/// the ~100ns fast-path dispatch cycle, busting the profiler's own ≤5%
/// overhead gate. The selector is a deterministic dispatch counter, so
/// sampling cannot perturb the simulation. It counts the profiler's
/// dispatches across runs ([`crate::obs::HostProfiler::dispatched`]):
/// each run continues the count where the last one left it, so runs
/// shorter than the stride are sampled in turn rather than never.
///
/// Scopes nested in a dispatch take the same decision and weight
/// ([`Sched::host_sample`]), so a sampled window round reads the clock
/// up to eight times (the dispatch, and netsim's round, settle and
/// allocate scopes). Sized for hosts where a clock read costs ~40–50 ns
/// (paravirtual clocksources): eight reads per sampled event amortize
/// to ~3 ns per dispatched event, a single-digit share of the ~100 ns
/// cycle. Prime so a repeating event-kind pattern (ping/pong alternation
/// has period 2, TCP rounds often 4) can never alias with the stride
/// and starve a kind of samples.
pub(crate) const PROF_SAMPLE: u64 = 127;

/// The kernel's handle on an attached [`crate::obs::HostProfiler`]: keys
/// are interned once per profiler, looked up at attach, so the dispatch loop pays one
/// `Instant` pair and one indexed add per *sampled* event, nothing more.
#[derive(Clone)]
pub(crate) struct KernelProf {
    pub(crate) prof: Arc<crate::obs::HostProfiler>,
    /// Inline poll of a pooled continuation task.
    pub(crate) task_poll: crate::obs::ProfKey,
    /// A kernel callback (timer/flow events scheduled via `call_at`).
    pub(crate) call: crate::obs::ProfKey,
    /// An entry of an attached [`Timeline`].
    pub(crate) timeline: crate::obs::ProfKey,
}

impl Shared {
    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }
}

/// The kernel state every handle (`Sim`, `Sched`, `Cx`) shares. A
/// simulation has one owner thread, so a `RefCell` borrow stands where a
/// lock would: each borrow spans exactly one kernel operation and is
/// released before a task is polled or a callback runs.
pub(crate) type Inner = RefCell<Shared>;

/// A simulation instance: spawn tasks, then [`Sim::run`] to completion.
///
/// A simulation is owned by the thread that builds it; its state is not
/// shared across threads, so neither the `Sim` nor its handles are `Send`:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<desim::Sim>();
/// ```
pub struct Sim {
    inner: Rc<Inner>,
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
            inner: Rc::new(RefCell::new(Shared {
                heap: BinaryHeap::new(),
                kernel: NEXT_KERNEL.fetch_add(1, Ordering::Relaxed),
                timelines: Vec::new(),
                timeline_next: None,
                now: SimTime::ZERO,
                seq: 0,
                tasks: Vec::new(),
                task_live: 0,
                failure: None,
                limit: SimTime::MAX,
                events: 0,
                recorder: None,
                profiler: None,
                host_sample: 0,
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
        Fut: Future<Output = ()> + 'static,
    {
        spawn_task(&self.inner, name.into(), f)
    }

    /// Like [`Sim::run`], but fail with [`SimError::TimeLimitExceeded`] if
    /// virtual time passes `limit` before the tasks finish. As with a
    /// deadlock, the still-suspended tasks are dropped when the run
    /// returns — the simulation is abandoned, not unwound.
    pub fn run_until(self, limit: SimTime) -> Result<SimTime, SimError> {
        self.inner.borrow_mut().limit = limit;
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
    /// wall-clock time to `desim;dispatch;{task_poll,call,timeline}` stacks,
    /// sampling one event in `PROF_SAMPLE` (127) and extrapolating so the
    /// clock reads stay far below the loop's own per-event cost). Fields
    /// left `None` leave the corresponding attachment untouched.
    pub fn attach_obs(&self, obs: &crate::obs::Obs) {
        if let Some(rec) = &obs.recorder {
            self.inner.borrow_mut().recorder = Some(Arc::clone(rec));
        }
        if let Some(prof) = &obs.profiler {
            let k = prof.intern_set("desim;dispatch", || {
                ["task_poll", "call", "timeline"]
                    .map(|s| format!("desim;dispatch;{s}"))
                    .into()
            });
            let keys = KernelProf {
                task_poll: k[0],
                call: k[1],
                timeline: k[2],
                prof: Arc::clone(prof),
            };
            self.inner.borrow_mut().profiler = Some(keys);
        }
    }

    /// Like [`Sim::run`], but also report how many events were dispatched —
    /// the denominator of the kernel's events-per-second throughput.
    pub fn run_counted(self) -> Result<RunStats, SimError> {
        dispatch(&self.inner);
        let (stats, recorder) = {
            let g = self.inner.borrow();
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
}

impl Drop for Sim {
    /// Release what a finished or abandoned run left behind: suspended
    /// tasks hold a [`crate::Cx`], trailing callbacks may hold a
    /// [`Sched`] and attached timelines may own state that does, and any
    /// of them keeps this kernel alive through a reference cycle. They
    /// are dropped after the borrow is released, because their
    /// destructors may touch the kernel.
    fn drop(&mut self) {
        let leftovers = {
            let mut g = self.inner.borrow_mut();
            g.timeline_next = None;
            (
                std::mem::take(&mut g.heap),
                std::mem::take(&mut g.tasks),
                std::mem::take(&mut g.timelines),
            )
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
pub(crate) fn spawn_task<F, Fut>(inner: &Rc<Inner>, name: String, f: F) -> TaskId
where
    F: FnOnce(crate::exec::Cx) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let name: Rc<str> = name.into();
    let id = {
        let mut g = inner.borrow_mut();
        let id = TaskId(g.tasks.len());
        g.tasks.push(TaskSlot {
            name: Rc::clone(&name),
            fut: None,
        });
        g.task_live += 1;
        let now = g.now;
        g.push(now, EventKind::TaskWake(id));
        id
    };
    let cx = crate::exec::Cx::for_task(Rc::clone(inner), id, name);
    let fut = f(cx);
    inner.borrow_mut().tasks[id.0].fut = Some(Box::pin(fut));
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

/// Run the dispatch loop until the run ends or the queue drains. The outcome (failure, clock, event count) is left in
/// `Shared` for the caller to read.
fn dispatch(inner: &Rc<Inner>) {
    // Snapshot the profiler handle once per dispatch entry: it is
    // immutable for the whole run, and re-cloning the Arc per event
    // while holding the kernel borrow was measurable on the hot path.
    let prof = inner.borrow().profiler.clone();
    let first = inner.borrow().events;
    // Event `n` of this kernel is event `stream + n - first` of the
    // profiler's count; `offset` is that shift modulo the stride.
    let stream = prof.as_ref().map_or(0, |p| p.prof.dispatched());
    let offset = (stream % PROF_SAMPLE + PROF_SAMPLE - first % PROF_SAMPLE) % PROF_SAMPLE;
    dispatch_loop(inner, prof.as_ref(), |events| {
        (events % PROF_SAMPLE + offset).is_multiple_of(PROF_SAMPLE)
    });
    if let Some(p) = &prof {
        p.prof.add_dispatched(inner.borrow().events - first);
    }
}

/// The dispatch loop of [`dispatch`]; `sampled(n)` says whether the
/// run's `n`th event is one the profiler samples.
fn dispatch_loop(inner: &Rc<Inner>, prof: Option<&KernelProf>, sampled: impl Fn(u64) -> bool) {
    let mut guard = inner.borrow_mut();
    loop {
        if guard.task_live == 0 {
            // All tasks done: ignore any trailing timer/callback events
            // (e.g. pending TCP window rounds) and end the simulation.
            return;
        }
        // The next entry is the heap top or the smallest published
        // timeline key, whichever key is smaller.
        let heap_key = guard.heap.peek().map(|Reverse(ev)| EventKey {
            time: ev.time,
            seq: ev.seq,
        });
        let timeline = guard
            .timeline_next
            .filter(|&(k, _)| heap_key.is_none_or(|h| k < h));
        let Some(next) = timeline.map(|(k, _)| k).or(heap_key) else {
            if guard.failure.is_none() {
                // Every live task is suspended at a blocking point whose
                // wake-up never arrived.
                guard.failure = Some(SimError::Deadlock(suspended_names(&guard)));
            }
            return;
        };
        if next.time > guard.limit {
            if guard.failure.is_none() {
                guard.failure = Some(SimError::TimeLimitExceeded(guard.limit));
            }
            return;
        }
        if let Some((key, i)) = timeline {
            debug_assert!(key.time >= guard.now, "timeline went backwards");
            guard.now = guard.now.max(key.time);
            let tl = Rc::clone(&guard.timelines[i].tl);
            let sample = prof.filter(|_| sampled(guard.events + 1));
            if sample.is_some() {
                guard.host_sample = PROF_SAMPLE;
            }
            drop(guard);
            let t0 = sample.map(|_| Instant::now());
            let ran = tl.dispatch(
                &Sched {
                    inner: Rc::clone(inner),
                },
                key,
            );
            guard = inner.borrow_mut();
            if sample.is_some() {
                guard.host_sample = 0;
            }
            if ran {
                guard.events += 1;
                if let (Some(p), Some(t0)) = (sample, t0) {
                    p.prof
                        .add_ns_sampled(p.timeline, t0.elapsed().as_nanos() as u64, PROF_SAMPLE);
                }
            }
            continue;
        }
        let Reverse(ev) = guard.heap.pop().expect("the heap top was peeked above");
        debug_assert!(ev.time >= guard.now, "event queue went backwards");
        guard.now = guard.now.max(ev.time);
        guard.events += 1;
        let sample = prof.filter(|_| sampled(guard.events));
        match ev.kind {
            EventKind::TaskWake(tid) => {
                // Poll the task inline: no park/unpark, no context switch.
                // The future is taken out of its slot for the duration of
                // the poll so the task body can borrow the kernel (to push
                // events) without aliasing it.
                let mut fut = guard.tasks[tid.0]
                    .fut
                    .take()
                    .expect("task woken while running or after completion (double wake)");
                if sample.is_some() {
                    guard.host_sample = PROF_SAMPLE;
                }
                drop(guard);
                let t0 = sample.map(|_| Instant::now());
                let poll = catch_unwind(AssertUnwindSafe(|| {
                    fut.as_mut().poll(&mut Context::from_waker(Waker::noop()))
                }));
                if let (Some(p), Some(t0)) = (sample, t0) {
                    p.prof
                        .add_ns_sampled(p.task_poll, t0.elapsed().as_nanos() as u64, PROF_SAMPLE);
                }
                guard = inner.borrow_mut();
                if sample.is_some() {
                    guard.host_sample = 0;
                }
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
                        guard.timeline_next = None;
                        for t in &mut guard.timelines {
                            t.key = None;
                        }
                    }
                }
            }
            EventKind::Call(f) => {
                if sample.is_some() {
                    guard.host_sample = PROF_SAMPLE;
                }
                drop(guard);
                let t0 = sample.map(|_| Instant::now());
                f(&Sched {
                    inner: Rc::clone(inner),
                });
                if let (Some(p), Some(t0)) = (sample, t0) {
                    p.prof
                        .add_ns_sampled(p.call, t0.elapsed().as_nanos() as u64, PROF_SAMPLE);
                }
                guard = inner.borrow_mut();
                if sample.is_some() {
                    guard.host_sample = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

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
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        for (name, step_ms) in [("a", 3u64), ("b", 5u64), ("c", 7u64)] {
            let log = Rc::clone(&log);
            sim.spawn_task(name, move |cx| async move {
                for _ in 0..4 {
                    cx.advance(SimDuration::from_millis(step_ms)).await;
                    log.borrow_mut().push((cx.now().as_millis(), name));
                }
            });
        }
        sim.run().unwrap();
        let log = log.borrow();
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
            let log = Rc::new(RefCell::new(Vec::new()));
            let sim = Sim::new();
            for i in 0..8usize {
                let log = Rc::clone(&log);
                sim.spawn_task(format!("p{i}"), move |cx| async move {
                    for k in 0..16u64 {
                        cx.advance(SimDuration::from_nanos((i as u64 + 1) * 37 + k))
                            .await;
                        log.borrow_mut().push((cx.now().as_nanos(), i));
                    }
                });
            }
            sim.run().unwrap();
            let v = log.borrow().clone();
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
        let probe = Rc::new(());

        let sim = Sim::new();
        let (_tx, rx) = crate::completion::<()>();
        let p = Rc::clone(&probe);
        sim.spawn_task("stuck", move |cx| async move {
            let _p = p;
            cx.wait(rx).await;
        });
        assert!(matches!(sim.run(), Err(SimError::Deadlock(_))));
        assert_eq!(Rc::strong_count(&probe), 1, "deadlocked run leaked");

        let sim = Sim::new();
        let p = Rc::clone(&probe);
        sim.spawn_task("slow", move |cx| async move {
            let _p = p;
            cx.advance(SimDuration::from_secs(100)).await;
        });
        let limit = SimTime::from_nanos(1_000);
        assert!(matches!(
            sim.run_until(limit),
            Err(SimError::TimeLimitExceeded(_))
        ));
        assert_eq!(Rc::strong_count(&probe), 1, "timed-out run leaked");

        let sim = Sim::new();
        let p = Rc::clone(&probe);
        sim.spawn_task("arm", move |cx| async move {
            let s = cx.sched();
            cx.sched().call_after(SimDuration::from_secs(1), move |_| {
                let _keep = (p, s);
            });
        });
        sim.run().unwrap();
        assert_eq!(Rc::strong_count(&probe), 1, "trailing callback leaked");

        // A timeline with an entry still pending when the run ends, which
        // owns a handle on the kernel it is attached to.
        let sim = Sim::new();
        let p = Rc::clone(&probe);
        sim.spawn_task("attach", move |cx| async move {
            let s = cx.sched();
            let tl = Labels::attach(&s, Rc::default());
            tl.add(&s, SimTime::from_nanos(1_000_000_000), "late");
            *tl.keep.borrow_mut() = Some(Box::new((p, s)));
        });
        sim.run().unwrap();
        assert_eq!(Rc::strong_count(&probe), 1, "attached timeline leaked");
    }

    /// A timeline of labelled entries for the tests: it logs
    /// `label@ns` for each entry it runs.
    struct Labels {
        id: Cell<Option<TimelineId>>,
        entries: RefCell<Vec<(EventKey, &'static str)>>,
        log: Rc<RefCell<Vec<String>>>,
        /// Whatever the test wants the timeline to own.
        keep: RefCell<Option<Box<dyn std::any::Any>>>,
    }

    impl Labels {
        fn attach(s: &Sched, log: Rc<RefCell<Vec<String>>>) -> Rc<Labels> {
            let tl = Rc::new(Labels {
                id: Cell::new(None),
                entries: RefCell::default(),
                log,
                keep: RefCell::default(),
            });
            tl.id
                .set(Some(s.attach_timeline(Rc::clone(&tl) as Rc<dyn Timeline>)));
            tl
        }

        fn add(&self, s: &Sched, at: SimTime, label: &'static str) {
            self.entries.borrow_mut().push((s.stamp(at), label));
            self.entries.borrow_mut().sort();
            self.publish(s);
        }

        /// Drop the earliest entry without publishing again.
        fn cancel_first(&self) {
            self.entries.borrow_mut().remove(0);
        }

        fn publish(&self, s: &Sched) {
            let first = self.entries.borrow().first().map(|e| e.0);
            s.publish(self.id.get().unwrap(), first);
        }
    }

    impl Timeline for Labels {
        fn dispatch(&self, s: &Sched, key: EventKey) -> bool {
            let first = self.entries.borrow().first().copied();
            let ran = match first {
                Some((k, label)) if k == key => {
                    self.entries.borrow_mut().remove(0);
                    let line = format!("{label}@{}", s.now().as_nanos());
                    self.log.borrow_mut().push(line);
                    true
                }
                _ => false,
            };
            self.publish(s);
            ran
        }
    }

    fn logger(log: &Rc<RefCell<Vec<String>>>, label: &'static str) -> impl FnOnce(&Sched) {
        let log = Rc::clone(log);
        move |s: &Sched| {
            log.borrow_mut()
                .push(format!("{label}@{}", s.now().as_nanos()))
        }
    }

    #[test]
    fn timeline_entries_and_heap_events_run_in_stamp_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        let log2 = Rc::clone(&log);
        sim.spawn_task("arm", move |cx| async move {
            let s = cx.sched();
            let tl = Labels::attach(&s, Rc::clone(&log2));
            let t = SimTime::from_nanos(10);
            s.call_at(t, logger(&log2, "h0"));
            tl.add(&s, t, "t1");
            s.call_at(t, logger(&log2, "h2"));
            tl.add(&s, t, "t3");
            tl.add(&s, SimTime::from_nanos(5), "t4");
            // Due now, and tied with the next one; both keys are earlier
            // than every other.
            tl.add(&s, SimTime::ZERO, "gone");
            tl.add(&s, SimTime::ZERO, "t5");
            // The published entry goes away unannounced: the kernel's
            // dispatch of its key runs nothing and is not counted.
            tl.cancel_first();
            cx.advance(SimDuration::from_nanos(20)).await;
        });
        let stats = sim.run_counted().unwrap();
        assert_eq!(
            *log.borrow(),
            ["t5@0", "t4@5", "h0@10", "t1@10", "h2@10", "t3@10"]
        );
        // Two task polls and the six entries that ran.
        assert_eq!(stats.events, 8);
    }

    #[test]
    fn run_until_stops_at_a_timeline_key_past_its_limit() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        let log2 = Rc::clone(&log);
        let (_tx, rx) = crate::completion::<()>();
        sim.spawn_task("wait", move |cx| async move {
            let tl = Labels::attach(&cx.sched(), log2);
            tl.add(&cx.sched(), SimTime::from_nanos(2_000), "late");
            // The wait never ends: only the timeline keeps the run going.
            cx.wait(rx).await;
        });
        match sim.run_until(SimTime::from_nanos(1_000)) {
            Err(SimError::TimeLimitExceeded(t)) => assert_eq!(t.as_nanos(), 1_000),
            other => panic!("expected time limit, got {other:?}"),
        }
        assert!(log.borrow().is_empty(), "ran past the limit: {log:?}");
    }

    /// A timeline's bound is the smallest foreign key: the heap top, the
    /// other timelines' published keys, or the instant past the run's
    /// limit; its own published key never bounds it.
    #[test]
    fn a_timelines_bound_is_the_smallest_foreign_key() {
        let bounds = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        let bounds2 = Rc::clone(&bounds);
        sim.spawn_task("probe", move |cx| async move {
            let s = cx.sched();
            let log = Rc::default();
            let (a, b) = (Labels::attach(&s, Rc::clone(&log)), Labels::attach(&s, log));
            let (a_id, b_id) = (a.id.get().unwrap(), b.id.get().unwrap());
            let at = SimTime::from_nanos;
            let key = |k: EventKey| (k.time.as_nanos(), k.seq);
            let mut seen = bounds2.borrow_mut();
            // Nothing pending: the instant past the limit.
            seen.push(key(s.bound(a_id)));
            a.add(&s, at(5), "a5");
            seen.push(key(s.bound(a_id)));
            s.call_at(at(9), |_| {});
            b.add(&s, at(7), "b7");
            seen.push(key(s.bound(a_id)));
            seen.push(key(s.bound(b_id)));
        });
        sim.run_until(SimTime::from_nanos(1_000)).unwrap();
        // The task's wake took seq 0, a5 1, the call at 9 2 and b7 3.
        assert_eq!(*bounds.borrow(), [(1_001, 0), (1_001, 0), (7, 3), (5, 1)]);
    }

    #[test]
    fn two_timelines_on_one_kernel_interleave_by_key() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        let log2 = Rc::clone(&log);
        let ids = Rc::new(RefCell::new(Vec::new()));
        let ids2 = Rc::clone(&ids);
        sim.spawn_task("arm", move |cx| async move {
            let s = cx.sched();
            let a = Labels::attach(&s, Rc::clone(&log2));
            let b = Labels::attach(&s, Rc::clone(&log2));
            let at = SimTime::from_nanos;
            b.add(&s, at(7), "b7");
            a.add(&s, at(7), "a7");
            a.add(&s, at(3), "a3");
            s.call_at(at(3), logger(&log2, "h3"));
            b.add(&s, at(3), "b3");
            a.add(&s, at(9), "a9");
            b.add(&s, at(1), "b1");
            ids2.borrow_mut()
                .extend([a.id.get().unwrap(), b.id.get().unwrap()]);
            assert!(s.owns(a.id.get().unwrap()) && s.owns(b.id.get().unwrap()));
            cx.advance(SimDuration::from_nanos(10)).await;
        });
        sim.run().unwrap();
        assert_eq!(
            *log.borrow(),
            ["b1@1", "a3@3", "h3@3", "b3@3", "b7@7", "a7@7", "a9@9"]
        );
        // Kernel ids are never reused: a new kernel owns neither.
        let sim = Sim::new();
        let ids3 = Rc::clone(&ids);
        sim.spawn_task("check", move |cx| async move {
            assert!(ids3.borrow().iter().all(|&id| !cx.sched().owns(id)));
        });
        sim.run().unwrap();
    }
}
