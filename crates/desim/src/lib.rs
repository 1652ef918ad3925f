#![warn(missing_docs)]

//! # desim — deterministic discrete-event simulation kernel
//!
//! A small discrete-event kernel with *pooled continuation tasks* and a
//! strictly serialized scheduler: at any host instant, exactly one
//! simulated task (or kernel closure) is running, and the next runnable
//! entity is always chosen from a single event queue ordered by `(virtual
//! time, insertion sequence)`. Execution is therefore fully deterministic
//! — the same program produces the same event trace on every run.
//!
//! The design follows the SimGrid school of network simulators: simulated
//! actors are written in sequential style (`send`, `recv`, `advance`) as
//! `async` bodies whose blocking points suspend a stackless state machine,
//! and the kernel's dispatch loop resumes them as virtual time progresses.
//!
//! ## Quick example
//!
//! ```
//! use desim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let (tx, rx) = desim::completion::<u32>();
//! sim.spawn_task("producer", move |cx| async move {
//!     cx.advance(SimDuration::from_millis(5)).await;
//!     tx.fire_from(&cx.sched(), 42);
//! });
//! sim.spawn_task("consumer", move |cx| async move {
//!     let v = cx.wait(rx).await;
//!     assert_eq!(v, 42);
//!     assert_eq!(cx.now().as_millis(), 5);
//! });
//! let end = sim.run().unwrap();
//! assert_eq!(end.as_millis(), 5);
//! ```

mod completion;
pub mod exec;
pub mod fault;
mod kernel;
pub mod obs;
pub mod prop;
mod sync;
mod time;

pub use completion::{completion, Completion, Trigger};
pub use exec::{Cx, TaskId};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use kernel::{EventKey, RunStats, Sched, Sim, SimError, Timeline, TimelineId};
pub use obs::analysis::{Analysis, Collector, CriticalPath, FlowBlame, MessageBlame, RankProfile};
pub use obs::{DigestSink, DigestValue, Event, Metrics, Obs, Recorder, RingSink, Tee};
pub use obs::{HostProfiler, ProfKey, StreamHist, TimeSeries, TimeSeriesSink, Windowed};
pub use time::{SimDuration, SimTime};
