//! # irs-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the lowest substrate of the `irs-sched` reproduction of
//! *Scheduler Activations for Interference-Resilient SMP Virtual Machine
//! Scheduling* (Middleware '17). The paper's evaluation runs on a physical
//! Xen testbed; we reproduce the two-level scheduling dynamics on a
//! discrete-event simulator instead, so every higher layer (the Xen-like
//! hypervisor, the Linux-like guest, the workloads) needs a common notion of
//! **virtual time**, a time-ordered **event queue** with cancellation by
//! handle, and **seeded randomness** so that every experiment is
//! exactly reproducible.
//!
//! The kernel is intentionally tiny and allocation-light:
//!
//! * [`SimTime`] — a nanosecond-resolution instant on the virtual timeline.
//! * [`EventQueue`] — a monotonic priority queue of `(SimTime, payload)`
//!   entries with stable FIFO ordering for simultaneous events; an
//!   [`EventId`] cancels its entry by looking it up in the one bucket its
//!   time maps to.
//! * [`SimRng`] — a small, fast, seedable RNG wrapper with the handful of
//!   distributions the workload models need.
//! * [`trace`] — an optional bounded in-memory trace ring used by tests and
//!   the debugging tooling.
//!
//! # Example
//!
//! ```
//! use irs_sim::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_millis(30), "slice expiry");
//! let cancel_me = q.schedule(SimTime::from_millis(10), "tick");
//! q.cancel(cancel_me);
//! let (at, what) = q.pop().expect("one live event");
//! assert_eq!(at, SimTime::from_millis(30));
//! assert_eq!(what, "slice expiry");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod rng;
mod time;
pub mod trace;

pub use event::{EventId, EventQueue};
pub use rng::SimRng;
pub use time::SimTime;
