//! # nm-sync
//!
//! The workspace's concurrent cores — the leader–follower batch
//! coalescer, connection-slot semaphore, slowest-N exemplar ring,
//! circuit-breaker bank, and telemetry delta-sampler ring — written
//! once as *generic* algorithms over a [`Backend`] trait.
//!
//! Production (`nm-serve`, `nm-obs`) instantiates every core with the
//! zero-cost [`StdBackend`], whose monitor is a plain
//! `std::sync::Mutex` + `Condvar` pair with the workspace's
//! poison-tolerant lock discipline. `nm-check` instantiates the *same
//! algorithm code* with a virtual backend whose lock acquisitions,
//! condvar waits, and atomic operations are scheduling points for its
//! mini-loom DFS explorer — so the schedule space that gets model
//! checked is the schedule space of the shipping code, not of a
//! hand-written mirror.
//!
//! Every core carries an always-compiled, default-off *defect knob*
//! (the same style as `nm-serve`'s chaos injection): a constructor
//! that reintroduces the exact concurrency bug the algorithm is
//! written to avoid. The negative suite in `nm-check` proves the
//! virtualized explorer catches each knob in the real core.
//!
//! Inside the core modules all blocking and shared-state access MUST
//! flow through the backend: the workspace lint bans `std::sync` /
//! `std::thread` tokens in every `nm-sync` source file except
//! `backend.rs` (enforced by `lint/no-raw-sync`), so checker coverage
//! cannot silently erode.

pub mod backend;
pub mod breaker;
pub mod coalesce;
pub mod deltaring;
pub mod semaphore;
pub mod slowring;

pub use backend::{AtomicBoolCell, AtomicU64Cell, Backend, Monitor, StdBackend};
pub use breaker::{
    Admission, BreakerBank, BreakerBug, BreakerConfig, BreakerState, ShardBreakers, Transition,
};
pub use coalesce::{BatchQueue, CoalesceBug, Slot};
pub use deltaring::{DeltaBug, DeltaRing};
pub use semaphore::{ConnGate, GateBug};
pub use slowring::{Ranked, RingBug, SlowRing};
