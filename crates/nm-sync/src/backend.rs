//! The `SyncBackend` contract and its production implementation.
//!
//! A [`Backend`] supplies the three things a concurrent core is
//! allowed to do: enter a monitor region ([`Monitor::with`]), block on
//! a monitor's condition ([`Monitor::wait_until`] /
//! [`Monitor::wait_deadline`]), and touch lock-free cells
//! ([`AtomicU64Cell`], [`AtomicBoolCell`]). [`Backend::sched_point`]
//! marks a place where *other threads may run* — a no-op in
//! production, a preemption opportunity under nm-check's virtual
//! backend.
//!
//! This file is the only module in `nm-sync` permitted to name
//! `std::sync` / `std::thread` (the `lint/no-raw-sync` rule enforces
//! that); everything the core algorithms do must flow through these
//! traits so the model checker sees every synchronization event.

use std::sync::atomic::Ordering;
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// A fused mutex + condvar over one protected value. Every core in
/// this crate uses at most one condition per mutex, so fusing them
/// keeps the contract small and makes "which condvar pairs with which
/// lock" impossible to get wrong.
pub trait Monitor<T: Send>: Send + Sync {
    fn new(value: T) -> Self;

    /// Runs `f` with the monitor held: one atomic region. Everything
    /// `f` does is invisible-in-part to other threads.
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R;

    /// Blocks until `f` returns `Some`. `f` runs with the monitor
    /// held; between attempts the thread sleeps on the monitor's
    /// condition and is woken by [`Monitor::notify_all`].
    fn wait_until<R>(&self, f: impl FnMut(&mut T) -> Option<R>) -> R;

    /// [`Monitor::wait_until`] with a deadline: between attempts,
    /// `budget()` is consulted — `None` means wait unbounded,
    /// `Some(d)` bounds the next sleep by `d` after first checking
    /// `expired()` (returning `None` overall once expired). The
    /// virtual backend treats bounded waits as unbounded — timeouts
    /// are a liveness escape, not part of the safety contract — and
    /// honours only the deterministic `expired()` predicate.
    fn wait_deadline<R>(
        &self,
        f: impl FnMut(&mut T) -> Option<R>,
        expired: impl FnMut() -> bool,
        budget: impl FnMut() -> Option<Duration>,
    ) -> Option<R>;

    /// Wakes every thread blocked in `wait_until` / `wait_deadline`.
    fn notify_all(&self);
}

/// A monotonically writable 64-bit cell (sequence numbers, ids).
pub trait AtomicU64Cell: Send + Sync {
    fn new(v: u64) -> Self;
    fn load(&self) -> u64;
    fn store(&self, v: u64);
    /// Returns the previous value.
    fn fetch_add(&self, v: u64) -> u64;
}

/// A boolean flag cell (stop/abort signals).
pub trait AtomicBoolCell: Send + Sync {
    fn new(v: bool) -> Self;
    fn load(&self) -> bool;
    fn store(&self, v: bool);
}

/// The full backend a core is generic over.
pub trait Backend: 'static {
    type Monitor<T: Send>: Monitor<T>;
    type AtomicU64: AtomicU64Cell;
    type AtomicBool: AtomicBoolCell;

    /// A scheduling point: other threads may run here. Production is
    /// a no-op (the hardware preempts wherever it likes anyway); the
    /// virtual backend yields to its scheduler so the DFS explorer
    /// can branch.
    fn sched_point();
}

// ---------------------------------------------------------------------------
// StdBackend: the zero-cost production instantiation.
// ---------------------------------------------------------------------------

// Poison-tolerant helpers, shared by every crate that holds a std
// lock: a poisoned lock means another thread panicked while holding
// it. Each critical section in the workspace either completes its
// invariant or leaves state a later caller can safely recompute or
// overwrite (cache entries, queue membership, counters, sink buffers),
// so the right recovery is to adopt the guard and keep going rather
// than spread the panic to every unrelated thread.

/// Locks a mutex, recovering the guard if a previous holder panicked.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks, recovering from poisoning.
pub fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks, recovering from poisoning.
pub fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait that survives poisoning. Safe because every caller
/// re-checks its predicate in a loop (the spurious-wakeup discipline).
pub fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// `std::sync::Mutex` + `Condvar` monitor. `with` compiles to exactly
/// the lock/unlock pair the pre-extraction code wrote by hand.
pub struct StdMonitor<T> {
    mu: Mutex<T>,
    cv: Condvar,
}

impl<T: Send> Monitor<T> for StdMonitor<T> {
    fn new(value: T) -> Self {
        Self {
            mu: Mutex::new(value),
            cv: Condvar::new(),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut lock_recover(&self.mu))
    }

    fn wait_until<R>(&self, mut f: impl FnMut(&mut T) -> Option<R>) -> R {
        let mut g = lock_recover(&self.mu);
        loop {
            if let Some(r) = f(&mut g) {
                return r;
            }
            g = wait_recover(&self.cv, g);
        }
    }

    fn wait_deadline<R>(
        &self,
        mut f: impl FnMut(&mut T) -> Option<R>,
        mut expired: impl FnMut() -> bool,
        mut budget: impl FnMut() -> Option<Duration>,
    ) -> Option<R> {
        let mut g = lock_recover(&self.mu);
        loop {
            if let Some(r) = f(&mut g) {
                return Some(r);
            }
            match budget() {
                None => {
                    g = wait_recover(&self.cv, g);
                }
                Some(b) => {
                    if expired() {
                        return None;
                    }
                    g = match self.cv.wait_timeout(g, b) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            }
        }
    }

    fn notify_all(&self) {
        self.cv.notify_all();
    }
}

pub struct StdAtomicU64(std::sync::atomic::AtomicU64);

impl AtomicU64Cell for StdAtomicU64 {
    fn new(v: u64) -> Self {
        Self(std::sync::atomic::AtomicU64::new(v))
    }
    fn load(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
    fn store(&self, v: u64) {
        self.0.store(v, Ordering::Release)
    }
    fn fetch_add(&self, v: u64) -> u64 {
        self.0.fetch_add(v, Ordering::Relaxed)
    }
}

pub struct StdAtomicBool(std::sync::atomic::AtomicBool);

impl AtomicBoolCell for StdAtomicBool {
    fn new(v: bool) -> Self {
        Self(std::sync::atomic::AtomicBool::new(v))
    }
    fn load(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
    fn store(&self, v: bool) {
        self.0.store(v, Ordering::Release)
    }
}

/// The production backend: plain `std::sync`, no scheduling hooks.
pub struct StdBackend;

impl Backend for StdBackend {
    type Monitor<T: Send> = StdMonitor<T>;
    type AtomicU64 = StdAtomicU64;
    type AtomicBool = StdAtomicBool;

    #[inline(always)]
    fn sched_point() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn monitor_with_is_exclusive() {
        let m = Arc::new(StdMonitor::new(0u64));
        let mut hs = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            hs.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.with(|v| *v += 1);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(m.with(|v| *v), 4000);
    }

    #[test]
    fn wait_until_observes_notify() {
        let m = Arc::new(StdMonitor::new(false));
        let waiter = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.wait_until(|v| v.then_some(42)))
        };
        std::thread::sleep(Duration::from_millis(5));
        m.with(|v| *v = true);
        m.notify_all();
        assert_eq!(waiter.join().unwrap(), 42);
    }

    #[test]
    fn wait_deadline_expires_without_notify() {
        let m = StdMonitor::new(false);
        let start = Instant::now();
        let r: Option<u32> = m.wait_deadline(
            |v| v.then_some(1),
            || start.elapsed() > Duration::from_millis(10),
            || Some(Duration::from_millis(2)),
        );
        assert_eq!(r, None);
    }

    #[test]
    fn wait_deadline_unbounded_budget_blocks_until_notify() {
        let m = Arc::new(StdMonitor::new(false));
        let waiter = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.wait_deadline(|v| v.then_some(7), || false, || None))
        };
        std::thread::sleep(Duration::from_millis(5));
        m.with(|v| *v = true);
        m.notify_all();
        assert_eq!(waiter.join().unwrap(), Some(7));
    }

    #[test]
    fn atomic_cells_roundtrip() {
        let a = StdAtomicU64::new(5);
        assert_eq!(a.fetch_add(3), 5);
        assert_eq!(a.load(), 8);
        a.store(1);
        assert_eq!(a.load(), 1);
        let b = StdAtomicBool::new(false);
        b.store(true);
        assert!(b.load());
    }
}
