//! The virtual `SyncBackend`: model-checking the *real* concurrent
//! cores.
//!
//! `nm-sync`'s cores are generic over [`nm_sync::Backend`]; production
//! instantiates them with `StdBackend` (plain `std::sync`), and this
//! module instantiates the *same algorithm code* with
//! [`VirtualBackend`], whose every blocking operation — monitor
//! acquisition, condition waits, atomic-cell ops, explicit
//! `sched_point`s — yields to a deterministic scheduler instead of the
//! OS. [`explore_virtual`] then enumerates every interleaving of those
//! yield points, depth first, within an optional preemption bound
//! ([`ExploreOpts`]).
//!
//! ## How a schedule runs
//!
//! Each schedule is one *replay*: the case factory builds fresh cores,
//! their threads are spawned as real OS threads, but a token-passing
//! scheduler admits exactly one at a time — a thread runs from one
//! backend operation to the next, then parks and hands the token back.
//! The driver records every decision `(enabled set, chosen index)`;
//! after a clean replay the deepest decision with an unexplored
//! sibling (within the preemption budget) is bumped and the case
//! replays with that prefix script. Identical prefixes reproduce
//! identical enabled sets because the cores themselves are
//! deterministic, so this odometer walk is exactly a DFS over the
//! schedule tree.
//!
//! Blocked-forever states (no runnable thread, some unfinished) are
//! reported as deadlocks — a lost wakeup in the real coalescer
//! surfaces here with no modelling step in between.

use super::{ExploreOpts, Explored, Violation};
use nm_sync::{AtomicBoolCell, AtomicU64Cell, Backend, Monitor};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// One virtualized test case: real-core closures to run as virtual
/// threads plus a post-quiescence invariant. Built fresh per replay by
/// the factory handed to [`explore_virtual`].
pub struct VirtSpec {
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    pub final_check: Box<dyn FnOnce() -> Result<(), String>>,
}

/// Marker tid for the driver thread (constructs cores, runs final
/// checks); its backend operations never yield.
const DRIVER: usize = usize::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Blocked acquiring virtual lock `id`.
    BlockedLock(usize),
    /// Parked on the condition of virtual monitor `id`.
    BlockedCv(usize),
    Done,
}

struct RunState {
    status: Vec<Status>,
    /// The token: which thread may run right now.
    current: Option<usize>,
    /// Virtual lock table (`true` = held), indexed by monitor id.
    locks: Vec<bool>,
    /// Tear the run down: blocked threads unwind with [`VirtAbort`].
    abort: bool,
    /// First unexpected (non-abort) panic payload, as a message.
    panic_msg: Option<String>,
}

struct RunCore {
    state: Mutex<RunState>,
    /// Threads wait here for their turn (`current == Some(tid)`).
    turn: Condvar,
    /// The driver waits here for the token to come back.
    driver: Condvar,
}

/// Panic payload used to unwind blocked virtual threads at teardown;
/// swallowed by the thread wrapper and silenced in the panic hook.
struct VirtAbort;

#[derive(Clone)]
struct Ctx {
    run: Arc<RunCore>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(v: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = v);
}

fn lockst(run: &RunCore) -> MutexGuard<'_, RunState> {
    run.state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Silences the teardown panics ([`VirtAbort`]) process-wide; real
/// panics still reach the previous hook.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<VirtAbort>() {
                prev(info);
            }
        }));
    });
}

/// Parks until the scheduler grants `tid` the token (or the run
/// aborts, in which case the thread unwinds).
fn wait_for_turn<'a>(
    run: &'a RunCore,
    mut st: MutexGuard<'a, RunState>,
    tid: usize,
) -> MutexGuard<'a, RunState> {
    loop {
        if st.abort {
            drop(st);
            std::panic::panic_any(VirtAbort);
        }
        if st.current == Some(tid) {
            return st;
        }
        st = run
            .turn
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// A plain scheduling point: mark runnable, return the token, wait to
/// be granted again.
fn vyield(run: &RunCore, tid: usize) {
    let mut st = lockst(run);
    st.status[tid] = Status::Runnable;
    st.current = None;
    run.driver.notify_all();
    let _st = wait_for_turn(run, st, tid);
}

/// Acquires virtual lock `id`. The acquisition is itself a scheduling
/// point (other threads may run before the lock is taken), and the
/// thread blocks — invisible to the enabled set — while the lock is
/// held elsewhere.
fn vacquire(run: &RunCore, tid: usize, id: usize) {
    let mut st = lockst(run);
    st.status[tid] = Status::Runnable;
    st.current = None;
    run.driver.notify_all();
    st = wait_for_turn(run, st, tid);
    loop {
        if !st.locks[id] {
            st.locks[id] = true;
            return;
        }
        st.status[tid] = Status::BlockedLock(id);
        st.current = None;
        run.driver.notify_all();
        st = wait_for_turn(run, st, tid);
    }
}

fn unblock_lock_waiters(st: &mut RunState, id: usize) {
    for s in st.status.iter_mut() {
        if *s == Status::BlockedLock(id) {
            *s = Status::Runnable;
        }
    }
}

/// Releases virtual lock `id` without yielding: the release is the
/// tail of the holder's current step, so one lock region is one step.
fn vrelease(run: &RunCore, id: usize) {
    let mut st = lockst(run);
    st.locks[id] = false;
    unblock_lock_waiters(&mut st, id);
}

/// Atomically releases lock `id` and parks on monitor `id`'s
/// condition; on wakeup, re-acquires the lock before returning.
fn vcv_wait(run: &RunCore, tid: usize, id: usize) {
    let mut st = lockst(run);
    st.locks[id] = false;
    unblock_lock_waiters(&mut st, id);
    st.status[tid] = Status::BlockedCv(id);
    st.current = None;
    run.driver.notify_all();
    st = wait_for_turn(run, st, tid);
    loop {
        if !st.locks[id] {
            st.locks[id] = true;
            return;
        }
        st.status[tid] = Status::BlockedLock(id);
        st.current = None;
        run.driver.notify_all();
        st = wait_for_turn(run, st, tid);
    }
}

fn vnotify_all(run: &RunCore, id: usize) {
    let mut st = lockst(run);
    for s in st.status.iter_mut() {
        if *s == Status::BlockedCv(id) {
            *s = Status::Runnable;
        }
    }
}

/// Yield point for atomic-cell ops and `sched_point` — a no-op off the
/// virtual threads (driver construction, final checks, stray use
/// outside a run).
fn vpoint() {
    if let Some(c) = ctx() {
        if c.tid != DRIVER {
            vyield(&c.run, c.tid);
        }
    }
}

// ---------------------------------------------------------------------
// The virtual backend types
// ---------------------------------------------------------------------

/// A monitor whose region entries and condition waits are scheduling
/// points. Outside a virtual run (no thread-local scheduler — e.g.
/// plain unit tests) it degrades to exact `StdMonitor` behavior.
pub struct VMonitor<T> {
    data: Mutex<T>,
    cv: Condvar,
    /// Present when constructed under a run: the owning scheduler and
    /// this monitor's virtual lock id.
    virt: Option<(Arc<RunCore>, usize)>,
}

impl<T> VMonitor<T> {
    fn data(&self) -> MutexGuard<'_, T> {
        self.data
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The scheduler context to use for this call: requires the monitor
    /// to belong to the calling thread's run (a virtual thread, not the
    /// driver).
    fn sched(&self) -> Option<(&Arc<RunCore>, usize, usize)> {
        let (run, id) = self.virt.as_ref()?;
        let c = ctx()?;
        (c.tid != DRIVER && Arc::ptr_eq(run, &c.run)).then_some((run, *id, c.tid))
    }
}

impl<T: Send> Monitor<T> for VMonitor<T> {
    fn new(value: T) -> Self {
        let virt = ctx().map(|c| {
            let mut st = lockst(&c.run);
            let id = st.locks.len();
            st.locks.push(false);
            (Arc::clone(&c.run), id)
        });
        Self {
            data: Mutex::new(value),
            cv: Condvar::new(),
            virt,
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        match self.sched() {
            Some((run, id, tid)) => {
                vacquire(run, tid, id);
                let r = f(&mut self.data());
                vrelease(run, id);
                r
            }
            None => f(&mut self.data()),
        }
    }

    fn wait_until<R>(&self, mut f: impl FnMut(&mut T) -> Option<R>) -> R {
        match self.sched() {
            Some((run, id, tid)) => {
                vacquire(run, tid, id);
                loop {
                    if let Some(r) = f(&mut self.data()) {
                        vrelease(run, id);
                        return r;
                    }
                    vcv_wait(run, tid, id);
                }
            }
            None => {
                let mut g = self.data();
                loop {
                    if let Some(r) = f(&mut g) {
                        return r;
                    }
                    g = self
                        .cv
                        .wait(g)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }

    fn wait_deadline<R>(
        &self,
        mut f: impl FnMut(&mut T) -> Option<R>,
        mut expired: impl FnMut() -> bool,
        mut budget: impl FnMut() -> Option<Duration>,
    ) -> Option<R> {
        match self.sched() {
            Some((run, id, tid)) => {
                // Bounded waits are treated as unbounded — a timeout is
                // a liveness escape, and modelling it would hide every
                // lost wakeup behind "the deadline saved us". Only the
                // deterministic expired() predicate is honoured.
                vacquire(run, tid, id);
                loop {
                    if let Some(r) = f(&mut self.data()) {
                        vrelease(run, id);
                        return Some(r);
                    }
                    if budget().is_some() && expired() {
                        vrelease(run, id);
                        return None;
                    }
                    vcv_wait(run, tid, id);
                }
            }
            None => {
                let mut g = self.data();
                loop {
                    if let Some(r) = f(&mut g) {
                        return Some(r);
                    }
                    match budget() {
                        None => {
                            g = self
                                .cv
                                .wait(g)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
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
        }
    }

    fn notify_all(&self) {
        if let Some((run, id)) = &self.virt {
            vnotify_all(run, *id);
        }
        self.cv.notify_all();
    }
}

/// An atomic u64 cell where every operation is a scheduling point —
/// the op itself stays atomic, but *where it lands* between other
/// threads' steps is explored.
pub struct VAtomicU64(std::sync::atomic::AtomicU64);

impl AtomicU64Cell for VAtomicU64 {
    fn new(v: u64) -> Self {
        Self(std::sync::atomic::AtomicU64::new(v))
    }
    fn load(&self) -> u64 {
        vpoint();
        self.0.load(Ordering::Acquire)
    }
    fn store(&self, v: u64) {
        vpoint();
        self.0.store(v, Ordering::Release)
    }
    fn fetch_add(&self, v: u64) -> u64 {
        vpoint();
        self.0.fetch_add(v, Ordering::Relaxed)
    }
}

pub struct VAtomicBool(std::sync::atomic::AtomicBool);

impl AtomicBoolCell for VAtomicBool {
    fn new(v: bool) -> Self {
        Self(std::sync::atomic::AtomicBool::new(v))
    }
    fn load(&self) -> bool {
        vpoint();
        self.0.load(Ordering::Acquire)
    }
    fn store(&self, v: bool) {
        vpoint();
        self.0.store(v, Ordering::Release)
    }
}

/// The model-checking backend: instantiate any `nm-sync` core with
/// this and its real synchronization becomes explorable.
pub struct VirtualBackend;

impl Backend for VirtualBackend {
    type Monitor<T: Send> = VMonitor<T>;
    type AtomicU64 = VAtomicU64;
    type AtomicBool = VAtomicBool;

    fn sched_point() {
        vpoint();
    }
}

// ---------------------------------------------------------------------
// The replay driver
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Decision {
    /// Runnable tids at this point, ascending.
    enabled: Vec<usize>,
    /// Index into `enabled` that was taken.
    chosen: usize,
    /// Taking it switched away from a still-runnable previous thread.
    preempted: bool,
}

struct RunOutcome {
    decisions: Vec<Decision>,
    violation: Option<Violation>,
}

fn schedule_of(decisions: &[Decision]) -> Vec<usize> {
    decisions.iter().map(|d| d.enabled[d.chosen]).collect()
}

/// Runs one replay: choices follow `script` while it lasts, then the
/// leftmost within-budget child at every later decision (in-order DFS
/// default).
fn run_once(mk: &dyn Fn() -> VirtSpec, script: &[usize], bound: Option<u32>) -> RunOutcome {
    let run = Arc::new(RunCore {
        state: Mutex::new(RunState {
            status: Vec::new(),
            current: None,
            locks: Vec::new(),
            abort: false,
            panic_msg: None,
        }),
        turn: Condvar::new(),
        driver: Condvar::new(),
    });
    // Driver context: monitors built by the factory register their
    // lock ids here; driver-side ops never yield.
    set_ctx(Some(Ctx {
        run: Arc::clone(&run),
        tid: DRIVER,
    }));
    let VirtSpec {
        threads,
        final_check,
    } = mk();
    let n = threads.len();
    lockst(&run).status = vec![Status::Runnable; n];

    let handles: Vec<_> = threads
        .into_iter()
        .enumerate()
        .map(|(tid, f)| {
            let run = Arc::clone(&run);
            std::thread::spawn(move || {
                set_ctx(Some(Ctx {
                    run: Arc::clone(&run),
                    tid,
                }));
                // Park until first scheduled: not a single
                // instruction of the case runs unordered.
                {
                    let st = lockst(&run);
                    let _st = wait_for_turn(&run, st, tid);
                }
                let r = catch_unwind(AssertUnwindSafe(f));
                let mut st = lockst(&run);
                st.status[tid] = Status::Done;
                if st.current == Some(tid) {
                    st.current = None;
                }
                if let Err(p) = r {
                    if !p.is::<VirtAbort>() && st.panic_msg.is_none() {
                        let msg = p
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| p.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "panic".to_string());
                        st.panic_msg = Some(msg);
                        st.abort = true;
                    }
                }
                run.turn.notify_all();
                run.driver.notify_all();
                set_ctx(None);
            })
        })
        .collect();

    let mut decisions: Vec<Decision> = Vec::new();
    let mut last: Option<usize> = None;
    let mut preemptions: u32 = 0;
    let mut violation: Option<Violation> = None;
    let mut completed = false;
    loop {
        let mut st = lockst(&run);
        while st.current.is_some() && !st.abort {
            st = run
                .driver
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.abort {
            let msg = st.panic_msg.take().unwrap_or_else(|| "panic".to_string());
            violation = Some(Violation {
                schedule: schedule_of(&decisions),
                message: format!("invariant violation: {msg}"),
            });
            run.turn.notify_all();
            break;
        }
        let enabled: Vec<usize> = (0..n)
            .filter(|&t| st.status[t] == Status::Runnable)
            .collect();
        if enabled.is_empty() {
            if st.status.iter().all(|s| *s == Status::Done) {
                completed = true;
            } else {
                let stuck: Vec<usize> = (0..n).filter(|&t| st.status[t] != Status::Done).collect();
                violation = Some(Violation {
                    schedule: schedule_of(&decisions),
                    message: format!(
                        "deadlock / lost wakeup: threads {stuck:?} blocked forever with no \
                         runnable thread"
                    ),
                });
                st.abort = true;
                run.turn.notify_all();
            }
            break;
        }
        let k = decisions.len();
        let chosen = if k < script.len() {
            // Replaying a recorded prefix: same prefix, same enabled
            // set (the cores are deterministic), so the index is valid;
            // min() is a belt against a nondeterministic case.
            script[k].min(enabled.len() - 1)
        } else {
            // In-order DFS default: the lowest-index child within the
            // preemption budget. One always exists — continuing a
            // runnable `last` is free, and if `last` is not enabled no
            // choice preempts.
            (0..enabled.len())
                .find(|&j| {
                    let cost = match last {
                        Some(l) => u32::from(l != enabled[j] && enabled.contains(&l)),
                        None => 0,
                    };
                    bound.is_none_or(|b| preemptions + cost <= b)
                })
                .unwrap_or(0)
        };
        let tid = enabled[chosen];
        let preempted = match last {
            Some(l) => l != tid && enabled.contains(&l),
            None => false,
        };
        preemptions += u32::from(preempted);
        decisions.push(Decision {
            enabled,
            chosen,
            preempted,
        });
        last = Some(tid);
        st.current = Some(tid);
        run.turn.notify_all();
    }

    for h in handles {
        let _ = h.join();
    }
    if completed && violation.is_none() {
        if let Err(msg) = final_check() {
            violation = Some(Violation {
                schedule: schedule_of(&decisions),
                message: format!("final-state violation: {msg}"),
            });
        }
    }
    set_ctx(None);
    RunOutcome {
        decisions,
        violation,
    }
}

/// The odometer bump: the deepest decision with an unexplored sibling
/// whose choice stays within the preemption budget. The suffix beyond
/// the returned script is filled in by the driver's leftmost-feasible
/// default, which adds no preemptions beyond its own per-step cost —
/// so feasibility at the bump point is the whole bound check.
fn next_script(decisions: &[Decision], bound: Option<u32>) -> Option<Vec<usize>> {
    let mut pre = Vec::with_capacity(decisions.len() + 1);
    pre.push(0u32);
    for d in decisions {
        pre.push(pre.last().copied().unwrap_or(0) + u32::from(d.preempted));
    }
    for k in (0..decisions.len()).rev() {
        let d = &decisions[k];
        let last = k
            .checked_sub(1)
            .map(|i| decisions[i].enabled[decisions[i].chosen]);
        for j in (d.chosen + 1)..d.enabled.len() {
            let cost = match last {
                Some(l) => u32::from(l != d.enabled[j] && d.enabled.contains(&l)),
                None => 0,
            };
            if bound.is_none_or(|b| pre[k] + cost <= b) {
                let mut s: Vec<usize> = decisions[..k].iter().map(|d| d.chosen).collect();
                s.push(j);
                return Some(s);
            }
        }
    }
    None
}

/// Explores every schedule of the case built by `mk`, returning the
/// first violation and the number of complete schedules run. `mk` is
/// invoked once per replay and must build an equivalent case each time
/// (fresh cores, same structure).
pub fn explore_virtual(mk: impl Fn() -> VirtSpec, opts: &ExploreOpts) -> Explored {
    install_quiet_hook();
    let mk: &dyn Fn() -> VirtSpec = &mk;
    let mut out = Explored {
        schedules: 0,
        truncated: false,
        violation: None,
    };
    let mut script: Vec<usize> = Vec::new();
    loop {
        let run = run_once(mk, &script, opts.preemption_bound);
        out.schedules += 1;
        if let Some(v) = run.violation {
            out.violation = Some(v);
            return out;
        }
        let next = next_script(&run.decisions, opts.preemption_bound);
        if out.schedules >= opts.max_schedules {
            out.truncated = next.is_some();
            return out;
        }
        match next {
            Some(s) => script = s,
            None => return out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Two threads, one scheduled atomic op each (plus the entry step):
    /// two threads x two steps interleave in exactly C(4, 2) ways.
    #[test]
    fn counts_interleavings_exactly() {
        let r = explore_virtual(
            || {
                let a: Arc<VAtomicU64> = Arc::new(AtomicU64Cell::new(0));
                let threads: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                    .map(|_| {
                        let a = Arc::clone(&a);
                        Box::new(move || {
                            a.fetch_add(1);
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                VirtSpec {
                    threads,
                    final_check: Box::new(move || {
                        if a.load() == 2 {
                            Ok(())
                        } else {
                            Err(format!("counter = {}, expected 2", a.load()))
                        }
                    }),
                }
            },
            &ExploreOpts::default(),
        );
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(!r.truncated);
        // Each thread takes 2 grants (entry -> yield-at-op, op -> done):
        // C(4, 2) = 6 interleavings.
        assert_eq!(r.schedules, 6);
    }

    #[test]
    fn preemption_bound_zero_runs_each_thread_to_completion() {
        let r = explore_virtual(
            || {
                let a: Arc<VAtomicU64> = Arc::new(AtomicU64Cell::new(0));
                let threads: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                    .map(|_| {
                        let a = Arc::clone(&a);
                        Box::new(move || {
                            a.fetch_add(1);
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                VirtSpec {
                    threads,
                    final_check: Box::new(|| Ok(())),
                }
            },
            &ExploreOpts {
                preemption_bound: Some(0),
                ..Default::default()
            },
        );
        assert_eq!(r.schedules, 2, "AB and BA only");
    }

    /// A torn read-modify-write over a shared cell (load in one step,
    /// store in another) must lose an update in some schedule.
    #[test]
    fn torn_rmw_loses_an_update() {
        let r = explore_virtual(
            || {
                let a: Arc<VAtomicU64> = Arc::new(AtomicU64Cell::new(0));
                let threads: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                    .map(|_| {
                        let a = Arc::clone(&a);
                        Box::new(move || {
                            let v = a.load();
                            a.store(v + 1);
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                VirtSpec {
                    threads,
                    final_check: Box::new(move || {
                        let v = a.load();
                        if v == 2 {
                            Ok(())
                        } else {
                            Err(format!("counter = {v}, expected 2 (lost update)"))
                        }
                    }),
                }
            },
            &ExploreOpts::default(),
        );
        let v = r.violation.expect("lost update must surface");
        assert!(v.message.contains("final-state violation"), "{}", v.message);
        assert!(v.message.contains("lost update"), "{}", v.message);
    }

    /// The same RMW inside one monitor region is race-free across every
    /// schedule.
    #[test]
    fn monitor_region_makes_rmw_atomic() {
        let r = explore_virtual(
            || {
                let m: Arc<VMonitor<u64>> = Arc::new(Monitor::new(0));
                let threads: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                    .map(|_| {
                        let m = Arc::clone(&m);
                        Box::new(move || {
                            m.with(|v| *v += 1);
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                VirtSpec {
                    threads,
                    final_check: Box::new(move || {
                        let v = m.with(|v| *v);
                        if v == 2 {
                            Ok(())
                        } else {
                            Err(format!("counter = {v}, expected 2"))
                        }
                    }),
                }
            },
            &ExploreOpts::default(),
        );
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.schedules > 1, "lock contention must branch the tree");
    }

    /// A waiter nobody ever notifies is a deadlock, reported with the
    /// blocked thread ids.
    #[test]
    fn unnotified_wait_is_a_deadlock() {
        let r = explore_virtual(
            || {
                let m: Arc<VMonitor<bool>> = Arc::new(Monitor::new(false));
                let threads: Vec<Box<dyn FnOnce() + Send>> = vec![{
                    let m = Arc::clone(&m);
                    Box::new(move || {
                        m.wait_until(|v| v.then_some(()));
                    })
                }];
                VirtSpec {
                    threads,
                    final_check: Box::new(|| Ok(())),
                }
            },
            &ExploreOpts::default(),
        );
        let v = r.violation.expect("deadlock must surface");
        assert!(
            v.message.contains("deadlock / lost wakeup"),
            "{}",
            v.message
        );
        assert!(v.message.contains("[0]"), "{}", v.message);
    }

    /// wait_until / notify_all handoff completes in every schedule.
    #[test]
    fn wait_and_notify_handoff_is_clean() {
        let r = explore_virtual(
            || {
                let m: Arc<VMonitor<bool>> = Arc::new(Monitor::new(false));
                let got: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
                let waiter = {
                    let m = Arc::clone(&m);
                    let got = Arc::clone(&got);
                    Box::new(move || {
                        m.wait_until(|v| v.then_some(()));
                        got.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                };
                let setter = {
                    let m = Arc::clone(&m);
                    Box::new(move || {
                        m.with(|v| *v = true);
                        m.notify_all();
                    }) as Box<dyn FnOnce() + Send>
                };
                VirtSpec {
                    threads: vec![waiter, setter],
                    final_check: Box::new(move || {
                        if got.load(Ordering::Relaxed) == 1 {
                            Ok(())
                        } else {
                            Err("waiter never woke".to_string())
                        }
                    }),
                }
            },
            &ExploreOpts::default(),
        );
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.schedules >= 2);
    }

    /// Outside a run the virtual monitor degrades to std behavior.
    #[test]
    fn direct_mode_without_scheduler_context() {
        let m: VMonitor<u32> = Monitor::new(5);
        assert_eq!(m.with(|v| *v), 5);
        assert_eq!(m.wait_until(|v| Some(*v)), 5);
        let a: VAtomicU64 = AtomicU64Cell::new(1);
        assert_eq!(a.fetch_add(2), 1);
        assert_eq!(a.load(), 3);
        let b: VAtomicBool = AtomicBoolCell::new(false);
        b.store(true);
        assert!(b.load());
    }
}
