//! The supervisor's check-dead-then-respawn core.
//!
//! [`RespawnCore`] owns the child table; [`RespawnCore::scan`] is one
//! liveness sweep: per child, the dead-check, the reap, the
//! quarantine decision, and the respawn all happen inside a single
//! monitor region, so two concurrent revival paths can never both
//! observe the same corpse and double-spawn it.
//! [`RespawnBug::SplitRespawn`] reintroduces the split — observe in
//! one region, act in another — which the virtualized explorer
//! catches as two live incarnations in one supervised slot.
//!
//! The core is generic over the handle type `H` (production:
//! `std::thread::JoinHandle`), with liveness, reaping, and respawning
//! delegated to caller closures that run *inside* the region — the
//! same lock extent the pre-extraction `monitor_loop` held.

use crate::backend::{Backend, Monitor};

/// Default-off defect knob for the respawn path (negative-suite only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespawnBug {
    None,
    /// The dead-check and the reap/respawn are separate monitor
    /// regions: a second monitor can observe the same dead child and
    /// both respawn it.
    SplitRespawn,
}

/// One supervised slot.
pub struct ChildCell<H> {
    pub handle: Option<H>,
    pub restarts: u32,
    pub quarantined: bool,
}

impl<H> ChildCell<H> {
    pub fn new(handle: Option<H>) -> Self {
        Self {
            handle,
            restarts: 0,
            quarantined: false,
        }
    }
}

pub struct RespawnCore<H: Send, B: Backend> {
    children: B::Monitor<Vec<ChildCell<H>>>,
    bug: RespawnBug,
}

impl<H: Send, B: Backend> RespawnCore<H, B> {
    pub fn new(children: Vec<ChildCell<H>>) -> Self {
        Self::with_bug(children, RespawnBug::None)
    }

    pub fn with_bug(children: Vec<ChildCell<H>>, bug: RespawnBug) -> Self {
        Self {
            children: B::Monitor::new(children),
            bug,
        }
    }

    /// One liveness sweep over every slot.
    ///
    /// Per non-quarantined child: if `is_dead` (or the handle is
    /// absent), the corpse is reaped, then either quarantined (budget
    /// exhausted → `on_quarantine(idx, restarts)`) or respawned
    /// (`respawn(idx, attempt)`, where `attempt` is the new restart
    /// count). `stop()` short-circuits a child mid-sweep. All
    /// closures run with the monitor held; a sweep ends by waking
    /// monitor waiters so blocked observers re-check.
    #[allow(clippy::too_many_arguments)]
    pub fn scan(
        &self,
        stop: impl Fn() -> bool,
        mut is_dead: impl FnMut(&H) -> bool,
        mut reap: impl FnMut(H),
        max_restarts: u32,
        mut respawn: impl FnMut(usize, u32) -> Option<H>,
        mut on_quarantine: impl FnMut(usize, u32),
    ) {
        match self.bug {
            RespawnBug::None => {
                self.children.with(|ch| {
                    for (i, c) in ch.iter_mut().enumerate() {
                        if c.quarantined || stop() {
                            continue;
                        }
                        let dead = match &c.handle {
                            Some(h) => is_dead(h),
                            None => true,
                        };
                        if !dead {
                            continue;
                        }
                        if let Some(h) = c.handle.take() {
                            reap(h);
                        }
                        if c.restarts >= max_restarts {
                            c.quarantined = true;
                            on_quarantine(i, c.restarts);
                            continue;
                        }
                        c.restarts += 1;
                        c.handle = respawn(i, c.restarts);
                    }
                });
            }
            RespawnBug::SplitRespawn => {
                let n = self.children.with(|ch| ch.len());
                for i in 0..n {
                    // Defect region 1: observe liveness.
                    let dead = self.children.with(|ch| {
                        let c = &ch[i];
                        if c.quarantined || stop() {
                            return false;
                        }
                        match &c.handle {
                            Some(h) => is_dead(h),
                            None => true,
                        }
                    });
                    if !dead {
                        continue;
                    }
                    B::sched_point();
                    // Defect region 2: act on the stale observation —
                    // no re-check, so a concurrent scan that already
                    // revived this slot gets revived *again*.
                    self.children.with(|ch| {
                        let c = &mut ch[i];
                        if let Some(h) = c.handle.take() {
                            reap(h);
                        }
                        if c.restarts >= max_restarts {
                            c.quarantined = true;
                            on_quarantine(i, c.restarts);
                            return;
                        }
                        c.restarts += 1;
                        c.handle = respawn(i, c.restarts);
                    });
                }
            }
        }
        self.children.notify_all();
    }

    /// Arbitrary region over the child table (liveness queries,
    /// shutdown reaping).
    pub fn with<R>(&self, f: impl FnOnce(&mut Vec<ChildCell<H>>) -> R) -> R {
        self.children.with(f)
    }

    /// Blocks until `f` yields `Some`; woken by every
    /// [`scan`](Self::scan) and by [`notify`](Self::notify).
    pub fn wait<R>(&self, f: impl FnMut(&mut Vec<ChildCell<H>>) -> Option<R>) -> R {
        self.children.wait_until(f)
    }

    /// Wakes blocked [`RespawnCore::wait`] callers after an
    /// out-of-band table mutation (e.g. a harness killing a child).
    pub fn notify(&self) {
        self.children.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StdBackend;

    struct FakeHandle {
        alive: bool,
    }

    type Core = RespawnCore<FakeHandle, StdBackend>;

    fn scan_once(core: &Core, max: u32, respawned: &mut u32, quarantined: &mut u32) {
        core.scan(
            || false,
            |h| !h.alive,
            drop,
            max,
            |_, _| {
                *respawned += 1;
                Some(FakeHandle { alive: true })
            },
            |_, _| *quarantined += 1,
        );
    }

    #[test]
    fn dead_child_is_respawned_live_child_untouched() {
        let core = Core::new(vec![
            ChildCell::new(Some(FakeHandle { alive: false })),
            ChildCell::new(Some(FakeHandle { alive: true })),
        ]);
        let (mut r, mut q) = (0, 0);
        scan_once(&core, 3, &mut r, &mut q);
        assert_eq!((r, q), (1, 0));
        core.with(|ch| {
            assert_eq!(ch[0].restarts, 1);
            assert!(ch[0].handle.as_ref().unwrap().alive);
            assert_eq!(ch[1].restarts, 0);
        });
    }

    #[test]
    fn missing_handle_counts_as_dead() {
        let core = Core::new(vec![ChildCell::new(None)]);
        let (mut r, mut q) = (0, 0);
        scan_once(&core, 3, &mut r, &mut q);
        assert_eq!(r, 1);
        core.with(|ch| assert!(ch[0].handle.is_some()));
    }

    #[test]
    fn budget_exhaustion_quarantines_exactly_once() {
        let core = Core::new(vec![ChildCell::new(Some(FakeHandle { alive: false }))]);
        let (mut r, mut q) = (0, 0);
        for _ in 0..5 {
            // kill whatever got respawned, then sweep again
            core.with(|ch| {
                if let Some(h) = ch[0].handle.as_mut() {
                    h.alive = false;
                }
            });
            scan_once(&core, 2, &mut r, &mut q);
        }
        assert_eq!(r, 2, "restart budget respected exactly");
        assert_eq!(q, 1, "quarantined once, then left alone");
        core.with(|ch| {
            assert!(ch[0].quarantined);
            assert!(ch[0].handle.is_none());
        });
    }

    #[test]
    fn stop_skips_revival() {
        let core = Core::new(vec![ChildCell::new(Some(FakeHandle { alive: false }))]);
        let (mut r, mut q) = (0, 0);
        core.scan(
            || true,
            |h| !h.alive,
            drop,
            3,
            |_, _| {
                r += 1;
                Some(FakeHandle { alive: true })
            },
            |_, _| q += 1,
        );
        assert_eq!((r, q), (0, 0));
        core.with(|ch| assert!(ch[0].handle.is_some(), "corpse not even reaped"));
    }
}
