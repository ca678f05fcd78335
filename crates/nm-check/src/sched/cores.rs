//! Virtualized harnesses over the *real* `nm-sync` cores.
//!
//! Each function returns a case factory for
//! [`super::virt::explore_virtual`]: per replay it instantiates the
//! production algorithm — the same generic code `nm-serve` / `nm-obs`
//! run with `StdBackend` — with [`VirtualBackend`], drives it from a
//! small cast of virtual threads, and checks the invariant the core
//! exists to uphold. The `bug` parameter threads through each core's
//! default-off defect knob so the negative suite can prove the
//! explorer catches the seeded races in the real code, not in a
//! hand-written mirror of it.
//!
//! Harness bookkeeping (who got dispatched, peak concurrency, probe
//! counts) lives in plain `std` atomics: those are *observations*, not
//! part of the checked algorithm, and must not add scheduling points.

use super::virt::{VirtSpec, VirtualBackend};
use nm_sync::{
    AtomicU64Cell, Backend, BatchQueue, BreakerBank, BreakerBug, BreakerConfig, BreakerState,
    CoalesceBug, ConnGate, DeltaBug, DeltaRing, GateBug, Ranked, RingBug, Slot, SlowRing,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type VB = VirtualBackend;
type Threads = Vec<Box<dyn FnOnce() + Send>>;

// ---------------------------------------------------------------------
// 1. Leader–follower coalescer (nm-serve engine request path)
// ---------------------------------------------------------------------

/// One request riding the queue: its id and the slot it parks on,
/// exactly like the engine's `Pending`.
#[derive(Clone)]
struct Req {
    id: usize,
    slot: Arc<Slot<usize, VB>>,
}

/// `requesters` threads submit one request each into a real
/// [`BatchQueue`]; whoever is elected leader drains batches of
/// `batch_max` and fills every slot, then everyone waits on its own
/// slot. Invariants: each request dispatched exactly once with its own
/// result, leadership released at rest; a lost wakeup surfaces as a
/// deadlock (a follower parked forever).
pub fn coalescer(requesters: usize, batch_max: usize, bug: CoalesceBug) -> impl Fn() -> VirtSpec {
    move || {
        let q: Arc<BatchQueue<Req, VB>> = Arc::new(BatchQueue::with_bug(bug));
        let dispatched: Arc<Vec<AtomicU64>> =
            Arc::new((0..requesters).map(|_| AtomicU64::new(0)).collect());
        let received: Arc<Vec<AtomicU64>> =
            Arc::new((0..requesters).map(|_| AtomicU64::new(0)).collect());
        let threads: Threads = (0..requesters)
            .map(|t| {
                let q = Arc::clone(&q);
                let dispatched = Arc::clone(&dispatched);
                let received = Arc::clone(&received);
                Box::new(move || {
                    let slot = Arc::new(Slot::new());
                    let lead = q.submit(
                        Req {
                            id: t,
                            slot: Arc::clone(&slot),
                        },
                        |_depth| {},
                    );
                    if lead {
                        loop {
                            let batch = q.drain(batch_max);
                            if batch.is_empty() {
                                break;
                            }
                            for r in batch {
                                dispatched[r.id].fetch_add(1, Ordering::Relaxed);
                                r.slot.fill(r.id);
                            }
                        }
                    }
                    let got = slot.wait();
                    received[t].store(got as u64 + 1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        VirtSpec {
            threads,
            final_check: Box::new(move || {
                for (r, d) in dispatched.iter().enumerate() {
                    let n = d.load(Ordering::Relaxed);
                    if n != 1 {
                        return Err(format!(
                            "request {r} dispatched {n} times, expected exactly 1 \
                             (double dispatch)"
                        ));
                    }
                }
                for (r, g) in received.iter().enumerate() {
                    let got = g.load(Ordering::Relaxed);
                    if got != r as u64 + 1 {
                        return Err(format!("request {r} received result {got}, not its own"));
                    }
                }
                if q.leader_active() {
                    return Err("leader_active still set after completion".into());
                }
                if q.depth() != 0 {
                    return Err(format!("{} requests stranded in the queue", q.depth()));
                }
                Ok(())
            }),
        }
    }
}

// ---------------------------------------------------------------------
// 2. Connection-slot gate (nm-serve accept loop)
// ---------------------------------------------------------------------

/// `conns` arrivals race a real [`ConnGate`] with `capacity` slots;
/// losers shed. Invariants: concurrent admissions never exceed the
/// capacity, every arrival is either admitted or shed, and all slots
/// return at rest.
pub fn conn_gate(conns: usize, capacity: usize, bug: GateBug) -> impl Fn() -> VirtSpec {
    move || {
        let g: Arc<ConnGate<VB>> = Arc::new(ConnGate::with_bug(capacity, bug));
        let peak = Arc::new(AtomicU64::new(0));
        let admitted = Arc::new(AtomicU64::new(0));
        let shed = Arc::new(AtomicU64::new(0));
        let threads: Threads = (0..conns)
            .map(|_| {
                let g = Arc::clone(&g);
                let peak = Arc::clone(&peak);
                let admitted = Arc::clone(&admitted);
                let shed = Arc::clone(&shed);
                Box::new(move || {
                    if g.try_acquire() {
                        // Serving the connection: sample the gate's own
                        // occupancy mid-flight (a scheduling point, so
                        // overlapping admissions can land before it).
                        peak.fetch_max(g.active() as u64, Ordering::Relaxed);
                        admitted.fetch_add(1, Ordering::Relaxed);
                        g.release();
                    } else {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        VirtSpec {
            threads,
            final_check: Box::new(move || {
                let cap = g.capacity() as u64;
                let p = peak.load(Ordering::Relaxed);
                if p > cap {
                    return Err(format!(
                        "{p} connections active with capacity {cap} (over-admission)"
                    ));
                }
                let (a, s) = (
                    admitted.load(Ordering::Relaxed),
                    shed.load(Ordering::Relaxed),
                );
                if a + s != conns as u64 {
                    return Err(format!(
                        "admitted {a} + shed {s} != {conns} connections \
                         (shed counter inaccurate)"
                    ));
                }
                if g.active() != 0 {
                    return Err(format!("{} slots held at rest (slot leak)", g.active()));
                }
                Ok(())
            }),
        }
    }
}

// ---------------------------------------------------------------------
// 3. Slowest-N exemplar ring (nm-serve request tracing)
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Ex {
    w: u64,
    id: u64,
}

impl Ranked for Ex {
    fn weight(&self) -> u64 {
        self.w
    }
    fn seq(&self) -> u64 {
        self.id
    }
}

/// `recorders` threads each record one exemplar with a distinct weight
/// into a real [`SlowRing`]. Invariants: the ring never exceeds its
/// capacity and at rest holds exactly the heaviest `capacity` weights.
pub fn exemplar_ring(recorders: usize, capacity: usize, bug: RingBug) -> impl Fn() -> VirtSpec {
    move || {
        let ring: Arc<SlowRing<Ex, VB>> = Arc::new(SlowRing::with_bug(capacity, bug));
        let threads: Threads = (0..recorders)
            .map(|t| {
                let ring = Arc::clone(&ring);
                Box::new(move || {
                    let id = ring.next_seq();
                    ring.record(Ex {
                        w: (t as u64 + 1) * 10,
                        id,
                    });
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        VirtSpec {
            threads,
            final_check: Box::new(move || {
                if ring.len() > ring.capacity() {
                    return Err(format!(
                        "ring holds {} exemplars with capacity {} (over-capacity ring)",
                        ring.len(),
                        ring.capacity()
                    ));
                }
                let mut want: Vec<u64> = (1..=recorders as u64).map(|i| i * 10).collect();
                want.sort_unstable_by(|a, b| b.cmp(a));
                want.truncate(ring.capacity());
                let got: Vec<u64> = ring.snapshot().iter().map(|e| e.w).collect();
                if got != want {
                    return Err(format!(
                        "ring kept weights {got:?}, expected the slowest {want:?} \
                         (lost slowest exemplar)"
                    ));
                }
                Ok(())
            }),
        }
    }
}

// ---------------------------------------------------------------------
// 4. Circuit-breaker half-open probe (nm-serve shard scoring)
// ---------------------------------------------------------------------

/// `requests` threads hit one shard of a real [`BreakerBank`] whose
/// breaker is Open with the cooldown elapsed. Invariants: exactly one
/// probe reaches the sick shard, the successful probe closes the
/// breaker, and every request is accounted for.
pub fn breaker(requests: usize, bug: BreakerBug) -> impl Fn() -> VirtSpec {
    move || {
        let bank: Arc<BreakerBank<VB>> = Arc::new(BreakerBank::with_bug(
            BreakerConfig {
                failure_threshold: 1,
                cooldown_passes: 1,
            },
            bug,
        ));
        // Trip shard 0 open at pass 0; threads admit at pass 1, past
        // the cooldown. Driver-side setup, outside the explored space.
        bank.with(|b| {
            b.on_failure(0, 0);
        });
        let probes = Arc::new(AtomicU64::new(0));
        let allowed = Arc::new(AtomicU64::new(0));
        let skipped = Arc::new(AtomicU64::new(0));
        let threads: Threads = (0..requests)
            .map(|_| {
                let bank = Arc::clone(&bank);
                let probes = Arc::clone(&probes);
                let allowed = Arc::clone(&allowed);
                let skipped = Arc::clone(&skipped);
                Box::new(move || match bank.admit(0, 1).0 {
                    nm_sync::Admission::Probe => {
                        probes.fetch_add(1, Ordering::Relaxed);
                        // The probe pass succeeds.
                        bank.with(|b| {
                            b.on_success(0);
                        });
                    }
                    nm_sync::Admission::Allow => {
                        allowed.fetch_add(1, Ordering::Relaxed);
                    }
                    nm_sync::Admission::Skip => {
                        skipped.fetch_add(1, Ordering::Relaxed);
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        VirtSpec {
            threads,
            final_check: Box::new(move || {
                let p = probes.load(Ordering::Relaxed);
                if p != 1 {
                    return Err(format!(
                        "{p} probes sent to the sick shard, expected exactly 1"
                    ));
                }
                if bank.state(0) != BreakerState::Closed {
                    return Err("breaker not closed after a successful probe".into());
                }
                let (a, s) = (
                    allowed.load(Ordering::Relaxed),
                    skipped.load(Ordering::Relaxed),
                );
                if p + a + s != requests as u64 {
                    return Err(format!(
                        "probes {p} + allowed {a} + skipped {s} != {requests} requests"
                    ));
                }
                Ok(())
            }),
        }
    }
}

// ---------------------------------------------------------------------
// 5. Telemetry sampler ring (nm-obs flight recorder)
// ---------------------------------------------------------------------

/// `writers` threads bump a shared (virtual-atomic) counter while a
/// sampler takes delta ticks through a real [`DeltaRing`]; a final
/// quiescent tick drains the remainder. Invariant: the recorded deltas
/// conserve every increment — nothing vanishes between a tick's
/// snapshot and its watermark advance.
pub fn sampler_ring(writers: usize, incs: u64, ticks: u64, bug: DeltaBug) -> impl Fn() -> VirtSpec {
    move || {
        let counter: Arc<<VB as Backend>::AtomicU64> = Arc::new(AtomicU64Cell::new(0));
        // Capacity covers every tick incl. the quiescent one: eviction
        // is not under test here, conservation is.
        let ring: Arc<DeltaRing<u64, u64, VB>> =
            Arc::new(DeltaRing::with_bug(ticks as usize + 1, 0, bug));
        let mut threads: Threads = Vec::new();
        for _ in 0..writers {
            let counter = Arc::clone(&counter);
            threads.push(Box::new(move || {
                for _ in 0..incs {
                    counter.fetch_add(1);
                }
            }));
        }
        {
            let counter = Arc::clone(&counter);
            let ring = Arc::clone(&ring);
            threads.push(Box::new(move || {
                for _ in 0..ticks {
                    ring.tick_with(|| counter.load(), |prev, cur, _| cur - prev);
                }
            }));
        }
        VirtSpec {
            threads,
            final_check: Box::new(move || {
                // Quiescent drain tick: all writers are done, so after
                // this the watermark equals the final counter and the
                // ring must hold every increment.
                ring.tick_with(|| counter.load(), |prev, cur, _| cur - prev);
                let total = writers as u64 * incs;
                let sum: u64 = ring.ticks().iter().sum();
                if sum != total {
                    return Err(format!(
                        "sampler leaks deltas: ticks sum to {sum} but {total} increments \
                         happened (events lost between snapshot and watermark advance)"
                    ));
                }
                if ring.dropped() != 0 {
                    return Err("ring evicted ticks despite covering capacity".into());
                }
                Ok(())
            }),
        }
    }
}
