//! Deterministic serve-side fault injection (the `ChaosPlan` of
//! DESIGN.md "Failure model & degraded modes").
//!
//! Training already has a seeded `FaultPlan` (kill-at-boundary, torn
//! write, bitflip); this module is its serving counterpart. Every
//! fault class is drawn from a seeded hash over *stable coordinates*
//! of the injection site — `(site, a, b, c)` tuples like
//! `(shard-fault, pass, shard, attempt)` — never from execution order,
//! so the fault schedule is identical across runs and independent of
//! thread interleaving: same seed ⇒ same faults ⇒ same degraded
//! responses. Rates are in permille (0 disables a class; 1000 fires
//! always).
//!
//! Fault classes:
//!
//! * **worker panic** — a scoring job panics mid-shard; the shard's
//!   latch guard still counts it down, and the worker or batch leader
//!   that ran the job catches the panic and goes on serving;
//! * **shard stall** — a shard claim fails without doing work
//!   (modelling a wedged/slow shard, clock-free: no real sleep);
//! * **torn write / torn read** — a connection's response is cut mid
//!   frame / a request frame arrives truncated;
//! * **reload failure** — a snapshot reload is rejected, exercising
//!   the last-good-snapshot fallback;
//! * **deadline expiry** — a request's deadline is forced to be
//!   already expired (clock-free timeout), exercising the stale-cache
//!   and unavailable degraded modes.

use nm_obs::Counter;
use std::sync::Arc;
use std::time::Duration;

/// Seeded fault-injection plan for the serve path. All rates are
/// permille (x/1000 of draws at that site fire).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    pub seed: u64,
    /// A claimed shard's scoring job panics.
    pub worker_panic_permille: u32,
    /// A claimed shard fails without scoring (wedged shard).
    pub shard_stall_permille: u32,
    /// A response frame is cut mid-write and the connection closed.
    pub torn_write_permille: u32,
    /// A request frame is truncated before parsing.
    pub torn_read_permille: u32,
    /// A snapshot reload is rejected (last-good stays live).
    pub reload_fail_permille: u32,
    /// A request's deadline is forced to be already expired.
    pub deadline_expire_permille: u32,
}

impl ChaosConfig {
    /// True when at least one fault class can fire.
    pub fn enabled(&self) -> bool {
        self.worker_panic_permille
            + self.shard_stall_permille
            + self.torn_write_permille
            + self.torn_read_permille
            + self.reload_fail_permille
            + self.deadline_expire_permille
            > 0
    }
}

/// Injection-site tags: part of the draw coordinates, so two fault
/// classes at the same site draw independently.
const SITE_WORKER_PANIC: u64 = 1;
const SITE_SHARD_STALL: u64 = 2;
const SITE_TORN_WRITE: u64 = 3;
const SITE_TORN_READ: u64 = 4;
const SITE_RELOAD_FAIL: u64 = 5;
const SITE_DEADLINE: u64 = 6;

/// SplitMix64 finalizer: a cheap, well-mixed hash for draw decisions.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Deterministic permille draw keyed on `(seed, site, a, b, c)`.
#[inline]
fn draw_permille(seed: u64, site: u64, a: u64, b: u64, c: u64) -> u32 {
    let h = mix(seed.wrapping_mul(0x9e3779b97f4a7c15)
        ^ mix(site)
        ^ mix(a).rotate_left(17)
        ^ mix(b).rotate_left(31)
        ^ mix(c).rotate_left(47));
    (h % 1000) as u32
}

/// Deterministic exponential backoff with seeded jitter: attempt 1 ⇒
/// `base`, attempt 2 ⇒ `2·base`, … capped at `cap`, plus a jitter of
/// up to half the step keyed on `(seed, salt, attempt)` so retry
/// schedules are reproducible yet de-synchronized across sites.
pub fn seeded_backoff(
    base: Duration,
    cap: Duration,
    attempt: u32,
    seed: u64,
    salt: u64,
) -> Duration {
    let base_us = base.as_micros().min(u64::MAX as u128) as u64;
    let cap_us = cap.as_micros().min(u64::MAX as u128) as u64;
    let step = base_us
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
        .min(cap_us)
        .max(1);
    let jitter = mix(seed ^ mix(salt) ^ mix(attempt as u64)) % (step / 2 + 1);
    Duration::from_micros(step.saturating_add(jitter).min(cap_us))
}

/// The runtime half of a [`ChaosConfig`]: draws faults and counts
/// every injection in the shared metrics registry (`chaos.injected.*`)
/// plus a typed `chaos.inject` trace event per firing.
#[derive(Debug)]
pub struct Chaos {
    cfg: ChaosConfig,
    pub total: Arc<Counter>,
    pub worker_panics: Arc<Counter>,
    pub shard_stalls: Arc<Counter>,
    pub torn_writes: Arc<Counter>,
    pub torn_reads: Arc<Counter>,
    pub reload_fails: Arc<Counter>,
    pub deadline_expiries: Arc<Counter>,
}

impl Chaos {
    /// Wires the injection counters into `registry` (the engine's
    /// stats registry, so `{"op":"obs"}` exposes them).
    pub fn new(cfg: ChaosConfig, registry: &nm_obs::Registry) -> Self {
        Self {
            cfg,
            total: registry.counter("chaos.injected.total"),
            worker_panics: registry.counter("chaos.injected.worker_panic"),
            shard_stalls: registry.counter("chaos.injected.shard_stall"),
            torn_writes: registry.counter("chaos.injected.torn_write"),
            torn_reads: registry.counter("chaos.injected.torn_read"),
            reload_fails: registry.counter("chaos.injected.reload_fail"),
            deadline_expiries: registry.counter("chaos.injected.deadline_expire"),
        }
    }

    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    #[allow(clippy::too_many_arguments)] // one draw site, three coordinates
    fn fire(&self, rate: u32, site: u64, kind: &str, c: &Counter, a: u64, b: u64, d: u64) -> bool {
        if rate == 0 || draw_permille(self.cfg.seed, site, a, b, d) >= rate {
            return false;
        }
        c.inc();
        self.total.inc();
        nm_obs::trace::event("chaos.inject", |e| {
            e.s("kind", kind).u("a", a).u("b", b).u("c", d);
        });
        true
    }

    /// Shard-fault draw: should the job claiming shard `shard` of
    /// scoring pass `pass` (retry `attempt`) panic?
    pub fn worker_panic(&self, domain: usize, pass: u64, shard: usize, attempt: u32) -> bool {
        self.fire(
            self.cfg.worker_panic_permille,
            SITE_WORKER_PANIC ^ ((domain as u64) << 8),
            "worker_panic",
            &self.worker_panics,
            pass,
            shard as u64,
            attempt as u64,
        )
    }

    /// Shard-fault draw: should this shard claim stall (fail without
    /// scoring)?
    pub fn shard_stall(&self, domain: usize, pass: u64, shard: usize, attempt: u32) -> bool {
        self.fire(
            self.cfg.shard_stall_permille,
            SITE_SHARD_STALL ^ ((domain as u64) << 8),
            "shard_stall",
            &self.shard_stalls,
            pass,
            shard as u64,
            attempt as u64,
        )
    }

    /// Connection-fault draw: cut response `req` of connection `conn`
    /// mid-frame?
    pub fn torn_write(&self, conn: u64, req: u64) -> bool {
        self.fire(
            self.cfg.torn_write_permille,
            SITE_TORN_WRITE,
            "torn_write",
            &self.torn_writes,
            conn,
            req,
            0,
        )
    }

    /// Connection-fault draw: truncate request frame `req` of
    /// connection `conn` before parsing?
    pub fn torn_read(&self, conn: u64, req: u64) -> bool {
        self.fire(
            self.cfg.torn_read_permille,
            SITE_TORN_READ,
            "torn_read",
            &self.torn_reads,
            conn,
            req,
            0,
        )
    }

    /// Reload-fault draw: reject reload number `ordinal`?
    pub fn reload_fail(&self, ordinal: u64) -> bool {
        self.fire(
            self.cfg.reload_fail_permille,
            SITE_RELOAD_FAIL,
            "reload_fail",
            &self.reload_fails,
            ordinal,
            0,
            0,
        )
    }

    /// Request-fault draw: force request `req` of connection `conn` to
    /// start with an already-expired deadline (clock-free timeout)?
    pub fn deadline_expire(&self, conn: u64, req: u64) -> bool {
        self.fire(
            self.cfg.deadline_expire_permille,
            SITE_DEADLINE,
            "deadline_expire",
            &self.deadline_expiries,
            conn,
            req,
            0,
        )
    }
}

/// A per-request deadline in the [`nm_obs::clock`] domain, propagated
/// through parse → cache → coalesce → fanout → merge. `forced` is the
/// clock-free chaos variant: the deadline reads as already expired at
/// every stage boundary without any real time passing, so deadline
/// handling is testable deterministically.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    expires_us: u64,
    forced: bool,
}

impl Deadline {
    /// Expires `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self {
            expires_us: nm_obs::clock::now_us()
                .saturating_add(budget.as_micros().min(u64::MAX as u128) as u64),
            forced: false,
        }
    }

    /// Never expires (back-compat path for deadline-less callers).
    pub fn unbounded() -> Self {
        Self {
            expires_us: u64::MAX,
            forced: false,
        }
    }

    /// The chaos variant: already expired, without consuming time.
    pub fn forced_expired(mut self) -> Self {
        self.forced = true;
        self
    }

    /// True for the never-expiring back-compat deadline.
    pub fn is_unbounded(&self) -> bool {
        !self.forced && self.expires_us == u64::MAX
    }

    pub fn expired(&self) -> bool {
        self.forced || nm_obs::clock::now_us() >= self.expires_us
    }

    /// Remaining budget (zero once expired).
    pub fn remaining(&self) -> Duration {
        if self.forced {
            return Duration::ZERO;
        }
        Duration::from_micros(self.expires_us.saturating_sub(nm_obs::clock::now_us()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos(cfg: ChaosConfig) -> Chaos {
        Chaos::new(cfg, &nm_obs::Registry::new())
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ChaosConfig {
            seed: 42,
            worker_panic_permille: 200,
            shard_stall_permille: 150,
            ..Default::default()
        };
        let a = chaos(cfg.clone());
        let b = chaos(cfg);
        let draws_a: Vec<bool> = (0..200)
            .map(|i| a.worker_panic(i % 2, i as u64, (i * 3) % 7, 0))
            .collect();
        let draws_b: Vec<bool> = (0..200)
            .map(|i| b.worker_panic(i % 2, i as u64, (i * 3) % 7, 0))
            .collect();
        assert_eq!(draws_a, draws_b);
        assert!(
            draws_a.iter().any(|&x| x),
            "rate 200/1000 must fire in 200 draws"
        );
        assert!(
            !draws_a.iter().all(|&x| x),
            "rate 200/1000 must not always fire"
        );
        assert_eq!(a.worker_panics.get(), b.worker_panics.get());
        assert_eq!(a.total.get(), b.total.get());
    }

    #[test]
    fn different_seeds_differ_and_rates_roughly_hold() {
        let mk = |seed| {
            chaos(ChaosConfig {
                seed,
                shard_stall_permille: 500,
                ..Default::default()
            })
        };
        let a = mk(1);
        let b = mk(2);
        let da: Vec<bool> = (0..500).map(|i| a.shard_stall(0, i, 0, 0)).collect();
        let db: Vec<bool> = (0..500).map(|i| b.shard_stall(0, i, 0, 0)).collect();
        assert_ne!(da, db, "seeds 1 and 2 drew identical schedules");
        // rate 500‰ over 500 draws: expect roughly half, generously bounded
        let hits = da.iter().filter(|&&x| x).count();
        assert!((150..=350).contains(&hits), "hits={hits}");
    }

    #[test]
    fn zero_rate_never_fires_and_disabled_reports() {
        let c = chaos(ChaosConfig {
            seed: 9,
            ..Default::default()
        });
        assert!(!c.config().enabled());
        for i in 0..100 {
            assert!(!c.worker_panic(0, i, 0, 0));
            assert!(!c.torn_write(i, i));
            assert!(!c.reload_fail(i));
        }
        assert_eq!(c.total.get(), 0);
    }

    #[test]
    fn fault_classes_draw_independently() {
        let c = chaos(ChaosConfig {
            seed: 7,
            worker_panic_permille: 300,
            shard_stall_permille: 300,
            ..Default::default()
        });
        let panics: Vec<bool> = (0..300).map(|i| c.worker_panic(0, i, 1, 0)).collect();
        let stalls: Vec<bool> = (0..300).map(|i| c.shard_stall(0, i, 1, 0)).collect();
        assert_ne!(panics, stalls, "sites must not alias");
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_micros(2_000);
        let b1 = seeded_backoff(base, cap, 1, 5, 0);
        let b2 = seeded_backoff(base, cap, 2, 5, 0);
        let b9 = seeded_backoff(base, cap, 9, 5, 0);
        assert!(b1 >= base && b1 <= Duration::from_micros(150));
        assert!(b2 > b1, "attempt 2 must back off further");
        assert!(b9 <= cap, "backoff must cap");
        assert_eq!(b2, seeded_backoff(base, cap, 2, 5, 0));
        assert_ne!(
            seeded_backoff(base, cap, 2, 5, 1),
            seeded_backoff(base, cap, 2, 5, 2),
            "salt must jitter the schedule"
        );
    }

    #[test]
    fn forced_deadline_expires_without_time_passing() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3000));
        let f = d.forced_expired();
        assert!(f.expired());
        assert_eq!(f.remaining(), Duration::ZERO);
        assert!(!Deadline::unbounded().expired());
    }
}
