//! The top-K retrieval engine.
//!
//! Architecture (see DESIGN.md "Serving" and "Failure model & degraded
//! modes"):
//!
//! * a persistent `std::thread` **worker pool**; each scoring pass
//!   fans out over item **shards** that workers claim off an atomic
//!   worklist cursor — finished workers steal remaining shards, so an
//!   uneven shard never idles the rest of the pool. A job that panics
//!   is caught where it runs: a worker counts it and goes back to its
//!   queue, as the batch leader does. The leader always drains the
//!   worklist inline, so scoring makes progress even when no worker
//!   thread could be spawned;
//! * **per-shard resilience**: every claimed shard is wrapped in a
//!   latch guard (a panicking claim still counts down), failed shards
//!   are retried with deterministic backoff up to a budget, and a
//!   per-shard circuit breaker (closed/open/half-open, cooldown in
//!   scoring passes) short-circuits persistently failing shards;
//! * **degraded modes**: a pass that loses shards produces a `Partial`
//!   answer; a pass that loses everything (or a request whose deadline
//!   expires) falls back to the epoch-agnostic **stale cache** of last
//!   good answers, and only then to an empty `Unavailable` reply —
//!   never a hang or a panic across the request boundary;
//! * a bounded per-domain **batching queue**: the first thread to
//!   arrive becomes the batch leader, drains up to `batch_max`
//!   concurrent same-domain requests, and serves them with one shared
//!   pass over the item table; followers block until the leader posts
//!   their result (or their [`Deadline`] expires);
//! * **deterministic top-K**: each shard and then each request's merged
//!   pool is cut to k by one linear-time selection, and only the final
//!   k are sorted, all under the total order of [`nm_eval::rank_order`]
//!   (score descending, then item id ascending), so results are
//!   independent of shard boundaries, worker count, and batching;
//! * a sharded **LRU cache** keyed by `(user, domain, k, epoch)`,
//!   invalidated by bumping the epoch on snapshot reload. Degraded
//!   answers are never inserted.

use crate::cache::{CacheKey, CachedList, ShardedLru};
use crate::chaos::{seeded_backoff, Chaos, ChaosConfig, Deadline};
use crate::reqtrace::{DegradedKind, ExemplarRing, ReqTiming};
use crate::snapshot::Snapshot;
use crate::stats::Stats;
use nm_eval::harness::{rank_order, Scorer};
use nm_nn::checkpoint::CheckpointError;
use nm_obs::clock::Stopwatch;
use nm_obs::{Counter, SloDecision, Telemetry, TelemetryConfig};
use nm_sync::backend::{lock_recover, read_recover, wait_recover, write_recover};
use nm_sync::breaker::{Admission, BreakerConfig, Transition};
use nm_sync::{BatchQueue, BreakerBank, Slot, StdBackend};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::Duration;

/// Request-path fault-tolerance knobs (see DESIGN.md "Failure model &
/// degraded modes").
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Extra scoring attempts for a failed shard within one pass
    /// (0 = fail fast to the degraded path).
    pub shard_retries: u32,
    /// First-retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Retry-backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-shard circuit breaker (threshold 0 disables).
    pub breaker: BreakerConfig,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            shard_retries: 2,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Scoring worker threads.
    pub n_workers: usize,
    /// Items per shard (work-stealing granule).
    pub shard_items: usize,
    /// Max same-domain requests coalesced into one scoring pass.
    pub batch_max: usize,
    /// Total cached recommendation lists (0 disables the cache).
    pub cache_capacity: usize,
    /// Retry/breaker/degraded-mode tuning.
    pub resilience: ResilienceConfig,
    /// Deterministic fault injection (None/disabled in production).
    pub chaos: Option<ChaosConfig>,
    /// Flight-recorder ring + SLO objectives (see `nm_obs::slo`). The
    /// tick *source* is external: the server ticks on request ordinals
    /// or a clock thread, the stream loop once per round.
    pub telemetry: TelemetryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            n_workers: thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            shard_items: 256,
            batch_max: 8,
            cache_capacity: 4096,
            resilience: ResilienceConfig::default(),
            chaos: None,
            telemetry: TelemetryConfig::default(),
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One `(item, score)` candidate pool per in-flight request, appended
/// to by shard workers under a short lock.
type CandidatePools = Vec<Mutex<Vec<(u32, f32)>>>;

/// Cache-key epoch reserved for the stale cache: entries are last good
/// answers keyed only by `(user, domain, k)`, surviving reloads.
const STALE_EPOCH: u64 = u64::MAX;

/// Entries in the stale cache of last good answers.
const STALE_CAPACITY: usize = 1024;

/// Lock shards of the live and the stale cache.
const CACHE_SHARDS: usize = 8;

/// Slowest-request exemplars retained for `{"op":"trace"}`.
const EXEMPLAR_CAPACITY: usize = 32;

/// Cuts `pool` to its best `k` candidates under [`rank_order`], in no
/// particular order: one linear-time selection, then a truncate.
/// `rank_order` is a total order with ties broken by item id, so the
/// kept set is unique whatever order the pool arrived in.
fn select_top_k(pool: &mut Vec<(u32, f32)>, k: usize) {
    if k < pool.len() {
        pool.select_nth_unstable_by(k, rank_order);
        pool.truncate(k);
    }
}

struct PoolShared {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Set under the `jobs` lock, so a worker between its check and its
    /// wait cannot miss the wakeup.
    shutdown: AtomicBool,
}

/// One worker thread's run loop. A panicking job is counted and the
/// worker goes back to the queue, as the batch leader does: the shard
/// guard has already recorded the shard as failed.
fn worker_main(shared: &PoolShared, panics: &Counter) {
    loop {
        let job = {
            let mut q = lock_recover(&shared.jobs);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = wait_recover(&shared.available, q);
            }
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            panics.inc();
        }
    }
}

/// Fixed-size thread pool. Jobs are *helpers*: pure parallelism for a
/// leader that is draining the same worklist inline, so a pool short of
/// threads degrades throughput, never liveness.
struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `n` workers (at least one); a thread that fails to spawn
    /// is left out.
    fn new(n: usize, panics: &Arc<Counter>) -> Self {
        let shared = Arc::new(PoolShared {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..n.max(1))
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                let panics = Arc::clone(panics);
                thread::Builder::new()
                    .name(format!("nm-serve-worker-{i}"))
                    .spawn(move || worker_main(&shared, &panics))
                    .ok()
            })
            .collect();
        Self { shared, workers }
    }

    /// Enqueues a helper job, unless no worker was spawned: the leader
    /// drains the worklist inline either way.
    fn submit_helper(&self, job: Job) {
        if self.workers.is_empty() {
            return;
        }
        lock_recover(&self.shared.jobs).push_back(job);
        self.shared.available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let _q = lock_recover(&self.shared.jobs);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Stage timing of one shared scoring pass, reported to every request
/// the pass served, plus the snapshot epoch the pass actually scored
/// against (taken *once per batch*, coherently with the snapshot).
#[derive(Debug, Clone, Copy, Default)]
struct BatchTiming {
    fanout_us: u64,
    merge_us: u64,
    epoch: u64,
    /// Shards that contributed nothing (failed past the retry budget
    /// or breaker-skipped). 0 ⇒ the answer is full fidelity.
    degraded_shards: u32,
}

/// What the batch leader posts to a request: its list, the timing of
/// the pass that produced it, and the list's degradation.
type Answer = (CachedList, BatchTiming, DegradedKind);

/// A follower's rendezvous slot: the batch leader fills it. The slot
/// algorithm itself lives in [`nm_sync::coalesce`] — production
/// instantiates it with the zero-cost [`StdBackend`], and `nmcdr
/// check` model-checks the *same* code under its virtual backend.
type ReqSlot = Slot<Answer, StdBackend>;

#[derive(Clone)]
struct Pending {
    user: u32,
    k: usize,
    slot: Arc<ReqSlot>,
}

/// Counts outstanding shards of one scoring attempt.
struct Latch {
    left: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self {
            left: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = lock_recover(&self.left);
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = lock_recover(&self.left);
        while *left > 0 {
            left = wait_recover(&self.done, left);
        }
    }
}

/// Per-shard outcome of one scoring pass.
const SHARD_PENDING: u8 = 0;
const SHARD_DONE: u8 = 1;
const SHARD_FAILED: u8 = 2;
/// Breaker-skipped: short-circuited before any attempt.
const SHARD_SKIPPED: u8 = 3;

/// Immutable context of one batch's scoring pass, shared by every
/// attempt over it.
struct BatchCtx {
    snap: Arc<Snapshot>,
    domain: usize,
    users: Vec<u32>,
    k_max: usize,
    shard_items: usize,
    n_items: usize,
    /// Domain-local pass ordinal (the breaker's clock-free cooldown
    /// time base and the chaos draw coordinate).
    pass: u64,
    status: Vec<AtomicU8>,
    candidates: CandidatePools,
    chaos: Option<Arc<Chaos>>,
}

/// One attempt's worklist and completion latch.
struct AttemptCtx {
    batch: Arc<BatchCtx>,
    worklist: Vec<usize>,
    attempt: u32,
    next: AtomicUsize,
    latch: Latch,
}

/// Marks a claimed shard failed-unless-completed and counts the latch
/// down exactly once — even when the claim panics or stalls, so the
/// leader's `latch.wait()` can never hang on a dead worker.
struct ShardGuard<'a> {
    status: &'a AtomicU8,
    latch: &'a Latch,
}

impl ShardGuard<'_> {
    fn done(self) {
        self.status.store(SHARD_DONE, Ordering::Release);
        // Drop runs next: its PENDING→FAILED CAS loses, latch counts.
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        let _ = self.status.compare_exchange(
            SHARD_PENDING,
            SHARD_FAILED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.latch.count_down();
    }
}

/// Drains the attempt's worklist: claim a shard off the atomic cursor,
/// score it for every batched user, commit the candidates. Runs on
/// helper workers *and* inline on the batch leader; a stale helper
/// arriving after the cursor is exhausted exits immediately.
///
/// Candidates are buffered per shard and committed only after the
/// whole shard scored cleanly, so a mid-shard fault never leaves a
/// partial contribution for a retry to duplicate.
fn drain_worklist(a: &AttemptCtx) {
    let b = &*a.batch;
    let mut scores = vec![0.0f32; b.shard_items];
    loop {
        let wi = a.next.fetch_add(1, Ordering::AcqRel);
        if wi >= a.worklist.len() {
            return;
        }
        let s = a.worklist[wi];
        let guard = ShardGuard {
            status: &b.status[s],
            latch: &a.latch,
        };
        if let Some(chaos) = &b.chaos {
            if chaos.worker_panic(b.domain, b.pass, s, a.attempt) {
                std::panic::panic_any("chaos: injected worker panic");
            }
            if chaos.shard_stall(b.domain, b.pass, s, a.attempt) {
                // A wedged shard, clock-free: no work happens and the
                // guard records the claim as failed.
                continue;
            }
        }
        let lo = s * b.shard_items;
        let hi = (lo + b.shard_items).min(b.n_items);
        let mut staged: Vec<Vec<(u32, f32)>> = Vec::with_capacity(b.users.len());
        for &user in &b.users {
            let out = &mut scores[..hi - lo];
            b.snap.score_user_range(b.domain, user, lo, hi, out);
            let mut local: Vec<(u32, f32)> = (lo as u32..).zip(out.iter().copied()).collect();
            select_top_k(&mut local, b.k_max);
            staged.push(local);
        }
        for (r, chunk) in staged.into_iter().enumerate() {
            lock_recover(&b.candidates[r]).extend(chunk);
        }
        guard.done();
    }
}

/// The live snapshot and its epoch, swapped together under one lock so
/// no reader can ever observe a new snapshot labelled with an old epoch
/// (or vice versa). The epoch is what keys the cache: a torn pair would
/// let a scoring pass insert new-snapshot results under a pre-reload
/// epoch, poisoning the cache for every later lookup of that key.
struct Versioned {
    epoch: u64,
    snap: Arc<Snapshot>,
}

/// The online retrieval engine. Cheap to share: wrap in `Arc` and call
/// [`Engine::topk_traced`] from any number of threads.
pub struct Engine {
    versioned: RwLock<Versioned>,
    /// Lock-free mirror of `versioned.epoch` for cheap reads (cache
    /// lookups, stats). Only `reload` writes it, inside the write lock.
    epoch_mirror: AtomicU64,
    pool: WorkerPool,
    /// Per-domain leader–follower coalescers (the generic core in
    /// [`nm_sync::coalesce`], instantiated with the std backend).
    queues: [BatchQueue<Pending, StdBackend>; 2],
    cache: Option<ShardedLru>,
    /// Last good answer per `(user, domain, k)`, epoch-agnostic;
    /// survives reloads and is only served on the degraded path.
    stale: ShardedLru,
    breakers: [BreakerBank<StdBackend>; 2],
    /// Per-domain scoring-pass ordinals (breaker cooldown time base).
    pass_seq: [AtomicU64; 2],
    reload_seq: AtomicU64,
    chaos: Option<Arc<Chaos>>,
    stats: Arc<Stats>,
    reqtrace: ExemplarRing,
    telemetry: Arc<Telemetry>,
    cfg: EngineConfig,
}

impl Engine {
    /// Builds an engine over a validated snapshot. Rejects (rather than
    /// panics on) a structurally inconsistent snapshot so callers can
    /// surface the failure as a protocol/CLI error.
    pub fn new(snapshot: Snapshot, cfg: EngineConfig) -> Result<Self, CheckpointError> {
        snapshot.validate()?;
        let stats = Arc::new(Stats::new());
        let chaos = cfg
            .chaos
            .as_ref()
            .filter(|c| c.enabled())
            .map(|c| Arc::new(Chaos::new(c.clone(), stats.registry())));
        let cache =
            (cfg.cache_capacity > 0).then(|| ShardedLru::new(cfg.cache_capacity, CACHE_SHARDS));
        let pool = WorkerPool::new(cfg.n_workers, &stats.worker_panics);
        Ok(Self {
            versioned: RwLock::new(Versioned {
                epoch: 0,
                snap: Arc::new(snapshot),
            }),
            epoch_mirror: AtomicU64::new(0),
            pool,
            queues: [BatchQueue::new(), BatchQueue::new()],
            cache,
            stale: ShardedLru::new(STALE_CAPACITY, CACHE_SHARDS),
            breakers: [
                BreakerBank::new(cfg.resilience.breaker),
                BreakerBank::new(cfg.resilience.breaker),
            ],
            pass_seq: [AtomicU64::new(0), AtomicU64::new(0)],
            reload_seq: AtomicU64::new(0),
            chaos,
            stats,
            reqtrace: ExemplarRing::new(EXEMPLAR_CAPACITY),
            telemetry: Arc::new(Telemetry::new(cfg.telemetry.clone())),
            cfg,
        })
    }

    /// The embedded telemetry unit (flight recorder + SLO engine).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Records one flight-recorder tick over the engine's registry and
    /// evaluates the SLOs. Callers supply tick cadence: the server
    /// ticks every `sample_every` requests (or on a clock thread), the
    /// stream loop once per round.
    pub fn tick_telemetry(&self) -> Vec<SloDecision> {
        self.telemetry.tick(self.stats.registry())
    }

    /// Shared observability counters.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// The slowest-N request exemplar ring (request-id allocator and
    /// backing store for the `{"op":"trace"}` wire request).
    pub fn exemplars(&self) -> &ExemplarRing {
        &self.reqtrace
    }

    /// Scoring worker threads beside the batch leader: fewer than
    /// [`EngineConfig::n_workers`] if some failed to spawn.
    pub fn worker_threads(&self) -> usize {
        self.pool.workers.len()
    }

    /// Current snapshot epoch (bumped on every [`Engine::reload`]).
    pub fn epoch(&self) -> u64 {
        self.epoch_mirror.load(Ordering::Acquire)
    }

    /// The fault-injection plan, when chaos is enabled.
    pub(crate) fn chaos(&self) -> Option<&Arc<Chaos>> {
        self.chaos.as_ref()
    }

    /// The live snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&read_recover(&self.versioned).snap)
    }

    /// The live `(epoch, snapshot)` pair, read coherently.
    fn current(&self) -> (u64, Arc<Snapshot>) {
        let g = read_recover(&self.versioned);
        (g.epoch, Arc::clone(&g.snap))
    }

    /// Swaps in a new snapshot, bumps the epoch, and clears the cache.
    /// The swap and the bump happen atomically under the write lock, so
    /// an in-flight scoring pass sees either the old pair or the new
    /// pair — never a new snapshot under an old epoch. On a validation
    /// (or injected) failure the live snapshot is left untouched and
    /// the error is returned for the caller to report; the stale cache
    /// is *not* cleared on success — it holds last good answers across
    /// epochs by design.
    pub fn reload(&self, snapshot: Snapshot) -> Result<(), CheckpointError> {
        let ordinal = self.reload_seq.fetch_add(1, Ordering::AcqRel);
        if let Some(chaos) = &self.chaos {
            if chaos.reload_fail(ordinal) {
                self.stats.reload_failed.inc();
                return Err(CheckpointError::Format(
                    "chaos: injected reload failure (last-good snapshot stays live)".into(),
                ));
            }
        }
        if let Err(e) = snapshot.validate() {
            self.stats.reload_failed.inc();
            return Err(e);
        }
        {
            let mut g = write_recover(&self.versioned);
            g.epoch += 1;
            g.snap = Arc::new(snapshot);
            self.epoch_mirror.store(g.epoch, Ordering::Release);
        }
        if let Some(c) = &self.cache {
            c.clear();
        }
        self.stats.reload_ok.inc();
        Ok(())
    }

    /// Scores `(user, item)` pairs against the live snapshot — the
    /// parity path audited by [`nm_eval::evaluate_ranking`].
    pub fn score(&self, domain: usize, users: &[u32], items: &[u32]) -> Vec<f32> {
        self.snapshot().score_pairs(domain, users, items)
    }

    /// A [`Scorer`] view of one domain, for offline metric audits.
    pub fn scorer(&self, domain: usize) -> EngineScorer<'_> {
        EngineScorer {
            engine: self,
            domain,
        }
    }

    /// Top-`k` items of `domain` for `user` (score descending, ties by
    /// item id), with the per-stage [`ReqTiming`] breakdown the server
    /// attaches to slow-request exemplars. `ReqTiming::cache_hit`
    /// reports whether the answer came from the cache.
    pub fn topk_traced(&self, domain: usize, user: u32, k: usize) -> (CachedList, ReqTiming) {
        self.topk_deadline(domain, user, k, Deadline::unbounded())
    }

    /// [`Engine::topk_traced`] under a [`Deadline`]: the request either
    /// completes in budget or returns the best degraded answer
    /// reachable without further waiting (stale cache, else empty) —
    /// never a hang. `ReqTiming::degraded` / `deadline_hit` report
    /// which path was taken.
    pub fn topk_deadline(
        &self,
        domain: usize,
        user: u32,
        k: usize,
        deadline: Deadline,
    ) -> (CachedList, ReqTiming) {
        self.stats.requests.inc();
        let mut t = ReqTiming::default();
        let key = CacheKey::new(user, domain, k, self.epoch());
        if let Some(hit) = self.cache(&key, &mut t) {
            return (hit, t);
        }
        // An expired deadline sheds before queueing: scoring could not
        // finish in budget.
        let answer = if deadline.expired() {
            None
        } else {
            self.coalesce(domain, user, k, &deadline, &mut t)
        };
        let Some((list, bt, kind)) = answer else {
            self.stats.deadline_shed.inc();
            t.deadline_hit = true;
            let (list, kind) = self.degraded(domain, user, k, Arc::new(Vec::new()));
            t.degraded = kind;
            return (list, t);
        };
        t.fanout_us = bt.fanout_us;
        t.merge_us = bt.merge_us;
        t.epoch = bt.epoch;
        t.degraded = kind;
        (list, t)
    }

    /// Stage `serve.cache`: the live-cache lookup under the request's
    /// epoch. A hit answers the request.
    fn cache(&self, key: &CacheKey, t: &mut ReqTiming) -> Option<CachedList> {
        let cache = self.cache.as_ref()?;
        let (hit, us) = stage("serve.cache", || cache.get(key));
        t.cache_us = us;
        if hit.is_none() {
            self.stats.cache_misses.inc();
            return None;
        }
        self.stats.cache_hits.inc();
        t.cache_hit = true;
        t.epoch = key.epoch;
        hit
    }

    /// Stage `serve.coalesce`: joins the domain's batch queue, leads its
    /// batches when first to arrive, and waits for this request's
    /// answer. `None` means the deadline expired while parked on the
    /// leader: the slot is abandoned, and the leader's later fill is
    /// dropped harmlessly (the leader never blocks on a follower).
    fn coalesce(
        &self,
        domain: usize,
        user: u32,
        k: usize,
        deadline: &Deadline,
        t: &mut ReqTiming,
    ) -> Option<Answer> {
        let slot = Arc::new(ReqSlot::new());
        let pending = Pending {
            user,
            k,
            slot: Arc::clone(&slot),
        };
        let lock_sw = Stopwatch::start();
        // Enqueue + leader election, fused in one monitor region of the
        // coalescer core; `on_enter` observes the depth at region entry.
        let become_leader = self.queues[domain].submit(pending, |depth| {
            t.lock_us = lock_sw.elapsed_us();
            t.queue_depth = depth as u64;
        });
        if become_leader {
            self.lead_batches(domain);
        } else {
            t.coalesced = true;
        }
        // Each sleep is clamped to [100µs, 50ms] so a coarse deadline
        // still polls expiry promptly.
        let budget = || {
            let (lo, hi) = (Duration::from_micros(100), Duration::from_millis(50));
            (!deadline.is_unbounded()).then(|| deadline.remaining().clamp(lo, hi))
        };
        let (answer, us) = stage("serve.coalesce", || {
            slot.wait_deadline(|| deadline.expired(), budget)
        });
        if t.coalesced {
            t.coalesce_us = us;
        }
        answer
    }

    /// The degraded answer for `(user, domain, k)` when its scoring lost
    /// shards or never ran: `list` itself when some shards scored
    /// (`Partial`), else the stale cache's last good answer, else `list`
    /// empty (`Unavailable`). Counts and traces the outcome.
    fn degraded(
        &self,
        domain: usize,
        user: u32,
        k: usize,
        list: CachedList,
    ) -> (CachedList, DegradedKind) {
        let stale_key = CacheKey::new(user, domain, k, STALE_EPOCH);
        let (list, kind) = if !list.is_empty() {
            (list, DegradedKind::Partial)
        } else if let Some(stale) = self.stale.get(&stale_key) {
            (stale, DegradedKind::Stale)
        } else {
            (list, DegradedKind::Unavailable)
        };
        self.note_degraded(domain, kind);
        (list, kind)
    }

    /// Counts one degraded answer and emits its typed trace event.
    fn note_degraded(&self, domain: usize, kind: DegradedKind) {
        match kind {
            DegradedKind::Partial => self.stats.degraded_partial.inc(),
            DegradedKind::Stale => self.stats.degraded_stale.inc(),
            DegradedKind::Unavailable => self.stats.degraded_unavailable.inc(),
            DegradedKind::None => return,
        }
        nm_obs::trace::event("serve.degraded", |e| {
            e.u("domain", domain as u64).s("mode", kind.as_str());
        });
    }

    /// Counts a breaker transition and emits its typed trace event.
    fn note_breaker(&self, domain: usize, shard: usize, tr: Transition) {
        let state = match tr {
            Transition::Opened | Transition::Reopened => {
                self.stats.breaker_opens.inc();
                "open"
            }
            Transition::HalfOpened => {
                self.stats.breaker_half_opens.inc();
                "half_open"
            }
            Transition::Closed => {
                self.stats.breaker_closes.inc();
                "closed"
            }
        };
        nm_obs::trace::event("serve.breaker", |e| {
            e.u("domain", domain as u64)
                .u("shard", shard as u64)
                .s("state", state);
        });
    }

    /// Batch leader loop: drain the domain queue in `batch_max` chunks
    /// until it is empty, then hand leadership back. Each batch's cache
    /// inserts use the epoch *of that batch's scoring pass* (a reload
    /// can land between two drained batches of the same leader session;
    /// labelling every batch with the session-entry epoch would insert
    /// post-reload results under the pre-reload key). Only full-fidelity
    /// answers are cached (live epoch *and* stale); a degraded batch
    /// falls back per request to partial/stale/unavailable.
    fn lead_batches(&self, domain: usize) {
        loop {
            let batch = self.queues[domain].drain(self.cfg.batch_max);
            if batch.is_empty() {
                // The queue drained: the coalescer core dropped the
                // leadership flag in the same region that observed
                // emptiness, so no follower can park unserved.
                return;
            }
            self.stats.batches.inc();
            if batch.len() > 1 {
                self.stats.coalesced.add(batch.len() as u64);
            }
            let (lists, timing) = self.run_batch(domain, &batch);
            for (req, list) in batch.iter().zip(lists) {
                let (list, kind) = if timing.degraded_shards == 0 {
                    let live = self.cache.as_ref().map(|c| (c, timing.epoch));
                    for (cache, epoch) in live.into_iter().chain([(&self.stale, STALE_EPOCH)]) {
                        let key = CacheKey::new(req.user, domain, req.k, epoch);
                        cache.insert(key, Arc::clone(&list));
                    }
                    (list, DegradedKind::None)
                } else {
                    self.degraded(domain, req.user, req.k, list)
                };
                req.slot.fill((list, timing, kind));
            }
        }
    }

    /// One shared scoring pass: the fan-out stage, then the merge stage.
    fn run_batch(&self, domain: usize, batch: &[Pending]) -> (Vec<CachedList>, BatchTiming) {
        // One coherent read per batch: every shard of this pass scores
        // the same snapshot, and the batch is labelled with its epoch.
        let (epoch, snap) = self.current();
        let mut timing = BatchTiming {
            epoch,
            ..Default::default()
        };
        if snap.n_items(domain) == 0 {
            return (batch.iter().map(|_| Arc::new(Vec::new())).collect(), timing);
        }
        let ctx = self.fanout(domain, batch, snap, &mut timing);
        let lists = merge(&ctx, batch, &mut timing);
        (lists, timing)
    }

    /// Stage `serve.fanout`: breaker admission, then scoring attempts
    /// (the first over every admitted shard, retries with seeded
    /// backoff over the failed ones), then outcome accounting. The span
    /// and `fanout_us` cover the attempts.
    fn fanout(
        &self,
        domain: usize,
        batch: &[Pending],
        snap: Arc<Snapshot>,
        timing: &mut BatchTiming,
    ) -> Arc<BatchCtx> {
        let shard_items = self.cfg.shard_items.max(1);
        let n_items = snap.n_items(domain);
        let pass = self.pass_seq[domain].fetch_add(1, Ordering::AcqRel);
        let admissions = self.admit(domain, n_items.div_ceil(shard_items), pass);
        let status = admissions.iter().map(|a| {
            AtomicU8::new(if *a == Admission::Skip {
                SHARD_SKIPPED
            } else {
                SHARD_PENDING
            })
        });
        let ctx = Arc::new(BatchCtx {
            snap,
            domain,
            users: batch.iter().map(|r| r.user).collect(),
            k_max: batch.iter().map(|r| r.k).max().unwrap_or(0).min(n_items),
            shard_items,
            n_items,
            pass,
            status: status.collect(),
            candidates: batch.iter().map(|_| Mutex::new(Vec::new())).collect(),
            chaos: self.chaos.clone(),
        });
        let ((), us) = stage("serve.fanout", || {
            for attempt in 0..=self.cfg.resilience.shard_retries {
                let worklist = worklist(&ctx, &admissions, attempt);
                if worklist.is_empty() {
                    break;
                }
                if attempt > 0 {
                    self.prepare_retry(&ctx, &worklist, attempt);
                }
                self.run_attempt(&ctx, worklist, attempt);
            }
        });
        timing.fanout_us = us;
        timing.degraded_shards = self.report_outcomes(&ctx);
        ctx
    }

    /// Breaker admission for every shard of pass `pass`, decided before
    /// any work starts, in one bank region. Counts the short-circuited
    /// shards.
    fn admit(&self, domain: usize, n_shards: usize, pass: u64) -> Vec<Admission> {
        let admissions: Vec<Admission> = self.breakers[domain].with(|br| {
            (0..n_shards)
                .map(|s| {
                    let (a, tr) = br.admit(s, pass);
                    if let Some(tr) = tr {
                        self.note_breaker(domain, s, tr);
                    }
                    a
                })
                .collect()
        });
        let skipped = admissions.iter().filter(|a| **a == Admission::Skip).count();
        self.stats.breaker_short_circuits.add(skipped as u64);
        admissions
    }

    /// Counts and traces a retry of `worklist`, backs off, and re-arms
    /// the shards' status for the next attempt.
    fn prepare_retry(&self, ctx: &BatchCtx, worklist: &[usize], attempt: u32) {
        let res = &self.cfg.resilience;
        self.stats.shard_retried.add(worklist.len() as u64);
        nm_obs::trace::event("serve.retry", |e| {
            e.u("domain", ctx.domain as u64)
                .u("pass", ctx.pass)
                .u("attempt", attempt as u64)
                .u("shards", worklist.len() as u64);
        });
        let backoff = seeded_backoff(res.backoff_base, res.backoff_cap, attempt, 0, ctx.pass);
        thread::sleep(backoff);
        for &s in worklist {
            ctx.status[s].store(SHARD_PENDING, Ordering::Release);
        }
    }

    /// One scoring attempt over `worklist`: helper jobs on the pool plus
    /// the leader draining inline, then a wait for every claimed shard.
    fn run_attempt(&self, ctx: &Arc<BatchCtx>, worklist: Vec<usize>, attempt: u32) {
        let n_jobs = self.cfg.n_workers.min(worklist.len()).max(1);
        let actx = Arc::new(AttemptCtx {
            batch: Arc::clone(ctx),
            latch: Latch::new(worklist.len()),
            worklist,
            attempt,
            next: AtomicUsize::new(0),
        });
        for _ in 0..n_jobs.saturating_sub(1) {
            let actx = Arc::clone(&actx);
            self.pool
                .submit_helper(Box::new(move || drain_worklist(&actx)));
        }
        // The leader drains inline until the cursor is exhausted: a
        // panic is caught here as in the workers and draining resumes,
        // so a batch completes even with no worker thread spawned.
        while actx.next.load(Ordering::Acquire) < actx.worklist.len() {
            if catch_unwind(AssertUnwindSafe(|| drain_worklist(&actx))).is_err() {
                self.stats.worker_panics.inc();
            }
        }
        actx.latch.wait();
    }

    /// Outcome accounting, in one bank region: reports every shard's
    /// outcome to its breaker and counts the failures. Returns the
    /// number of shards that contributed nothing (failed or skipped).
    fn report_outcomes(&self, ctx: &BatchCtx) -> u32 {
        self.breakers[ctx.domain].with(|br| {
            let mut degraded_shards = 0;
            for (s, status) in ctx.status.iter().enumerate() {
                let tr = match status.load(Ordering::Acquire) {
                    SHARD_DONE => br.on_success(s),
                    SHARD_SKIPPED => {
                        degraded_shards += 1;
                        None
                    }
                    _ => {
                        degraded_shards += 1;
                        self.stats.shard_failures.inc();
                        br.on_failure(s, ctx.pass)
                    }
                };
                if let Some(tr) = tr {
                    self.note_breaker(ctx.domain, s, tr);
                }
            }
            degraded_shards
        })
    }
}

/// Runs `f` as one request-path stage: inside the trace span `name`,
/// timed by one stopwatch. Returns `f`'s result and the stage's wall
/// time in microseconds.
fn stage<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let sw = Stopwatch::start();
    let out = {
        let _span = nm_obs::trace::span(name);
        f()
    };
    (out, sw.elapsed_us())
}

/// The shards attempt `attempt` scores: every admitted shard at first,
/// then only the normally-admitted failures (a half-open probe gets
/// exactly one attempt).
fn worklist(ctx: &BatchCtx, admissions: &[Admission], attempt: u32) -> Vec<usize> {
    let failed = |s: usize| ctx.status[s].load(Ordering::Acquire) == SHARD_FAILED;
    (0..admissions.len())
        .filter(|&s| match admissions[s] {
            Admission::Skip => false,
            Admission::Probe => attempt == 0,
            Admission::Allow => attempt == 0 || failed(s),
        })
        .collect()
}

/// Stage `serve.merge`: each request's candidate pool selected down to
/// its `k`, then only those `k` sorted into rank order. Each answer is
/// an exact-size copy: the cache keeps it, and the pool's allocation
/// holds every shard's candidates.
fn merge(ctx: &BatchCtx, batch: &[Pending], timing: &mut BatchTiming) -> Vec<CachedList> {
    let (lists, us) = stage("serve.merge", || {
        batch
            .iter()
            .zip(&ctx.candidates)
            .map(|(req, pool)| {
                let mut pool = lock_recover(pool);
                select_top_k(&mut pool, req.k);
                let mut list = pool.to_vec();
                // Shard append order varies with scheduling; the total
                // order of rank_order makes the final sort canonical,
                // and an unstable sort exact, since item ids are unique.
                list.sort_unstable_by(rank_order);
                Arc::new(list)
            })
            .collect()
    });
    timing.merge_us = us;
    lists
}

/// Borrowed [`Scorer`] over one domain of an [`Engine`].
pub struct EngineScorer<'a> {
    engine: &'a Engine,
    domain: usize,
}

impl Scorer for EngineScorer<'_> {
    fn score(&self, users: &[u32], items: &[u32]) -> Vec<f32> {
        self.engine.score(self.domain, users, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{DomainSnapshot, HeadKind};
    use nm_eval::harness::top_k;
    use nm_tensor::{Tensor, TensorRng};

    #[test]
    fn select_top_k_matches_sorting_top_k() {
        let mut rng = TensorRng::seed_from(3);
        for (k, input) in [0usize, 1, 5, 50, 199, 200, 201, 500]
            .into_iter()
            .flat_map(|k| ["ties", "nan", "signed_zero"].map(|input| (k, input)))
        {
            // Every input repeats scores, to exercise the id tie-break.
            // "nan" puts NaN, which ranks last, on every 7th id (id 0
            // included); "signed_zero" ties -0.0 with 0.0 on every 3rd
            // id, and each must keep its own bits.
            let pairs: Vec<(u32, f32)> = (0..200u32)
                .map(|i| match input {
                    "nan" if i % 7 == 0 => (i, f32::NAN),
                    "signed_zero" if i % 3 == 0 => (i, if i % 2 == 0 { -0.0 } else { 0.0 }),
                    _ => (i, rng.uniform(0.0, 8.0).floor()),
                })
                .collect();
            let want = top_k(&pairs, k);
            let mut got = pairs.clone();
            select_top_k(&mut got, k);
            got.sort_by(rank_order);
            assert_eq!(bits(&got), bits(&want), "k={k} input={input}");
            if input == "nan" && k >= pairs.len() {
                let nan_ids: Vec<u32> = (0..200).step_by(7).collect();
                let tail = &want[pairs.len() - nan_ids.len()..];
                assert_eq!(tail.iter().map(|p| p.0).collect::<Vec<_>>(), nan_ids);
            }
        }
    }

    /// A ranked list with scores as bits, so NaN entries compare equal.
    fn bits(list: &[(u32, f32)]) -> Vec<(u32, u32)> {
        list.iter().map(|&(i, sc)| (i, sc.to_bits())).collect()
    }

    fn snapshot(n_items: usize, seed: u64) -> Snapshot {
        let mut rng = TensorRng::seed_from(seed);
        let mk = |rng: &mut TensorRng| DomainSnapshot {
            users: Tensor::randn(10, 6, 1.0, rng),
            items: Tensor::randn(n_items, 6, 1.0, rng),
            head: HeadKind::Dot,
        };
        Snapshot {
            model: "test".into(),
            domains: [mk(&mut rng), mk(&mut rng)],
        }
    }

    fn engine(n_items: usize, workers: usize) -> Engine {
        Engine::new(
            snapshot(n_items, 7),
            EngineConfig {
                n_workers: workers,
                shard_items: 16,
                ..Default::default()
            },
        )
        .expect("valid test snapshot")
    }

    /// Fast retry backoffs so chaos tests finish quickly.
    fn fast_resilience() -> ResilienceConfig {
        ResilienceConfig {
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_micros(400),
            ..Default::default()
        }
    }

    /// Reference: brute-force top-k from the live snapshot's score_pairs.
    fn reference_topk(e: &Engine, domain: usize, user: u32, k: usize) -> Vec<(u32, f32)> {
        snapshot_topk(&e.snapshot(), domain, user, k)
    }

    #[test]
    fn topk_matches_bruteforce_across_shard_boundaries() {
        for workers in [1, 4] {
            let e = engine(100, workers);
            for domain in 0..2 {
                for user in [0u32, 3, 9] {
                    for k in [1, 7, 15, 16, 17, 100, 500] {
                        let (got, _) = e.topk_traced(domain, user, k);
                        let want = reference_topk(&e, domain, user, k);
                        assert_eq!(*got, want, "w={workers} d={domain} u={user} k={k}");
                        // the answer does not keep the merge pool's allocation
                        assert_eq!(
                            got.capacity(),
                            got.len(),
                            "w={workers} d={domain} u={user} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cache_hits_on_repeat_and_misses_after_reload() {
        let e = engine(64, 2);
        let (first, t1) = e.topk_traced(0, 1, 5);
        assert!(!t1.cache_hit);
        let (second, t2) = e.topk_traced(0, 1, 5);
        assert!(t2.cache_hit, "second identical query must be a cache hit");
        assert_eq!(first, second);
        assert_eq!(e.stats().cache_hits.get(), 1);

        e.reload(snapshot(64, 99)).expect("valid reload snapshot");
        assert_eq!(e.epoch(), 1);
        let (third, t3) = e.topk_traced(0, 1, 5);
        assert!(!t3.cache_hit, "reload must invalidate the cache");
        // different snapshot ⇒ (almost surely) different list
        assert_ne!(first, third);
    }

    #[test]
    fn concurrent_requests_are_coalesced_and_correct() {
        let e = Arc::new(
            Engine::new(
                snapshot(200, 5),
                EngineConfig {
                    n_workers: 2,
                    shard_items: 32,
                    cache_capacity: 0, // force every request through scoring
                    ..Default::default()
                },
            )
            .expect("valid test snapshot"),
        );
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let e = Arc::clone(&e);
            handles.push(thread::spawn(move || {
                let user = t % 10;
                let (got, _) = e.topk_traced(0, user, 10);
                (user, got)
            }));
        }
        for h in handles {
            let (user, got) = h.join().unwrap();
            let want = reference_topk(&e, 0, user, 10);
            assert_eq!(*got, want, "user {user}");
        }
        // all requests accounted for
        assert_eq!(e.stats().requests.get(), 8);
    }

    #[test]
    fn scorer_view_matches_snapshot_pairs() {
        let e = engine(30, 1);
        let users = vec![2u32; 30];
        let items: Vec<u32> = (0..30).collect();
        let via_scorer = e.scorer(1).score(&users, &items);
        let via_snapshot = e.snapshot().score_pairs(1, &users, &items);
        assert_eq!(via_scorer, via_snapshot);
    }

    #[test]
    fn traced_topk_reports_cache_and_stage_flags() {
        let e = engine(64, 2);
        let (first, t1) = e.topk_traced(0, 1, 5);
        assert!(!t1.cache_hit, "cold cache must miss");
        assert!(!t1.coalesced, "single caller is its own batch leader");
        assert_eq!(t1.degraded, DegradedKind::None);
        assert!(!t1.deadline_hit);
        let (second, t2) = e.topk_traced(0, 1, 5);
        assert!(t2.cache_hit, "repeat query must hit");
        assert_eq!(first, second);
        // a cache hit never touches the scoring pass
        assert_eq!(t2.fanout_us, 0);
        assert_eq!(t2.merge_us, 0);
        assert!(!t2.coalesced);
    }

    /// Reference top-k straight off a snapshot value (no engine).
    fn snapshot_topk(snap: &Snapshot, domain: usize, user: u32, k: usize) -> Vec<(u32, f32)> {
        let n = snap.n_items(domain);
        let items: Vec<u32> = (0..n as u32).collect();
        let scores = snap.score_pairs(domain, &vec![user; n], &items);
        let pairs: Vec<(u32, f32)> = items.into_iter().zip(scores).collect();
        top_k(&pairs, k)
    }

    /// Regression test for the reload/epoch race: the epoch used to be
    /// read once per *leader session* while the snapshot was fetched
    /// fresh per batch, so a reload landing between the two could label
    /// new-snapshot results (and cache entries) with the old epoch.
    /// Hammer reloads under concurrent queries and assert every answer
    /// bit-matches the reference top-k of the snapshot version named by
    /// its reported epoch.
    #[test]
    fn reload_under_concurrent_queries_is_epoch_coherent() {
        const VERSIONS: usize = 5;
        const RELOADS: u64 = 120;
        const QUERIES: usize = 400;
        let versions: Vec<Snapshot> = (0..VERSIONS)
            .map(|i| snapshot(64, 100 + i as u64))
            .collect();
        // epoch e serves versions[e % VERSIONS]
        let refs: Vec<Vec<Vec<(u32, f32)>>> = versions
            .iter()
            .map(|s| (0..10).map(|u| snapshot_topk(s, 0, u, 10)).collect())
            .collect();
        let e = Arc::new(
            Engine::new(
                versions[0].clone(),
                EngineConfig {
                    n_workers: 2,
                    shard_items: 16,
                    batch_max: 4,
                    cache_capacity: 256,
                    ..Default::default()
                },
            )
            .expect("valid test snapshot"),
        );
        let reloader = {
            let e = Arc::clone(&e);
            let versions = versions.clone();
            thread::spawn(move || {
                for k in 1..=RELOADS {
                    e.reload(versions[(k % VERSIONS as u64) as usize].clone())
                        .expect("valid reload snapshot");
                    thread::yield_now();
                }
            })
        };
        let queriers: Vec<_> = (0..4u32)
            .map(|q| {
                let e = Arc::clone(&e);
                thread::spawn(move || {
                    let mut got = Vec::with_capacity(QUERIES);
                    for i in 0..QUERIES {
                        let user = (q.wrapping_mul(7).wrapping_add(i as u32)) % 10;
                        let (list, t) = e.topk_traced(0, user, 10);
                        got.push((user, t.epoch, list));
                    }
                    got
                })
            })
            .collect();
        reloader.join().expect("reloader thread");
        for h in queriers {
            for (user, epoch, list) in h.join().expect("querier thread") {
                let want = &refs[(epoch % VERSIONS as u64) as usize][user as usize];
                assert_eq!(
                    *list, *want,
                    "user {user} answered under epoch {epoch} does not match \
                     that epoch's snapshot"
                );
            }
        }
        assert_eq!(e.epoch(), RELOADS);
    }

    #[test]
    fn nan_item_scores_rank_last_and_keep_every_answer_full() {
        let mut snap = snapshot(300, 7);
        for d in &mut snap.domains {
            for item in [0, 150] {
                d.items.row_slice_mut(item)[2] = f32::NAN;
            }
        }
        let e = Engine::new(
            snap,
            EngineConfig {
                n_workers: 2,
                shard_items: 16,
                cache_capacity: 0,
                ..Default::default()
            },
        )
        .expect("valid test snapshot");
        for domain in 0..2 {
            for user in 0..10u32 {
                for k in [10, 200, 300] {
                    let (got, t) = e.topk_traced(domain, user, k);
                    let tag = format!("d={domain} u={user} k={k}");
                    assert_eq!(t.degraded, DegradedKind::None, "{tag}");
                    let want = reference_topk(&e, domain, user, k);
                    assert_eq!(bits(&got), bits(&want), "{tag}");
                    if k == 300 {
                        assert_eq!((got[298].0, got[299].0), (0, 150), "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn k_larger_than_catalog_returns_all_items() {
        let e = engine(12, 2);
        let (list, _) = e.topk_traced(0, 0, 100);
        assert_eq!(list.len(), 12);
        // sorted by rank_order
        for w in list.windows(2) {
            assert!(rank_order(&w[0], &w[1]) != std::cmp::Ordering::Greater);
        }
    }

    // ---- chaos / resilience -------------------------------------------

    #[test]
    fn expired_deadline_degrades_to_stale_then_unavailable() {
        let e = engine(64, 2);
        let dead = Deadline::after(Duration::from_secs(60)).forced_expired();
        // Nothing served yet: no stale entry, so unavailable.
        let (list, t) = e.topk_deadline(0, 1, 5, dead);
        assert!(list.is_empty());
        assert_eq!(t.degraded, DegradedKind::Unavailable);
        assert!(t.deadline_hit);
        assert_eq!(e.stats().deadline_shed.get(), 1);
        // A healthy pass populates the stale cache …
        let (full, t2) = e.topk_traced(0, 1, 5);
        assert_eq!(t2.degraded, DegradedKind::None);
        // … and after a reload (live cache invalidated, stale kept) the
        // same expired deadline serves the last good answer.
        e.reload(snapshot(64, 123)).expect("valid reload snapshot");
        let (stale, t3) = e.topk_deadline(0, 1, 5, dead);
        assert_eq!(t3.degraded, DegradedKind::Stale);
        assert!(t3.deadline_hit);
        assert_eq!(stale, full, "stale must replay the last good answer");
        assert_eq!(e.stats().degraded_stale.get(), 1);
        assert_eq!(e.stats().degraded_unavailable.get(), 1);
    }

    #[test]
    fn transient_stalls_are_absorbed_by_retries() {
        let mk = |chaos| {
            Engine::new(
                snapshot(100, 7),
                EngineConfig {
                    n_workers: 2,
                    shard_items: 16,
                    cache_capacity: 0,
                    chaos,
                    resilience: ResilienceConfig {
                        shard_retries: 4,
                        ..fast_resilience()
                    },
                    ..Default::default()
                },
            )
            .expect("valid test snapshot")
        };
        let plain = mk(None);
        let faulty = mk(Some(ChaosConfig {
            seed: 3,
            shard_stall_permille: 150,
            ..Default::default()
        }));
        for user in 0..10u32 {
            let (want, _) = plain.topk_traced(0, user, 10);
            let (got, t) = faulty.topk_traced(0, user, 10);
            assert_eq!(got, want, "user {user}");
            assert_eq!(t.degraded, DegradedKind::None, "user {user}");
        }
        assert!(
            faulty.stats().shard_retried.get() > 0,
            "seed 3 must inject at least one stall to absorb"
        );
        assert_eq!(faulty.stats().shard_failures.get(), 0);
    }

    #[test]
    fn chaos_schedule_is_reproducible_across_engines() {
        let mk = || {
            Engine::new(
                snapshot(100, 7),
                EngineConfig {
                    n_workers: 2,
                    shard_items: 16,
                    cache_capacity: 0,
                    chaos: Some(ChaosConfig {
                        seed: 21,
                        worker_panic_permille: 120,
                        shard_stall_permille: 120,
                        ..Default::default()
                    }),
                    resilience: ResilienceConfig {
                        shard_retries: 1,
                        ..fast_resilience()
                    },
                    ..Default::default()
                },
            )
            .expect("valid test snapshot")
        };
        let a = mk();
        let b = mk();
        for user in 0..12u32 {
            let (la, ta) = a.topk_traced(0, user, 10);
            let (lb, tb) = b.topk_traced(0, user, 10);
            assert_eq!(la, lb, "user {user}");
            assert_eq!(ta.degraded, tb.degraded, "user {user}");
        }
        let (ca, cb) = (a.chaos().unwrap(), b.chaos().unwrap());
        assert!(ca.total.get() > 0, "seed 21 must inject something");
        assert_eq!(ca.total.get(), cb.total.get());
        assert_eq!(ca.worker_panics.get(), cb.worker_panics.get());
        assert_eq!(ca.shard_stalls.get(), cb.shard_stalls.get());
        assert_eq!(
            a.stats().shard_failures.get(),
            b.stats().shard_failures.get()
        );
    }

    #[test]
    fn total_panic_storm_degrades_without_hanging() {
        let e = Engine::new(
            snapshot(100, 7),
            EngineConfig {
                n_workers: 2,
                shard_items: 16,
                cache_capacity: 0,
                chaos: Some(ChaosConfig {
                    seed: 11,
                    worker_panic_permille: 1000,
                    ..Default::default()
                }),
                resilience: ResilienceConfig {
                    shard_retries: 1,
                    ..fast_resilience()
                },
                ..Default::default()
            },
        )
        .expect("valid test snapshot");
        for user in 0..6u32 {
            let (list, t) = e.topk_traced(0, user, 10);
            assert!(list.is_empty(), "user {user}");
            assert_eq!(t.degraded, DegradedKind::Unavailable, "user {user}");
        }
        assert!(e.stats().worker_panics.get() > 0);
        assert!(e.stats().shard_failures.get() > 0);
        // default threshold 3 trips within 6 failing passes
        assert!(e.stats().breaker_opens.get() >= 1);
        assert!(e.stats().breaker_short_circuits.get() >= 1);
    }

    #[test]
    fn stale_cache_serves_when_a_pass_fails_entirely() {
        let e = Engine::new(
            snapshot(40, 7),
            EngineConfig {
                n_workers: 1,
                shard_items: 64, // single shard: a stall fails the pass
                cache_capacity: 0,
                chaos: Some(ChaosConfig {
                    seed: 2,
                    shard_stall_permille: 500,
                    ..Default::default()
                }),
                resilience: ResilienceConfig {
                    shard_retries: 0,
                    // effectively disable the breaker so every pass scores
                    breaker: BreakerConfig {
                        failure_threshold: 1000,
                        cooldown_passes: 4,
                    },
                    ..fast_resilience()
                },
                ..Default::default()
            },
        )
        .expect("valid test snapshot");
        let mut good: Option<CachedList> = None;
        let mut saw_stale = false;
        for pass in 0..30 {
            let (list, t) = e.topk_traced(0, 5, 10);
            match t.degraded {
                DegradedKind::None => good = Some(list),
                DegradedKind::Stale => {
                    assert_eq!(
                        Some(&list),
                        good.as_ref(),
                        "pass {pass}: stale must replay the last good answer"
                    );
                    saw_stale = true;
                }
                DegradedKind::Unavailable => {
                    assert!(
                        good.is_none(),
                        "pass {pass}: stale cache must be preferred once populated"
                    );
                }
                DegradedKind::Partial => {
                    unreachable!("single-shard pass cannot be partial")
                }
            }
        }
        assert!(
            saw_stale,
            "seed 2 must mix successes and failures in 30 passes"
        );
        assert!(e.stats().degraded_stale.get() > 0);
    }

    #[test]
    fn breaker_opens_after_persistent_failure_and_probes_after_cooldown() {
        let e = Engine::new(
            snapshot(40, 7),
            EngineConfig {
                n_workers: 1,
                shard_items: 64, // single shard
                cache_capacity: 0,
                chaos: Some(ChaosConfig {
                    seed: 6,
                    shard_stall_permille: 1000, // permanent outage
                    ..Default::default()
                }),
                resilience: ResilienceConfig {
                    shard_retries: 0,
                    breaker: BreakerConfig {
                        failure_threshold: 2,
                        cooldown_passes: 3,
                    },
                    ..fast_resilience()
                },
                ..Default::default()
            },
        )
        .expect("valid test snapshot");
        for i in 0..12u32 {
            let (_, t) = e.topk_traced(0, i % 10, 5);
            assert_ne!(t.degraded, DegradedKind::None, "pass {i} cannot be healthy");
        }
        let s = e.stats();
        assert!(s.breaker_opens.get() >= 1, "breaker must trip");
        assert!(
            s.breaker_short_circuits.get() >= 1,
            "open breaker must shed at least one pass"
        );
        assert!(
            s.breaker_half_opens.get() >= 1,
            "cooldown must admit a probe within 12 passes"
        );
        assert_eq!(s.breaker_closes.get(), 0, "outage never heals here");
        // conservation: every pass is failed or skipped, never both
        assert_eq!(
            s.shard_failures.get() + s.breaker_short_circuits.get(),
            12,
            "12 single-shard passes partition into failures and short-circuits"
        );
    }

    #[test]
    fn workers_absorb_their_own_panics_and_keep_serving() {
        let e = Engine::new(
            snapshot(60, 7),
            EngineConfig {
                n_workers: 2,
                shard_items: 8,
                cache_capacity: 0,
                chaos: Some(ChaosConfig {
                    seed: 4,
                    worker_panic_permille: 1000,
                    ..Default::default()
                }),
                resilience: ResilienceConfig {
                    shard_retries: 0,
                    breaker: BreakerConfig {
                        failure_threshold: 0, // keep scoring every pass
                        cooldown_passes: 1,
                    },
                    ..fast_resilience()
                },
                ..Default::default()
            },
        )
        .expect("valid test snapshot");
        for pass in 0..21u32 {
            let (list, t) = e.topk_traced(0, pass % 10, 5);
            assert!(list.is_empty(), "pass {pass}");
            assert_eq!(t.degraded, DegradedKind::Unavailable, "pass {pass}");
        }
        // With breakers disabled none trips, and every one of the 8
        // shards (60 items / 8) is attempted, panics and fails on all 21
        // passes: one caught panic per failed shard, whichever thread
        // claimed it.
        let s = e.stats();
        assert_eq!(s.breaker_opens.get(), 0);
        assert_eq!(s.breaker_half_opens.get(), 0);
        assert_eq!(s.breaker_short_circuits.get(), 0);
        assert_eq!(s.shard_failures.get(), 21 * 8);
        assert_eq!(s.worker_panics.get(), s.shard_failures.get());
        // Every worker that caught a panic went back to its queue.
        let running = e.pool.workers.iter().filter(|w| !w.is_finished()).count();
        assert_eq!(running, 2, "a worker exited after a caught panic");
    }

    #[test]
    fn injected_reload_failure_keeps_last_good_snapshot() {
        let e = Engine::new(
            snapshot(64, 7),
            EngineConfig {
                chaos: Some(ChaosConfig {
                    seed: 1,
                    reload_fail_permille: 1000,
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .expect("valid test snapshot");
        let (before, _) = e.topk_traced(0, 1, 5);
        let err = e
            .reload(snapshot(64, 99))
            .expect_err("chaos must reject the reload");
        assert!(matches!(err, CheckpointError::Format(_)), "{err:?}");
        assert_eq!(e.epoch(), 0, "failed reload must not bump the epoch");
        let (after, t) = e.topk_traced(0, 1, 5);
        assert!(t.cache_hit, "cache survives a failed reload");
        assert_eq!(before, after);
        assert_eq!(e.stats().reload_failed.get(), 1);
        assert_eq!(e.stats().reload_ok.get(), 0);
    }
}
