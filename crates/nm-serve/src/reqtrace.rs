//! Per-request tracing: stage timings, the slowest-N exemplar ring,
//! and rendering exemplars back into the schema-v1 trace format.
//!
//! Every request the server handles gets a deterministic id (a single
//! atomic counter) and a [`StageUs`] breakdown measured with
//! [`nm_obs::clock`]: parse → cache lookup → coalesce wait → shard
//! fan-out → top-K merge → serialize. The slowest requests are retained
//! in a bounded [`ExemplarRing`] and exposed by the `{"op":"trace"}`
//! wire request.
//!
//! Stage semantics:
//!
//! * `coalesce` is the *exclusive* wait of a follower request — time
//!   parked on the batch leader minus the shared pass's fan-out and
//!   merge time, which are reported in their own stages. A batch
//!   leader has `coalesce == 0`.
//! * `fanout`/`merge` for a coalesced request describe the shared
//!   scoring pass that produced its answer (they are batch-level, not
//!   exclusive to this request).
//! * A leader that kept draining the queue after its own result spends
//!   that extra time leading other batches; it shows up as root-span
//!   self time, not as a stage.
//!
//! [`render_trace`] lays each exemplar out as one synthetic thread
//! (`tid` = request id): the stage spans in wall order, one typed
//! `serve.exemplar` event carrying queue depth / lock wait / shed
//! state, then the `serve.request` root span. The output passes the
//! strict `nmcdr obs validate` schema, so every offline tool
//! (`obs report`, `obs flame`) works on serving exemplars unchanged.

use nm_obs::trace::{event_line, meta_line, span_line, EventBuilder};
use nm_sync::{Ranked, SlowRing, StdBackend};

/// Per-stage elapsed microseconds of one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageUs {
    pub parse: u64,
    pub cache: u64,
    pub coalesce: u64,
    pub fanout: u64,
    pub merge: u64,
    pub serialize: u64,
}

impl StageUs {
    /// Stage names and values in request wall order.
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("serve.parse", self.parse),
            ("serve.cache", self.cache),
            ("serve.coalesce", self.coalesce),
            ("serve.fanout", self.fanout),
            ("serve.merge", self.merge),
            ("serve.serialize", self.serialize),
        ]
    }

    pub fn sum(&self) -> u64 {
        self.named().iter().map(|(_, v)| v).sum()
    }
}

/// How a request's answer was degraded (`None` = full fidelity).
/// Degraded answers are never cached under the live epoch, so a
/// recovered engine re-scores them at full fidelity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradedKind {
    /// Full-fidelity answer from a healthy scoring pass.
    #[default]
    None,
    /// The scoring pass lost shards (failed or breaker-skipped); the
    /// answer covers only the surviving slice of the catalog.
    Partial,
    /// Served from the epoch-agnostic stale cache: the last good
    /// answer for this `(user, domain, k)`, possibly from an older
    /// snapshot.
    Stale,
    /// No fallback available; an empty list was returned.
    Unavailable,
}

impl DegradedKind {
    /// Wire/trace label (the `reason` field of a degraded response).
    pub fn as_str(&self) -> &'static str {
        match self {
            DegradedKind::None => "none",
            DegradedKind::Partial => "partial",
            DegradedKind::Stale => "stale",
            DegradedKind::Unavailable => "unavailable",
        }
    }
}

/// Stage timing the engine measures for one `topk` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReqTiming {
    /// Cache probe duration.
    pub cache_us: u64,
    /// Time to acquire the domain queue lock (lock-held time of
    /// whoever held it before us).
    pub lock_us: u64,
    /// Requests already pending in the domain queue at enqueue.
    pub queue_depth: u64,
    /// Total time parked on the batch leader (0 for the leader).
    pub coalesce_us: u64,
    /// Shared scoring pass: shard fan-out (submit + work + latch).
    pub fanout_us: u64,
    /// Shared scoring pass: sort/truncate merge of candidate pools.
    pub merge_us: u64,
    pub cache_hit: bool,
    /// True when this request was served by another thread's batch.
    pub coalesced: bool,
    /// Snapshot epoch the answer came from: the epoch of the scoring
    /// pass that produced it (taken once per coalesced batch, coherent
    /// with the snapshot the pass scored), or the lookup epoch on a
    /// cache hit.
    pub epoch: u64,
    /// Degradation of this answer (shed shards, stale fallback, …).
    pub degraded: DegradedKind,
    /// True when the request's deadline expired before a full answer
    /// was ready (the response is whatever degraded mode was reachable
    /// within budget).
    pub deadline_hit: bool,
}

/// One captured slow request.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    pub id: u64,
    pub domain: usize,
    pub user: u32,
    pub k: usize,
    /// Request start in the [`nm_obs::clock`] domain.
    pub start_us: u64,
    pub total_us: u64,
    pub stages: StageUs,
    pub queue_depth: u64,
    pub lock_us: u64,
    pub cache_hit: bool,
    pub coalesced: bool,
    /// Value of the shed counter when this request was captured.
    pub shed_seen: u64,
}

/// The ring ranks exemplars by total latency; the request id doubles
/// as the tiebreak identity (ties keep the older entry, so the
/// retained set is deterministic for a deterministic request
/// sequence).
impl Ranked for Exemplar {
    fn weight(&self) -> u64 {
        self.total_us
    }

    fn seq(&self) -> u64 {
        self.id
    }
}

/// Bounded ring retaining the slowest-N requests by `total_us`. A new
/// exemplar evicts the current fastest entry once the ring is full.
/// The ring algorithm itself is [`nm_sync::SlowRing`] — instantiated
/// here with the zero-cost std backend, and model-checked as-is by
/// `nmcdr check` under the virtual backend.
pub struct ExemplarRing {
    ring: SlowRing<Exemplar, StdBackend>,
}

impl ExemplarRing {
    pub fn new(cap: usize) -> Self {
        Self {
            ring: SlowRing::new(cap),
        }
    }

    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Allocates the next request id (deterministic: 0, 1, 2, …).
    pub fn next_id(&self) -> u64 {
        self.ring.next_seq()
    }

    /// Offers an exemplar; keeps it only if the ring has room or it is
    /// slower than the current fastest retained entry.
    pub fn record(&self, ex: Exemplar) {
        self.ring.record(ex);
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Retained exemplars, slowest first (ties by id ascending).
    pub fn slowest(&self) -> Vec<Exemplar> {
        self.ring.snapshot()
    }
}

/// Renders exemplars as one schema-v1 trace document (line-JSON).
///
/// Each exemplar becomes its own synthetic thread (`tid` = request id):
/// the non-zero stage spans laid out back-to-back from the request
/// start, a `serve.exemplar` event with the typed context fields at
/// the request end, and finally the `serve.request` root span whose
/// self time is the instrumentation-uncovered remainder. Stage
/// durations are clamped so children never outrun the root, keeping
/// the output valid under the strict `obs validate` rules.
pub fn render_trace(exemplars: &[Exemplar]) -> String {
    // every line's seq is its index: the meta line is seq 0
    let mut lines = vec![meta_line(0)];
    for ex in exemplars {
        let tid = ex.id;
        let mut off = 0u64;
        for (name, dur) in ex.stages.named() {
            let dur = dur.min(ex.total_us.saturating_sub(off));
            if dur == 0 {
                continue;
            }
            let seq = lines.len() as u64;
            lines.push(span_line(name, ex.start_us + off, dur, dur, 1, tid, seq));
            off += dur;
        }
        let mut f = EventBuilder::default();
        f.u("id", ex.id)
            .u("domain", ex.domain as u64)
            .u("user", u64::from(ex.user))
            .u("k", ex.k as u64)
            .u("queue_depth", ex.queue_depth)
            .u("lock_us", ex.lock_us)
            .b("cache_hit", ex.cache_hit)
            .b("coalesced", ex.coalesced)
            .u("shed", ex.shed_seen);
        let end_us = ex.start_us + ex.total_us;
        let seq = lines.len() as u64;
        lines.push(event_line("serve.exemplar", end_us, tid, seq, &f));
        let seq = lines.len() as u64;
        let self_us = ex.total_us.saturating_sub(off);
        lines.push(span_line(
            "serve.request",
            ex.start_us,
            ex.total_us,
            self_us,
            0,
            tid,
            seq,
        ));
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_obs::parse::parse_trace;
    use nm_obs::report::validate;

    fn exemplar(id: u64, total_us: u64) -> Exemplar {
        Exemplar {
            id,
            domain: 0,
            user: id as u32,
            k: 10,
            start_us: 1_000 * id,
            total_us,
            stages: StageUs {
                parse: total_us / 10,
                cache: total_us / 10,
                coalesce: 0,
                fanout: total_us / 2,
                merge: total_us / 5,
                serialize: total_us / 10,
            },
            queue_depth: 3,
            lock_us: 2,
            cache_hit: false,
            coalesced: false,
            shed_seen: 0,
        }
    }

    #[test]
    fn ring_retains_the_slowest_n() {
        let ring = ExemplarRing::new(3);
        for (id, total) in [(0, 50), (1, 500), (2, 30), (3, 200), (4, 100), (5, 40)] {
            ring.record(exemplar(id, total));
        }
        let slowest = ring.slowest();
        let kept: Vec<(u64, u64)> = slowest.iter().map(|e| (e.id, e.total_us)).collect();
        assert_eq!(kept, vec![(1, 500), (3, 200), (4, 100)]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn ring_tie_keeps_the_older_entry() {
        let ring = ExemplarRing::new(1);
        ring.record(exemplar(0, 100));
        ring.record(exemplar(1, 100)); // equal total: not strictly slower
        assert_eq!(ring.slowest()[0].id, 0);
        ring.record(exemplar(2, 101));
        assert_eq!(ring.slowest()[0].id, 2);
    }

    #[test]
    fn ids_are_deterministic() {
        let ring = ExemplarRing::new(4);
        assert_eq!(ring.next_id(), 0);
        assert_eq!(ring.next_id(), 1);
        assert_eq!(ring.next_id(), 2);
    }

    #[test]
    fn rendered_trace_passes_strict_validation() {
        let exs = vec![exemplar(7, 1_000), exemplar(3, 500)];
        let text = render_trace(&exs);
        let recs = parse_trace(&text).expect("strict parse");
        let s = validate(&recs).expect("structurally valid");
        // 5 non-zero stages + 1 root per exemplar
        assert_eq!(s.spans, 12);
        assert_eq!(s.events, 2);
    }

    #[test]
    fn rendered_stage_time_is_conserved() {
        let exs = vec![exemplar(0, 1_000)];
        let text = render_trace(&exs);
        let recs = parse_trace(&text).unwrap();
        let folded = nm_obs::flame::fold(&recs);
        // folded self-time sums exactly to the root span duration
        assert_eq!(nm_obs::flame::total_us(&folded), 1_000);
        let collapsed = nm_obs::flame::render_collapsed(&folded);
        assert!(
            collapsed.contains("serve.request;serve.merge 200"),
            "{collapsed}"
        );
    }

    #[test]
    fn oversized_stages_are_clamped_to_the_root() {
        let mut ex = exemplar(0, 100);
        ex.stages.fanout = 10_000; // lying stage must not outrun the root
        let text = render_trace(&[ex]);
        let recs = parse_trace(&text).unwrap();
        validate(&recs).expect("clamped trace stays valid");
    }

    #[test]
    fn empty_ring_renders_a_valid_empty_trace() {
        let text = render_trace(&[]);
        let recs = parse_trace(&text).unwrap();
        let s = validate(&recs).unwrap();
        assert_eq!(s.spans, 0);
        assert_eq!(s.events, 0);
    }
}
