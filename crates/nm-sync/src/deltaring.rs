//! The telemetry flight recorder's delta-sampler ring.
//!
//! Each [`DeltaRing::tick_with`] reads a cumulative snapshot (the
//! caller's `read` closure — e.g. a metrics-registry scrape), diffs
//! it against the stored high-watermark snapshot, advances the
//! watermark to *the same snapshot the delta was computed from*, and
//! appends the delta to a bounded ring (drop-oldest). Conservation —
//! ring deltas + dropped deltas == watermark — holds only because the
//! read, the diff, and the watermark advance share one monitor
//! region; [`DeltaBug::RereadWatermark`] re-reads the snapshot for
//! the watermark advance, silently losing every event that lands
//! between the two reads.

use crate::backend::{Backend, Monitor};
use std::collections::VecDeque;

/// Default-off defect knob for the sampler (negative-suite only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaBug {
    None,
    /// The watermark advances to a *second* snapshot read, not the
    /// one the delta was computed from.
    RereadWatermark,
}

struct DeltaState<S, D> {
    prev: S,
    ticks: VecDeque<D>,
    next_tick: u64,
    dropped: u64,
}

/// A bounded ring of per-tick deltas over a cumulative source.
/// `S` is the snapshot type, `D` the delta type.
pub struct DeltaRing<S: Send, D: Send, B: Backend> {
    inner: B::Monitor<DeltaState<S, D>>,
    cap: usize,
    bug: DeltaBug,
}

impl<S: Send, D: Send, B: Backend> DeltaRing<S, D, B> {
    pub fn new(cap: usize, initial: S) -> Self {
        Self::with_bug(cap, initial, DeltaBug::None)
    }

    pub fn with_bug(cap: usize, initial: S, bug: DeltaBug) -> Self {
        Self {
            inner: B::Monitor::new(DeltaState {
                prev: initial,
                ticks: VecDeque::new(),
                next_tick: 0,
                dropped: 0,
            }),
            cap: cap.max(1),
            bug,
        }
    }

    /// One sampling tick: `read()` scrapes the cumulative source,
    /// `diff(prev, cur, tick)` computes the delta, the watermark
    /// advances to `cur`, and the delta is appended (evicting the
    /// oldest tick when full). Returns the tick ordinal. Both
    /// closures run with the monitor held.
    pub fn tick_with(
        &self,
        mut read: impl FnMut() -> S,
        diff: impl FnOnce(&S, &S, u64) -> D,
    ) -> u64 {
        self.inner.with(|st| {
            let cur = read();
            let watermark = match self.bug {
                DeltaBug::None => None,
                DeltaBug::RereadWatermark => {
                    // Defect: a second scrape for the watermark —
                    // increments landing between the two reads are in
                    // neither this delta nor any future one.
                    B::sched_point();
                    Some(read())
                }
            };
            let tick = st.next_tick;
            st.next_tick += 1;
            let d = diff(&st.prev, &cur, tick);
            st.prev = watermark.unwrap_or(cur);
            if st.ticks.len() >= self.cap {
                st.ticks.pop_front();
                st.dropped += 1;
            }
            st.ticks.push_back(d);
            tick
        })
    }

    /// Retained deltas, oldest first.
    pub fn ticks(&self) -> Vec<D>
    where
        D: Clone,
    {
        self.inner.with(|st| st.ticks.iter().cloned().collect())
    }

    /// Ticks evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.with(|st| st.dropped)
    }

    /// Ordinal the next tick will get (== ticks taken so far).
    pub fn next_tick(&self) -> u64 {
        self.inner.with(|st| st.next_tick)
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StdBackend;

    type Ring = DeltaRing<u64, u64, StdBackend>;

    #[test]
    fn deltas_conserve_the_counter() {
        let ring = Ring::new(8, 0);
        let mut counter = 0u64;
        let mut emitted = 0u64;
        for add in [3u64, 0, 7, 2] {
            counter += add;
            let c = counter;
            ring.tick_with(|| c, |prev, cur, _| cur - prev);
        }
        for d in ring.ticks() {
            emitted += d;
        }
        assert_eq!(emitted, counter, "ring must conserve every increment");
        assert_eq!(ring.ticks(), vec![3, 0, 7, 2]);
    }

    #[test]
    fn capacity_drops_oldest_and_counts() {
        let ring = Ring::new(2, 0);
        let mut counter = 0u64;
        for add in [1u64, 2, 3, 4] {
            counter += add;
            let c = counter;
            ring.tick_with(|| c, |prev, cur, _| cur - prev);
        }
        assert_eq!(ring.ticks(), vec![3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.next_tick(), 4);
    }

    #[test]
    fn tick_ordinals_are_sequential() {
        let ring = Ring::new(4, 0);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let t = ring.tick_with(|| 0, |_, _, tick| tick);
            seen.push(t);
        }
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(ring.ticks(), vec![0, 1, 2], "diff sees the same ordinal");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = Ring::new(0, 0);
        assert_eq!(ring.capacity(), 1);
        ring.tick_with(|| 5, |p, c, _| c - p);
        ring.tick_with(|| 9, |p, c, _| c - p);
        assert_eq!(ring.ticks(), vec![4]);
        assert_eq!(ring.dropped(), 1);
    }
}
