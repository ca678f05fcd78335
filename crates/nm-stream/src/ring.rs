//! Bounded drop-oldest ring buffer between the event log and the
//! delta fine-tuner.
//!
//! The ring is deliberately simple and fully deterministic: events
//! enter in log order, the oldest are evicted when capacity is
//! exceeded, and the tuner drains up to its micro-batch budget per
//! round. Because its entire history is a fold over the event log,
//! [`RingBuffer::rebuild`] can reconstruct the exact post-round-`N`
//! state after a crash or rollback by replaying the log — no separate
//! persistence needed. The ring is single-threaded: the tuner owns it
//! and folds each round into it through `&mut self`, so it has no
//! concurrent protocol to check.

use crate::source::{EventLog, StreamEvent};
use std::collections::VecDeque;

/// Bounded FIFO of not-yet-trained interactions.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    buf: VecDeque<StreamEvent>,
    cap: usize,
    pushed: u64,
    dropped: u64,
    drained: u64,
}

impl RingBuffer {
    pub fn new(cap: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(cap.min(4096)),
            cap: cap.max(1),
            pushed: 0,
            dropped: 0,
            drained: 0,
        }
    }

    /// Enqueues one event, evicting the oldest if full.
    pub fn push(&mut self, ev: StreamEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
        self.pushed += 1;
    }

    /// Enqueues a whole round in log order.
    pub fn push_round(&mut self, events: &[StreamEvent]) {
        for &ev in events {
            self.push(ev);
        }
    }

    /// Dequeues up to `max` oldest events (the tuner's micro-batch).
    pub fn drain(&mut self, max: usize) -> Vec<StreamEvent> {
        let n = max.min(self.buf.len());
        let out: Vec<StreamEvent> = self.buf.drain(..n).collect();
        self.drained += out.len() as u64;
        out
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Lifetime counters `(pushed, dropped, drained)`; the invariant
    /// `pushed == dropped + drained + len` always holds.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.pushed, self.dropped, self.drained)
    }

    /// Reconstructs the ring exactly as it stood after the tuner
    /// consumed rounds `0..upto_round`, by replaying the event log
    /// with the same per-round push/drain cadence the live loop uses.
    pub fn rebuild(log: &EventLog, upto_round: usize, microbatch_max: usize, cap: usize) -> Self {
        let mut ring = Self::new(cap);
        for r in 0..upto_round.min(log.rounds()) {
            ring.push_round(log.round(r));
            ring.drain(microbatch_max);
        }
        ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(user: u32) -> StreamEvent {
        StreamEvent {
            round: 0,
            ts_us: user as u64,
            domain: 0,
            user,
            item: user,
            converted: false,
        }
    }

    #[test]
    fn drop_oldest_and_counters() {
        let mut r = RingBuffer::new(3);
        for u in 0..5 {
            r.push(ev(u));
        }
        assert_eq!(r.len(), 3);
        let got = r.drain(10);
        assert_eq!(
            got.iter().map(|e| e.user).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        let (pushed, dropped, drained) = r.counters();
        assert_eq!((pushed, dropped, drained), (5, 2, 3));
        assert_eq!(pushed, dropped + drained + r.len() as u64);
    }

    #[test]
    fn drain_respects_budget() {
        let mut r = RingBuffer::new(8);
        for u in 0..6 {
            r.push(ev(u));
        }
        assert_eq!(r.drain(4).len(), 4);
        assert_eq!(r.len(), 2);
        assert_eq!(r.drain(4).len(), 2);
        assert!(r.is_empty());
    }
}
