//! Shared building blocks for the baseline models.

use crate::{CdrTask, Domain};
use nm_tensor::Tensor;
use std::rc::Rc;

/// A merged user-id space across both domains where *known*-overlapped
/// users collapse to a single identity.
///
/// This is how the multi-task and fully-overlapping CDR baselines
/// exploit overlap: one shared embedding row per real person. At low
/// `K_u` almost nothing merges, which is exactly why those baselines
/// degrade — the effect the paper's Tables II–V measure.
#[derive(Debug, Clone)]
pub struct SharedUserIndex {
    /// Global id for each user of A.
    pub a_to_global: Vec<u32>,
    /// Global id for each user of B.
    pub b_to_global: Vec<u32>,
    /// Total global ids.
    pub n_global: usize,
}

impl SharedUserIndex {
    pub fn build(task: &CdrTask) -> Self {
        let n_a = task.split_a.n_users;
        let n_b = task.split_b.n_users;
        // A-users keep their ids; B-users either reuse an overlapped A id
        // or get a fresh id after n_a.
        let a_to_global: Vec<u32> = (0..n_a as u32).collect();
        let mut b_to_global = vec![0u32; n_b];
        let mut next = n_a as u32;
        for (b, slot) in b_to_global.iter_mut().enumerate() {
            match task.overlap_b_to_a[b] {
                Some(a) => *slot = a,
                None => {
                    *slot = next;
                    next += 1;
                }
            }
        }
        Self {
            a_to_global,
            b_to_global,
            n_global: next as usize,
        }
    }

    /// Maps a batch of domain-local user ids to global ids.
    pub fn map(&self, domain: Domain, users: &[u32]) -> Vec<u32> {
        let table = match domain {
            Domain::A => &self.a_to_global,
            Domain::B => &self.b_to_global,
        };
        users.iter().map(|&u| table[u as usize]).collect()
    }
}

/// Builds the 0/1 target tensor for a batch's labels.
pub fn label_tensor(labels: &[f32]) -> Rc<Tensor> {
    Rc::new(Tensor::col(labels.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use nm_data::{generate::generate, Scenario};

    fn task() -> Rc<CdrTask> {
        let mut cfg = Scenario::PhoneElec.config(0.003);
        cfg.n_users_a = 100;
        cfg.n_users_b = 90;
        cfg.n_items_a = 50;
        cfg.n_items_b = 40;
        cfg.n_overlap = 30;
        CdrTask::build(generate(&cfg), TaskConfig::default())
    }

    #[test]
    fn shared_index_merges_overlapped() {
        let t = task();
        let idx = SharedUserIndex::build(&t);
        assert_eq!(idx.n_global, 100 + 90 - 30);
        for &(a, b) in &t.dataset.overlap {
            assert_eq!(idx.a_to_global[a as usize], idx.b_to_global[b as usize]);
        }
    }

    #[test]
    fn shared_index_keeps_non_overlapped_distinct() {
        let t = task();
        let idx = SharedUserIndex::build(&t);
        let mut seen = std::collections::HashSet::new();
        for &b in &t.non_overlap_b {
            assert!(seen.insert(idx.b_to_global[b as usize]));
            assert!(idx.b_to_global[b as usize] >= 100);
        }
    }

    #[test]
    fn shared_index_respects_overlap_ratio() {
        let t0 = {
            let mut cfg = Scenario::PhoneElec.config(0.003);
            cfg.n_users_a = 100;
            cfg.n_users_b = 90;
            cfg.n_items_a = 50;
            cfg.n_items_b = 40;
            cfg.n_overlap = 30;
            let data = generate(&cfg).with_overlap_ratio(0.0, 1);
            CdrTask::build(data, TaskConfig::default())
        };
        let idx = SharedUserIndex::build(&t0);
        assert_eq!(idx.n_global, 190); // nothing merges
    }
}
