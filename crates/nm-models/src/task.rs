//! Task packaging: everything a model needs to train and evaluate on
//! one CDR scenario instance.

use nm_data::negative::{eval_candidates, valid_candidates, EvalCandidates};
use nm_data::split::leave_one_out_with_valid;
use nm_data::{leave_one_out, CdrDataset, SplitDomain};
use nm_graph::{BipartiteGraph, Csr, HeadTailPartition};
use std::rc::Rc;

/// Knobs for task assembly (evaluation protocol + graph construction).
#[derive(Debug, Clone)]
pub struct TaskConfig {
    /// Negatives per test positive (paper: 199).
    pub eval_negatives: usize,
    /// Head/tail threshold `K_head` (paper: 7).
    pub k_head: usize,
    /// Minimum training interactions for a user to be evaluated.
    pub min_train: usize,
    /// Also hold out a validation positive per eligible user
    /// (enables early stopping in the trainer).
    pub validation: bool,
    /// Seed for split/negative sampling.
    pub seed: u64,
}

impl Default for TaskConfig {
    fn default() -> Self {
        Self {
            eval_negatives: 199,
            k_head: 7,
            min_train: 2,
            validation: false,
            seed: 7,
        }
    }
}

/// One fully-prepared CDR task instance.
///
/// Graphs are built from **training interactions only** — the held-out
/// test pair never leaks into message passing.
pub struct CdrTask {
    pub dataset: CdrDataset,
    pub config: TaskConfig,
    pub split_a: SplitDomain,
    pub split_b: SplitDomain,
    pub graph_a: BipartiteGraph,
    pub graph_b: BipartiteGraph,
    pub partition_a: HeadTailPartition,
    pub partition_b: HeadTailPartition,
    /// Known alignment A→B / B→A (None for non-overlapped users).
    pub overlap_a_to_b: Vec<Option<u32>>,
    pub overlap_b_to_a: Vec<Option<u32>>,
    pub non_overlap_a: Vec<u32>,
    pub non_overlap_b: Vec<u32>,
    pub eval_a: Vec<EvalCandidates>,
    pub eval_b: Vec<EvalCandidates>,
    /// Validation candidates (empty when `config.validation` is off).
    pub valid_eval_a: Vec<EvalCandidates>,
    pub valid_eval_b: Vec<EvalCandidates>,
    /// Normalized user→item adjacency + transpose, shared with tapes.
    pub ui_norm_a: Rc<Csr>,
    pub ui_norm_a_t: Rc<Csr>,
    pub ui_norm_b: Rc<Csr>,
    pub ui_norm_b_t: Rc<Csr>,
    /// Normalized item→user adjacency + transpose (items aggregating
    /// from users, used by 2-layer encoders).
    pub iu_norm_a: Rc<Csr>,
    pub iu_norm_a_t: Rc<Csr>,
    pub iu_norm_b: Rc<Csr>,
    pub iu_norm_b_t: Rc<Csr>,
}

impl CdrTask {
    /// Assembles a task from a dataset: leave-one-out split, train-only
    /// graphs, head/tail partitions, overlap maps, eval candidates.
    pub fn build(dataset: CdrDataset, config: TaskConfig) -> Rc<CdrTask> {
        let (split_a, split_b) = if config.validation {
            (
                leave_one_out_with_valid(&dataset.domain_a, config.min_train),
                leave_one_out_with_valid(&dataset.domain_b, config.min_train),
            )
        } else {
            (
                leave_one_out(&dataset.domain_a, config.min_train),
                leave_one_out(&dataset.domain_b, config.min_train),
            )
        };
        let graph_a =
            BipartiteGraph::from_interactions(split_a.n_users, split_a.n_items, &split_a.train);
        let graph_b =
            BipartiteGraph::from_interactions(split_b.n_users, split_b.n_items, &split_b.train);
        let partition_a = HeadTailPartition::new(&graph_a.user_degrees(), config.k_head);
        let partition_b = HeadTailPartition::new(&graph_b.user_degrees(), config.k_head);
        let eval_a = eval_candidates(&split_a, config.eval_negatives, config.seed);
        let eval_b = eval_candidates(&split_b, config.eval_negatives, config.seed ^ 1);
        let valid_eval_a = valid_candidates(&split_a, config.eval_negatives, config.seed);
        let valid_eval_b = valid_candidates(&split_b, config.eval_negatives, config.seed ^ 1);
        let overlap_a_to_b = dataset.overlap_map_a_to_b();
        let overlap_b_to_a = dataset.overlap_map_b_to_a();
        let non_overlap_a = dataset.non_overlapped_a();
        let non_overlap_b = dataset.non_overlapped_b();
        let ui_norm_a = Rc::new(graph_a.user_item_norm().clone());
        let ui_norm_a_t = Rc::new(ui_norm_a.transpose());
        let ui_norm_b = Rc::new(graph_b.user_item_norm().clone());
        let ui_norm_b_t = Rc::new(ui_norm_b.transpose());
        let iu_norm_a = Rc::new(graph_a.item_user_norm().clone());
        let iu_norm_a_t = Rc::new(iu_norm_a.transpose());
        let iu_norm_b = Rc::new(graph_b.item_user_norm().clone());
        let iu_norm_b_t = Rc::new(iu_norm_b.transpose());
        Rc::new(CdrTask {
            dataset,
            config,
            split_a,
            split_b,
            graph_a,
            graph_b,
            partition_a,
            partition_b,
            overlap_a_to_b,
            overlap_b_to_a,
            non_overlap_a,
            non_overlap_b,
            eval_a,
            eval_b,
            valid_eval_a,
            valid_eval_b,
            ui_norm_a,
            ui_norm_a_t,
            ui_norm_b,
            ui_norm_b_t,
            iu_norm_a,
            iu_norm_a_t,
            iu_norm_b,
            iu_norm_b_t,
        })
    }

    pub fn n_users(&self, domain: crate::Domain) -> usize {
        match domain {
            crate::Domain::A => self.split_a.n_users,
            crate::Domain::B => self.split_b.n_users,
        }
    }

    pub fn n_items(&self, domain: crate::Domain) -> usize {
        match domain {
            crate::Domain::A => self.split_a.n_items,
            crate::Domain::B => self.split_b.n_items,
        }
    }

    pub fn split(&self, domain: crate::Domain) -> &SplitDomain {
        match domain {
            crate::Domain::A => &self.split_a,
            crate::Domain::B => &self.split_b,
        }
    }

    pub fn eval(&self, domain: crate::Domain) -> &[EvalCandidates] {
        match domain {
            crate::Domain::A => &self.eval_a,
            crate::Domain::B => &self.eval_b,
        }
    }

    /// Number of *known* overlapped users.
    pub fn n_overlap(&self) -> usize {
        self.dataset.overlap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_data::{generate::generate, Scenario};

    fn tiny_task() -> Rc<CdrTask> {
        let mut cfg = Scenario::ClothSport.config(0.003);
        cfg.n_users_a = 120;
        cfg.n_users_b = 150;
        cfg.n_items_a = 60;
        cfg.n_items_b = 70;
        cfg.n_overlap = 40;
        let data = generate(&cfg);
        CdrTask::build(data, TaskConfig::default())
    }

    #[test]
    fn graphs_built_from_train_only() {
        let t = tiny_task();
        assert_eq!(t.graph_a.n_interactions(), t.split_a.train.len());
        // held-out pairs absent from the graph
        for &(u, i) in &t.split_a.test {
            assert!(
                !t.graph_a.items_of(u as usize).contains(&i),
                "test pair ({u},{i}) leaked into the training graph"
            );
        }
    }

    #[test]
    fn eval_candidates_cover_test_users() {
        let t = tiny_task();
        assert_eq!(t.eval_a.len(), t.split_a.test.len());
        // small catalogue clamps the 199-negative protocol; every list is
        // as long as the catalogue allows and never exceeds 200
        for (c, &(u, _)) in t.eval_a.iter().zip(&t.split_a.test) {
            assert!(c.items.len() <= 200);
            let known = t.graph_a.items_of(u as usize).len();
            assert!(c.items.len() >= t.split_a.n_items - known - 1);
        }
    }

    #[test]
    fn overlap_maps_and_pools_partition_users() {
        let t = tiny_task();
        let known = t.dataset.overlap.len();
        assert_eq!(t.non_overlap_a.len(), t.split_a.n_users - known);
        assert_eq!(t.non_overlap_b.len(), t.split_b.n_users - known);
    }

    #[test]
    fn adjacency_rcs_are_consistent() {
        let t = tiny_task();
        assert_eq!(t.ui_norm_a.n_rows(), t.split_a.n_users);
        assert_eq!(t.ui_norm_a.n_cols(), t.split_a.n_items);
        assert_eq!(t.ui_norm_a_t.n_rows(), t.split_a.n_items);
        assert_eq!(t.iu_norm_a.n_rows(), t.split_a.n_items);
    }

    #[test]
    fn validation_config_builds_valid_candidates() {
        let mut cfg = Scenario::ClothSport.config(0.003);
        cfg.n_users_a = 120;
        cfg.n_users_b = 150;
        cfg.n_items_a = 60;
        cfg.n_items_b = 70;
        cfg.n_overlap = 40;
        let data = generate(&cfg);
        let tc = TaskConfig {
            validation: true,
            ..Default::default()
        };
        let t = CdrTask::build(data, tc);
        assert!(!t.valid_eval_a.is_empty());
        assert_eq!(t.valid_eval_a.len(), t.split_a.valid.len());
        // validation pairs never leak into the train graph
        for &(u, i) in &t.split_a.valid {
            assert!(!t.graph_a.items_of(u as usize).contains(&i));
        }
    }

    #[test]
    fn partitions_have_both_classes() {
        let t = tiny_task();
        assert!(!t.partition_a.head_users().is_empty());
        assert!(!t.partition_a.tail_users().is_empty());
    }
}
