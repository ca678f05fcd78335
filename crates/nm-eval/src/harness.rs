//! Leave-one-out ranking evaluation harness.

use crate::metrics;
use nm_data::negative::EvalCandidates;

/// A model-agnostic scorer: given parallel `(user, item)` arrays, return
/// an affinity score per pair. Implemented by every model in
/// `nm-models` and `nmcdr-core` via their frozen embeddings.
pub trait Scorer {
    fn score(&self, users: &[u32], items: &[u32]) -> Vec<f32>;
}

impl<F> Scorer for F
where
    F: Fn(&[u32], &[u32]) -> Vec<f32>,
{
    fn score(&self, users: &[u32], items: &[u32]) -> Vec<f32> {
        self(users, items)
    }
}

/// Total order for ranked `(item, score)` pairs: score descending, then
/// item id ascending. Breaking score ties by id makes every ranking in
/// the workspace — offline audits here and the serving engine's top-K
/// selection — deterministic and mutually comparable. NaN scores rank
/// after every number, so the order stays total (as `sort_by` and
/// `select_nth_unstable_by` require) whatever a snapshot or model
/// produces.
pub fn rank_order(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or_else(|| a.1.is_nan().cmp(&b.1.is_nan()))
        .then_with(|| a.0.cmp(&b.0))
}

/// The top `k` of `(item, score)` pairs under [`rank_order`], sorted
/// best-first. NaN scores rank last, tied among themselves by id.
pub fn top_k(pairs: &[(u32, f32)], k: usize) -> Vec<(u32, f32)> {
    let mut v = pairs.to_vec();
    v.sort_by(rank_order);
    v.truncate(k);
    v
}

/// Aggregated leave-one-out ranking results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingSummary {
    /// Mean HR@k over test users (percentage points 0–100).
    pub hr: f64,
    /// Mean NDCG@k over test users (percentage points 0–100).
    pub ndcg: f64,
    /// Mean reciprocal rank (0–1).
    pub mrr: f64,
    /// Mean AUC (0–1).
    pub auc: f64,
    /// Number of evaluated users.
    pub n_users: usize,
}

impl RankingSummary {
    /// An empty summary (no test users).
    pub fn empty() -> Self {
        Self {
            hr: 0.0,
            ndcg: 0.0,
            mrr: 0.0,
            auc: 0.0,
            n_users: 0,
        }
    }
}

/// Scores every candidate list with `scorer` and averages HR@k / NDCG@k
/// / MRR / AUC. Batch-scores one user's candidates at a time (the lists
/// are only 200 long).
pub fn evaluate_ranking(
    scorer: &dyn Scorer,
    candidates: &[EvalCandidates],
    k: usize,
) -> RankingSummary {
    if candidates.is_empty() {
        return RankingSummary::empty();
    }
    let (mut hr, mut ndcg, mut mrr, mut auc) = (0.0, 0.0, 0.0, 0.0);
    for c in candidates {
        let users = vec![c.user; c.items.len()];
        let scores = scorer.score(&users, &c.items);
        assert_eq!(
            scores.len(),
            c.items.len(),
            "scorer returned {} scores for {} items",
            scores.len(),
            c.items.len()
        );
        hr += metrics::hit_rate_at(&scores, k);
        ndcg += metrics::ndcg_at(&scores, k);
        mrr += metrics::mrr(&scores);
        auc += metrics::auc(&scores);
    }
    let n = candidates.len() as f64;
    RankingSummary {
        hr: 100.0 * hr / n,
        ndcg: 100.0 * ndcg / n,
        mrr: mrr / n,
        auc: auc / n,
        n_users: candidates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<EvalCandidates> {
        vec![
            EvalCandidates {
                user: 0,
                items: vec![5, 1, 2, 3],
            },
            EvalCandidates {
                user: 1,
                items: vec![7, 8, 9, 10],
            },
        ]
    }

    #[test]
    fn oracle_scorer_gets_perfect_metrics() {
        // scores item 5 and 7 (the positives) highest
        let scorer = |_u: &[u32], items: &[u32]| -> Vec<f32> {
            items
                .iter()
                .map(|&i| if i == 5 || i == 7 { 1.0 } else { 0.0 })
                .collect()
        };
        let s = evaluate_ranking(&scorer, &candidates(), 10);
        assert_eq!(s.hr, 100.0);
        assert_eq!(s.ndcg, 100.0);
        assert_eq!(s.mrr, 1.0);
        assert_eq!(s.auc, 1.0);
        assert_eq!(s.n_users, 2);
    }

    #[test]
    fn adversarial_scorer_gets_zero_ndcg_at_1() {
        let scorer = |_u: &[u32], items: &[u32]| -> Vec<f32> {
            items
                .iter()
                .map(|&i| if i == 5 || i == 7 { -1.0 } else { 1.0 })
                .collect()
        };
        let s = evaluate_ranking(&scorer, &candidates(), 1);
        assert_eq!(s.hr, 0.0);
        assert_eq!(s.auc, 0.0);
    }

    #[test]
    fn random_scorer_hr_near_k_over_n() {
        // With 200 candidates and k=10, a random scorer hits ~5%.
        let cands: Vec<EvalCandidates> = (0..400)
            .map(|u| EvalCandidates {
                user: u,
                items: (0..200).map(|i| (u * 200 + i) % 1000).collect(),
            })
            .collect();
        let scorer = |users: &[u32], items: &[u32]| -> Vec<f32> {
            users
                .iter()
                .zip(items)
                .map(|(&u, &i)| {
                    // deterministic pseudo-random hash
                    let h = (u.wrapping_mul(2654435761)).wrapping_add(i.wrapping_mul(40503));
                    (h % 10007) as f32
                })
                .collect()
        };
        let s = evaluate_ranking(&scorer, &cands, 10);
        assert!(s.hr > 1.5 && s.hr < 10.0, "random HR@10 was {}", s.hr);
        assert!((s.auc - 0.5).abs() < 0.08, "random AUC was {}", s.auc);
    }

    #[test]
    fn empty_candidates_give_empty_summary() {
        let scorer = |_: &[u32], items: &[u32]| vec![0.0; items.len()];
        let s = evaluate_ranking(&scorer, &[], 10);
        assert_eq!(s.n_users, 0);
    }

    #[test]
    fn top_k_breaks_ties_by_item_id() {
        let pairs = vec![(9, 1.0), (2, 2.0), (7, 1.0), (1, 1.0), (5, 0.5)];
        let top = top_k(&pairs, 4);
        assert_eq!(top, vec![(2, 2.0), (1, 1.0), (7, 1.0), (9, 1.0)]);
    }

    #[test]
    fn top_k_handles_nan_and_short_input() {
        let pairs = vec![(3, f32::NAN), (1, 1.0), (2, f32::NAN)];
        let top = top_k(&pairs, 10);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (1, 1.0));
        // Enough pairs that `sort_by` leaves its small-slice path, with a
        // NaN on the lowest id: NaNs rank after every number, by id.
        let nan_ids = [0u32, 17, 40, 63];
        let pairs: Vec<(u32, f32)> = (0..64u32)
            .map(|i| {
                let score = if nan_ids.contains(&i) {
                    f32::NAN
                } else {
                    ((i * 37) % 11) as f32 - 5.0
                };
                (i, score)
            })
            .collect();
        let top = top_k(&pairs, 64);
        let tail: Vec<u32> = top[60..].iter().map(|p| p.0).collect();
        assert_eq!(tail, nan_ids);
        for w in top[..60].windows(2) {
            assert!(rank_order(&w[0], &w[1]).is_lt(), "{w:?}");
        }
    }

    #[test]
    fn rank_order_is_total_and_deterministic() {
        let mut a = vec![(4, 0.3), (2, 0.3), (9, 0.9), (1, 0.3)];
        let mut b = a.clone();
        b.reverse(); // different starting permutation, same final order
        a.sort_by(rank_order);
        b.sort_by(rank_order);
        assert_eq!(a, b);
        assert_eq!(a[0].0, 9);
        assert_eq!(&a[1..], &[(1, 0.3), (2, 0.3), (4, 0.3)]);
    }
}
