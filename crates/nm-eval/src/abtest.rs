//! Simulated online A/B testing (Tables VII–VIII).
//!
//! The paper's online experiment ran on MYbank's serving platform —
//! unavailable by definition. This module reproduces its *shape*: a
//! hidden ground-truth conversion model, several policy arms splitting
//! traffic evenly, and CVR as the metric. A better offline ranker should
//! convert more often; the experiment verifies the same ordering the
//! paper reports (Control < MTL baselines < CDR baselines < NMCDR).

use crate::harness::Scorer;
use nm_tensor::rng::{Rng, SeedableRng, StdRng};

/// One simulated serving domain with a hidden conversion model.
pub struct AbDomain<'a> {
    pub name: String,
    pub n_users: usize,
    pub n_items: usize,
    /// Hidden true affinity of `(user, item)` — drives conversions.
    pub affinity: Box<dyn Fn(usize, usize) -> f32 + 'a>,
    /// Logit offset calibrating the base conversion rate.
    pub bias: f32,
    /// Logit slope on affinity.
    pub slope: f32,
}

/// Outcome of one arm.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmResult {
    pub name: String,
    pub impressions: usize,
    pub conversions: usize,
}

impl ArmResult {
    /// Conversion rate (0–1).
    pub fn cvr(&self) -> f64 {
        if self.impressions == 0 {
            0.0
        } else {
            self.conversions as f64 / self.impressions as f64
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    nm_tensor::sigmoid_scalar(x)
}

/// Runs an even-split A/B test: each arm serves `requests_per_arm`
/// requests; per request a random user arrives, the arm ranks a random
/// `slate_size` candidate slate, the top item is shown, and conversion
/// is Bernoulli in the hidden model. Deterministic per `seed`, and every
/// arm sees the *same* request stream (paired comparison, lower
/// variance than the paper's real traffic split).
pub fn run_ab_test(
    domain: &AbDomain<'_>,
    arms: &[(&str, &dyn Scorer)],
    requests_per_arm: usize,
    slate_size: usize,
    seed: u64,
) -> Vec<ArmResult> {
    assert!(slate_size >= 2, "slate needs at least 2 items");
    assert!(domain.n_items >= slate_size, "catalogue smaller than slate");
    let mut results: Vec<ArmResult> = arms
        .iter()
        .map(|(name, _)| ArmResult {
            name: name.to_string(),
            impressions: 0,
            conversions: 0,
        })
        .collect();
    for r in 0..requests_per_arm {
        // One request: same user/slate/conversion-coin for every arm.
        let mut req_rng = StdRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0x9E37_79B9));
        let user = req_rng.gen_range(0..domain.n_users) as u32;
        let mut slate: Vec<u32> = Vec::with_capacity(slate_size);
        while slate.len() < slate_size {
            let item = req_rng.gen_range(0..domain.n_items) as u32;
            if !slate.contains(&item) {
                slate.push(item);
            }
        }
        let coin: f32 = req_rng.gen_range(0.0..1.0);
        let users = vec![user; slate.len()];
        for ((_, scorer), res) in arms.iter().zip(results.iter_mut()) {
            let scores = scorer.score(&users, &slate);
            // The best score is shown, NaN ranking below every number
            // as in `rank_order`; equal maxima show the last of them.
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1.partial_cmp(b.1)
                        .unwrap_or_else(|| b.1.is_nan().cmp(&a.1.is_nan()))
                })
                .map_or(0, |(i, _)| i);
            let shown = slate[best] as usize;
            let p = sigmoid(domain.slope * (domain.affinity)(user as usize, shown) + domain.bias);
            res.impressions += 1;
            if coin < p {
                res.conversions += 1;
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn toy_domain() -> AbDomain<'static> {
        AbDomain {
            name: "Toy".into(),
            n_users: 50,
            n_items: 40,
            // affinity favours items whose id is close to user id mod 40
            affinity: Box::new(|u, i| {
                let d = (u % 40) as f32 - i as f32;
                1.0 - (d.abs() / 20.0)
            }),
            bias: -1.0,
            slope: 3.0,
        }
    }

    #[test]
    fn oracle_beats_random_policy() {
        let d = toy_domain();
        let oracle = |users: &[u32], items: &[u32]| -> Vec<f32> {
            users
                .iter()
                .zip(items)
                .map(|(&u, &i)| {
                    let delta = (u % 40) as f32 - i as f32;
                    1.0 - delta.abs() / 20.0
                })
                .collect()
        };
        let random = |users: &[u32], items: &[u32]| -> Vec<f32> {
            users
                .iter()
                .zip(items)
                .map(|(&u, &i)| ((u.wrapping_mul(97).wrapping_add(i * 31)) % 101) as f32)
                .collect()
        };
        let results = run_ab_test(
            &d,
            &[("oracle", &oracle), ("random", &random)],
            3000,
            10,
            42,
        );
        assert!(
            results[0].cvr() > results[1].cvr() + 0.05,
            "oracle {} vs random {}",
            results[0].cvr(),
            results[1].cvr()
        );
    }

    #[test]
    fn arms_see_identical_impression_counts() {
        let d = toy_domain();
        let flat = |_: &[u32], items: &[u32]| vec![0.5; items.len()];
        let r = run_ab_test(&d, &[("a", &flat), ("b", &flat)], 100, 5, 1);
        assert_eq!(r[0].impressions, 100);
        assert_eq!(r[1].impressions, 100);
        // identical policies on a paired stream convert identically
        assert_eq!(r[0].conversions, r[1].conversions);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = toy_domain();
        let flat = |_: &[u32], items: &[u32]| vec![0.5; items.len()];
        let a = run_ab_test(&d, &[("x", &flat)], 200, 5, 9);
        let b = run_ab_test(&d, &[("x", &flat)], 200, 5, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn nan_scores_rank_below_every_number() {
        // Odd items score NaN and even items their id, so the shown item
        // is the slate's largest even id whenever the slate has one.
        let slates = RefCell::new(Vec::new());
        let shown = RefCell::new(Vec::new());
        let d = AbDomain {
            affinity: Box::new(|_, i| {
                shown.borrow_mut().push(i as u32);
                0.0
            }),
            ..toy_domain()
        };
        let scorer = |_: &[u32], items: &[u32]| -> Vec<f32> {
            slates.borrow_mut().push(items.to_vec());
            let score = |i: u32| if i % 2 == 1 { f32::NAN } else { i as f32 };
            items.iter().map(|&i| score(i)).collect()
        };
        let r = run_ab_test(&d, &[("nan", &scorer)], 300, 5, 3);
        assert_eq!(r[0].impressions, 300);
        let (slates, shown) = (slates.borrow(), shown.borrow());
        assert_eq!(shown.len(), 300);
        let mut scored = 0;
        for (slate, item) in slates.iter().zip(shown.iter()) {
            match slate.iter().filter(|&&i| i % 2 == 0).max() {
                Some(best) => {
                    assert_eq!(item, best, "slate {slate:?}");
                    scored += 1;
                }
                None => assert!(slate.contains(item), "slate {slate:?}"),
            }
        }
        // most slates hold a scored item, and some hold none
        assert!((250..300).contains(&scored), "{scored} scored slates");
    }

    #[test]
    fn cvr_of_empty_arm_is_zero() {
        let r = ArmResult {
            name: "e".into(),
            impressions: 0,
            conversions: 0,
        };
        assert_eq!(r.cvr(), 0.0);
    }
}
