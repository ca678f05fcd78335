//! Leave-one-out evaluation split (the paper's §III-A-2 protocol).

use crate::DomainData;

/// A leave-one-out split of one domain: each user's final interaction is
/// the test positive; the rest are training data.
#[derive(Debug, Clone)]
pub struct SplitDomain {
    pub n_users: usize,
    pub n_items: usize,
    /// Training `(user, item)` pairs.
    pub train: Vec<(u32, u32)>,
    /// One held-out `(user, item)` per eligible user.
    pub test: Vec<(u32, u32)>,
    /// Optional validation positives (second-to-last interaction per
    /// eligible user); empty unless built by
    /// [`leave_one_out_with_valid`].
    pub valid: Vec<(u32, u32)>,
}

impl SplitDomain {
    /// Training interactions grouped per user.
    pub fn train_by_user(&self) -> Vec<Vec<u32>> {
        let mut v = vec![Vec::new(); self.n_users];
        for &(u, i) in &self.train {
            v[u as usize].push(i);
        }
        v
    }

    /// All interactions (train + valid + test) per user — used to
    /// exclude known positives when sampling negatives.
    pub fn all_by_user(&self) -> Vec<Vec<u32>> {
        let mut v = self.train_by_user();
        for &(u, i) in &self.valid {
            v[u as usize].push(i);
        }
        for &(u, i) in &self.test {
            v[u as usize].push(i);
        }
        v
    }
}

/// Splits a domain leave-one-out: the chronologically last interaction
/// of every user with at least `min_train + 1` interactions goes to
/// test; everything else trains. Users below the threshold keep all
/// interactions in train and are skipped at evaluation (matching the
/// paper's ≥5-interaction filter applied at generation).
pub fn leave_one_out(domain: &DomainData, min_train: usize) -> SplitDomain {
    let by_user = domain.by_user();
    let mut train = Vec::with_capacity(domain.interactions.len());
    let mut test = Vec::new();
    for (u, items) in by_user.iter().enumerate() {
        if let Some((last, rest)) = items.split_last().filter(|_| items.len() > min_train) {
            for &i in rest {
                train.push((u as u32, i));
            }
            test.push((u as u32, *last));
        } else {
            for &i in items {
                train.push((u as u32, i));
            }
        }
    }
    SplitDomain {
        n_users: domain.n_users,
        n_items: domain.n_items,
        train,
        test,
        valid: Vec::new(),
    }
}

/// Like [`leave_one_out`], but also holds out each eligible user's
/// *second-to-last* interaction as a validation positive (requires
/// `min_train + 2` interactions; users with exactly `min_train + 1` get
/// a test pair but no validation pair).
pub fn leave_one_out_with_valid(domain: &DomainData, min_train: usize) -> SplitDomain {
    let by_user = domain.by_user();
    let mut train = Vec::with_capacity(domain.interactions.len());
    let mut test = Vec::new();
    let mut valid = Vec::new();
    for (u, items) in by_user.iter().enumerate() {
        if items.len() > min_train + 1 {
            let n = items.len();
            for &i in &items[..n - 2] {
                train.push((u as u32, i));
            }
            valid.push((u as u32, items[n - 2]));
            test.push((u as u32, items[n - 1]));
        } else if let Some((last, rest)) = items.split_last().filter(|_| items.len() > min_train) {
            for &i in rest {
                train.push((u as u32, i));
            }
            test.push((u as u32, *last));
        } else {
            for &i in items {
                train.push((u as u32, i));
            }
        }
    }
    SplitDomain {
        n_users: domain.n_users,
        n_items: domain.n_items,
        train,
        test,
        valid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> DomainData {
        DomainData {
            name: "T".into(),
            n_users: 3,
            n_items: 6,
            interactions: vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 5), // user 2 has a single interaction
            ],
        }
    }

    #[test]
    fn last_interaction_held_out() {
        let s = leave_one_out(&domain(), 1);
        assert_eq!(s.test, vec![(0, 2), (1, 4)]);
        assert_eq!(s.train, vec![(0, 0), (0, 1), (1, 3), (2, 5)]);
    }

    #[test]
    fn tiny_users_stay_in_train() {
        let s = leave_one_out(&domain(), 1);
        // user 2 not in test
        assert!(!s.test.iter().any(|&(u, _)| u == 2));
        assert!(s.train.contains(&(2, 5)));
    }

    #[test]
    fn split_partitions_interactions() {
        let d = domain();
        let s = leave_one_out(&d, 1);
        assert_eq!(s.train.len() + s.test.len(), d.interactions.len());
    }

    #[test]
    fn all_by_user_reunites() {
        let d = domain();
        let s = leave_one_out(&d, 1);
        let all = s.all_by_user();
        let orig = d.by_user();
        for u in 0..d.n_users {
            let mut a = all[u].clone();
            let mut o = orig[u].clone();
            a.sort_unstable();
            o.sort_unstable();
            assert_eq!(a, o);
        }
    }

    #[test]
    fn higher_min_train_excludes_more_users() {
        let s = leave_one_out(&domain(), 2);
        assert_eq!(s.test, vec![(0, 2)]);
    }

    #[test]
    fn with_valid_holds_out_second_to_last() {
        let s = leave_one_out_with_valid(&domain(), 1);
        // user 0 (3 interactions): train [0], valid (0,1), test (0,2)
        assert!(s.train.contains(&(0, 0)));
        assert!(s.valid.contains(&(0, 1)));
        assert!(s.test.contains(&(0, 2)));
        // user 1 (2 interactions): test only, no valid
        assert!(s.test.contains(&(1, 4)));
        assert!(!s.valid.iter().any(|&(u, _)| u == 1));
        // partition is exact
        assert_eq!(
            s.train.len() + s.valid.len() + s.test.len(),
            domain().interactions.len()
        );
    }

    #[test]
    fn with_valid_all_by_user_includes_valid() {
        let s = leave_one_out_with_valid(&domain(), 1);
        let all = s.all_by_user();
        assert!(all[0].contains(&1));
    }
}
