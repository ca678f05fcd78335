//! Sampled matching-neighbour graphs.
//!
//! The paper's intra and inter node matching components operate on
//! *conceptually* fully-connected user–user graphs (Eq. 6, 12) but in
//! practice sample a fixed number of matching neighbours per user
//! (Fig. 3 sweeps 128–1024; 512 is their default). This module builds
//! those sampled graphs as row-normalized [`Csr`] matrices so that one
//! SpMM implements the whole message-construction + aggregation of
//! Eq. 8–9 / Eq. 13–14.
//!
//! Choices documented in DESIGN.md:
//! * A user never samples itself as an intra matching neighbour (the
//!   residual connection Eq. 11 already carries self information).
//! * Sampling is without replacement; if the candidate pool is smaller
//!   than the requested count the whole pool is used.
//! * Each bridge is sampled straight into CSR arrays: a row's draws are
//!   sorted in place and weighted `1/len`, and `indptr` grows by the
//!   row's length. Sampling without replacement from a pool that holds
//!   no id twice never repeats a column in a row, so this is exactly
//!   the matrix [`Csr::from_edges`] builds from the same edges (it sorts
//!   and would merge repeats). Every builder therefore asserts its pool
//!   is strictly ascending, as head, tail and non-overlapped user lists
//!   are.

use crate::{Csr, HeadTailPartition};
use nm_tensor::rng::seq::index::sample as index_sample;
use nm_tensor::rng::{SeedableRng, StdRng};

/// Sampled within-domain matching graphs: one bridge from head users,
/// one from tail users (Eq. 6–9 use distinct transforms per bridge).
#[derive(Debug, Clone)]
pub struct IntraMatchingGraphs {
    /// `n_users x n_users`; row `u` holds `u`'s sampled **head**
    /// matching neighbours with values `1/|N^head_u|`.
    pub head_bridge: Csr,
    /// Same for sampled **tail** matching neighbours.
    pub tail_bridge: Csr,
}

/// Asserts the direct build's precondition: `pool` is strictly
/// ascending (so no id repeats) and its ids are below `n_cols`.
fn check_pool(pool: &[u32], n_cols: usize, what: &str) {
    assert!(
        pool.windows(2).all(|w| w[0] < w[1]),
        "{what} pool is not strictly ascending"
    );
    if let Some(&last) = pool.last() {
        assert!(
            (last as usize) < n_cols,
            "{what} pool id {last} out of bounds ({n_cols} columns)"
        );
    }
}

/// Appends to `out`, in draw order, up to `count` ids of `pool` drawn
/// without replacement, never `exclude`.
fn sample_from_pool(
    pool: &[u32],
    exclude: u32,
    count: usize,
    rng: &mut StdRng,
    out: &mut Vec<u32>,
) {
    if pool.is_empty() || count == 0 {
        return;
    }
    if pool.len() <= count {
        out.extend(pool.iter().copied().filter(|&x| x != exclude));
        return;
    }
    // Filter self out lazily: sample one extra then drop, to avoid an
    // O(pool) copy per user.
    let picked = index_sample(rng, pool.len(), count + 1)
        .into_iter()
        .map(|i| pool[i])
        .filter(|&x| x != exclude)
        .take(count);
    out.extend(picked);
}

/// A row-normalized bridge under construction, one sampled row at a
/// time.
struct Bridge {
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Bridge {
    fn new(n_rows: usize, row_cap: usize) -> Self {
        let mut indptr = Vec::with_capacity(n_rows + 1);
        indptr.push(0);
        Self {
            indptr,
            indices: Vec::with_capacity(n_rows * row_cap),
            values: Vec::with_capacity(n_rows * row_cap),
        }
    }

    /// Samples the next row from `pool` (see [`sample_from_pool`]),
    /// sorts it and weights each entry `1/len`.
    fn push_row(&mut self, pool: &[u32], exclude: u32, count: usize, rng: &mut StdRng) {
        let start = self.indices.len();
        sample_from_pool(pool, exclude, count, rng, &mut self.indices);
        let row = &mut self.indices[start..];
        row.sort_unstable();
        let w = 1.0 / row.len() as f32;
        self.values.resize(self.indices.len(), w);
        self.indptr.push(self.indices.len() as u32);
    }

    fn finish(self, n_rows: usize, n_cols: usize) -> Csr {
        match Csr::from_raw(n_rows, n_cols, self.indptr, self.indices, self.values) {
            Ok(bridge) => bridge,
            // `check_pool` bounded every id and each row pushed its end.
            Err(e) => unreachable!("sampled bridge breaks a CSR invariant: {e}"),
        }
    }
}

/// Builds the intra-domain matching graphs for one domain.
///
/// `n_neighbors` is the per-class sample size (the paper's "number of
/// matching neighbors", split evenly between head and tail bridges here
/// by passing the same budget to each).
pub fn build_intra(
    partition: &HeadTailPartition,
    n_neighbors: usize,
    seed: u64,
) -> IntraMatchingGraphs {
    let n = partition.n_users();
    let (heads, tails) = (partition.head_users(), partition.tail_users());
    check_pool(heads, n, "head");
    check_pool(tails, n, "tail");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut head = Bridge::new(n, n_neighbors.min(heads.len()));
    let mut tail = Bridge::new(n, n_neighbors.min(tails.len()));
    for u in 0..n as u32 {
        head.push_row(heads, u, n_neighbors, &mut rng);
        tail.push_row(tails, u, n_neighbors, &mut rng);
    }
    IntraMatchingGraphs {
        head_bridge: head.finish(n, n),
        tail_bridge: tail.finish(n, n),
    }
}

/// Sampled cross-domain matching graph for one direction (Z ← Z̄).
#[derive(Debug, Clone)]
pub struct InterMatchingGraph {
    /// `n_users_z x n_users_zbar`; row `u` holds sampled non-overlapped
    /// foreign users with values `1/|N^cdr_u|` (Eq. 13's `other` bridge).
    pub other_bridge: Csr,
    /// For each user of Z, the index of the *same* user in Z̄ when the
    /// user is a known overlapped user (Eq. 13's `self` bridge).
    pub self_map: Vec<Option<u32>>,
}

/// Builds the Z ← Z̄ inter matching graph.
///
/// * `overlap_map[u]` — `Some(u_bar)` iff user `u` of domain Z is a
///   *known* overlapped user whose identity in Z̄ is `u_bar`;
/// * `foreign_non_overlapped` — ids (in Z̄) of the non-overlapped
///   foreign users forming the `other` candidate pool;
/// * `n_neighbors` — sampled pool size per user.
pub fn build_inter(
    n_users_z: usize,
    n_users_zbar: usize,
    overlap_map: &[Option<u32>],
    foreign_non_overlapped: &[u32],
    n_neighbors: usize,
    seed: u64,
) -> InterMatchingGraph {
    assert_eq!(
        overlap_map.len(),
        n_users_z,
        "overlap_map length {} != n_users_z {}",
        overlap_map.len(),
        n_users_z
    );
    for m in overlap_map.iter().flatten() {
        assert!(
            (*m as usize) < n_users_zbar,
            "overlap target {} out of bounds ({} foreign users)",
            m,
            n_users_zbar
        );
    }
    let pool = foreign_non_overlapped;
    check_pool(pool, n_users_zbar, "foreign");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut other = Bridge::new(n_users_z, n_neighbors.min(pool.len()));
    for _ in 0..n_users_z {
        // `exclude` is in Z̄'s id space; u32::MAX never matches.
        other.push_row(pool, u32::MAX, n_neighbors, &mut rng);
    }
    InterMatchingGraph {
        other_bridge: other.finish(n_users_z, n_users_zbar),
        self_map: overlap_map.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition() -> HeadTailPartition {
        // users 0..10; degrees make 0..3 head (deg 10), 4..9 tail (deg 1)
        let degrees: Vec<usize> = (0..10).map(|u| if u < 4 { 10 } else { 1 }).collect();
        HeadTailPartition::new(&degrees, 5)
    }

    #[test]
    fn intra_rows_normalized() {
        let g = build_intra(&partition(), 3, 42);
        for u in 0..10 {
            let s: f32 = g.head_bridge.row_values(u).iter().sum();
            if g.head_bridge.degree(u) > 0 {
                assert!((s - 1.0).abs() < 1e-5, "row {u} head sum {s}");
            }
            let s: f32 = g.tail_bridge.row_values(u).iter().sum();
            if g.tail_bridge.degree(u) > 0 {
                assert!((s - 1.0).abs() < 1e-5, "row {u} tail sum {s}");
            }
        }
    }

    #[test]
    fn intra_never_samples_self() {
        let g = build_intra(&partition(), 100, 7);
        for u in 0..10u32 {
            assert!(!g.head_bridge.row_indices(u as usize).contains(&u));
            assert!(!g.tail_bridge.row_indices(u as usize).contains(&u));
        }
    }

    #[test]
    fn intra_bridges_draw_from_correct_class() {
        let p = partition();
        let g = build_intra(&p, 100, 7);
        let heads: std::collections::HashSet<u32> = p.head_users().iter().copied().collect();
        for u in 0..10 {
            for &n in g.head_bridge.row_indices(u) {
                assert!(heads.contains(&n));
            }
            for &n in g.tail_bridge.row_indices(u) {
                assert!(!heads.contains(&n));
            }
        }
    }

    #[test]
    fn intra_respects_sample_budget() {
        let g = build_intra(&partition(), 2, 3);
        for u in 0..10 {
            assert!(g.head_bridge.degree(u) <= 2);
            assert!(g.tail_bridge.degree(u) <= 2);
        }
    }

    #[test]
    fn intra_deterministic_per_seed() {
        let a = build_intra(&partition(), 3, 11);
        let b = build_intra(&partition(), 3, 11);
        assert_eq!(a.head_bridge, b.head_bridge);
        assert_eq!(a.tail_bridge, b.tail_bridge);
    }

    #[test]
    fn inter_bridge_shape_and_norm() {
        let overlap = vec![Some(0u32), None, None];
        let foreign_non: Vec<u32> = (1..8).collect();
        let g = build_inter(3, 8, &overlap, &foreign_non, 4, 5);
        assert_eq!(g.other_bridge.n_rows(), 3);
        assert_eq!(g.other_bridge.n_cols(), 8);
        for u in 0..3 {
            assert!(g.other_bridge.degree(u) <= 4);
            let s: f32 = g.other_bridge.row_values(u).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert_eq!(g.self_map, overlap);
    }

    #[test]
    fn inter_samples_only_from_pool() {
        let overlap = vec![None; 5];
        let foreign_non = vec![2u32, 3, 4];
        let g = build_inter(5, 10, &overlap, &foreign_non, 10, 5);
        for u in 0..5 {
            for &n in g.other_bridge.row_indices(u) {
                assert!(foreign_non.contains(&n));
            }
        }
    }

    /// The construction the direct build replaced: each row sampled
    /// into its own `Vec`, flattened into an edge list and built by
    /// `Csr::from_edges`.
    fn reference_rows(pool: &[u32], exclude: u32, count: usize, rng: &mut StdRng) -> Vec<u32> {
        if pool.is_empty() || count == 0 {
            return Vec::new();
        }
        if pool.len() <= count {
            return pool.iter().copied().filter(|&x| x != exclude).collect();
        }
        let want = (count + 1).min(pool.len());
        let mut picked: Vec<u32> = index_sample(rng, pool.len(), want)
            .into_iter()
            .map(|i| pool[i])
            .filter(|&x| x != exclude)
            .collect();
        picked.truncate(count);
        picked
    }

    fn normalized_bridge(n_rows: usize, n_cols: usize, rows: Vec<Vec<u32>>) -> Csr {
        let mut edges = Vec::new();
        for (u, neigh) in rows.into_iter().enumerate() {
            if neigh.is_empty() {
                continue;
            }
            let w = 1.0 / neigh.len() as f32;
            for v in neigh {
                edges.push((u as u32, v, w));
            }
        }
        Csr::from_edges(n_rows, n_cols, &edges)
    }

    fn reference_intra(p: &HeadTailPartition, n_neighbors: usize, seed: u64) -> (Csr, Csr) {
        let n = p.n_users();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut head, mut tail) = (Vec::new(), Vec::new());
        for u in 0..n as u32 {
            head.push(reference_rows(p.head_users(), u, n_neighbors, &mut rng));
            tail.push(reference_rows(p.tail_users(), u, n_neighbors, &mut rng));
        }
        (normalized_bridge(n, n, head), normalized_bridge(n, n, tail))
    }

    fn reference_inter(n_z: usize, n_zbar: usize, pool: &[u32], count: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (0..n_z)
            .map(|_| reference_rows(pool, u32::MAX, count, &mut rng))
            .collect();
        normalized_bridge(n_z, n_zbar, rows)
    }

    /// `Csr` equality plus the bits of every value.
    fn assert_same_bits(got: &Csr, want: &Csr, what: &str) {
        assert_eq!(got, want, "{what}");
        let bits = |c: &Csr| -> Vec<u32> {
            (0..c.n_rows())
                .flat_map(|r| c.row_values(r).iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(got), bits(want), "{what}: value bits");
    }

    /// Counts that reach every path of `reference_rows` against a pool
    /// of 100 heads and 200 tails: count 0, the rejection path of
    /// `index_sample` (`(count + 1) * 3 < len`), its Fisher–Yates path,
    /// and a pool no larger than the count (with and without the
    /// excluded user in it).
    const COUNTS: [usize; 7] = [0, 1, 5, 40, 99, 100, 250];

    fn mixed_partition(seed: u64) -> HeadTailPartition {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut degrees: Vec<usize> = (0..300).map(|u| if u % 3 == 0 { 9 } else { 2 }).collect();
        nm_tensor::rng::seq::SliceRandom::shuffle(&mut degrees[..], &mut rng);
        HeadTailPartition::new(&degrees, 5)
    }

    #[test]
    fn direct_intra_build_matches_from_edges() {
        for seed in 0..4u64 {
            let p = mixed_partition(seed);
            assert_eq!(p.head_users().len(), 100);
            for &count in &COUNTS {
                let g = build_intra(&p, count, seed);
                let (head, tail) = reference_intra(&p, count, seed);
                let what = format!("seed {seed}, count {count}");
                assert_same_bits(&g.head_bridge, &head, &format!("head, {what}"));
                assert_same_bits(&g.tail_bridge, &tail, &format!("tail, {what}"));
            }
        }
        // every user a tail user: an empty head pool
        let p = HeadTailPartition::new(&[1; 40], 5);
        for &count in &COUNTS {
            let g = build_intra(&p, count, 3);
            let (head, tail) = reference_intra(&p, count, 3);
            assert_eq!(g.head_bridge.nnz(), 0);
            assert_same_bits(&g.head_bridge, &head, "empty head pool");
            assert_same_bits(&g.tail_bridge, &tail, "all-tail pool");
        }
    }

    #[test]
    fn direct_inter_build_matches_from_edges() {
        let pool: Vec<u32> = (0..300).filter(|u| u % 3 != 1).collect();
        for seed in 0..4u64 {
            for &count in &COUNTS {
                let overlap = vec![None; 50];
                let g = build_inter(50, 300, &overlap, &pool, count, seed);
                let want = reference_inter(50, 300, &pool, count, seed);
                assert_same_bits(
                    &g.other_bridge,
                    &want,
                    &format!("seed {seed}, count {count}"),
                );
            }
        }
        let g = build_inter(5, 8, &[None; 5], &[], 4, 1);
        assert_same_bits(
            &g.other_bridge,
            &reference_inter(5, 8, &[], 4, 1),
            "empty pool",
        );
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn inter_rejects_a_repeated_pool_id() {
        build_inter(2, 5, &[None, None], &[1, 3, 3], 2, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn inter_rejects_a_pool_id_outside_the_foreign_domain() {
        build_inter(2, 5, &[None, None], &[1, 5], 2, 0);
    }

    #[test]
    #[should_panic(expected = "overlap target")]
    fn inter_rejects_bad_overlap_target() {
        let overlap = vec![Some(99u32)];
        build_inter(1, 5, &overlap, &[0], 1, 0);
    }

    #[test]
    fn small_pool_uses_everything() {
        let p = HeadTailPartition::new(&[10, 10, 1], 5); // heads: 0,1; tail: 2
        let g = build_intra(&p, 64, 1);
        // user 2 should match with both heads
        assert_eq!(g.head_bridge.degree(2), 2);
        // user 0 matches head pool minus itself
        assert_eq!(g.head_bridge.degree(0), 1);
    }
}
