//! Embedding projection and cluster-separation statistics (Fig. 5).
//!
//! The paper shows t-SNE plots of head vs. tail user embeddings after
//! each NMCDR stage, arguing the tail distribution progressively aligns
//! with the head distribution. We reproduce the *claim* quantitatively:
//! PCA-project embeddings to 2-D for plotting, and compute a separation
//! score (normalized centroid distance) that should *decrease* stage by
//! stage. See DESIGN.md, "Substitutions".

use nm_tensor::Tensor;

/// A 2-D PCA projection of an `N x D` embedding matrix.
#[derive(Debug, Clone)]
pub struct Projection2D {
    /// `N` (x, y) coordinates.
    pub coords: Vec<(f32, f32)>,
    /// Fraction of variance captured by each of the two components.
    pub explained: (f32, f32),
}

/// Power iteration for the dominant eigenvector of the covariance of
/// centered data `x` (`N x D`). `deflate` removes an already-found
/// component first.
fn principal_component(x: &Tensor, deflate: Option<&[f32]>, iters: usize) -> (Vec<f32>, f32) {
    let (n, d) = x.shape();
    let mut v = vec![1.0f32; d];
    let norm = (d as f32).sqrt();
    for vi in &mut v {
        *vi /= norm;
    }
    let mut eigval = 0.0f32;
    for _ in 0..iters {
        // w = X^T (X v) / n  (covariance-vector product without forming DxD)
        let mut xv = vec![0.0f32; n];
        for (i, xvi) in xv.iter_mut().enumerate() {
            let row = x.row_slice(i);
            *xvi = row.iter().zip(&v).map(|(a, b)| a * b).sum();
        }
        let mut w = vec![0.0f32; d];
        for (i, &xvi) in xv.iter().enumerate() {
            let row = x.row_slice(i);
            for (wj, &rj) in w.iter_mut().zip(row) {
                *wj += rj * xvi;
            }
        }
        for wj in &mut w {
            *wj /= n as f32;
        }
        if let Some(prev) = deflate {
            let proj: f32 = w.iter().zip(prev).map(|(a, b)| a * b).sum();
            for (wj, &pj) in w.iter_mut().zip(prev) {
                *wj -= proj * pj;
            }
        }
        let nw: f32 = w.iter().map(|a| a * a).sum::<f32>().sqrt();
        if nw < 1e-12 {
            break;
        }
        eigval = nw;
        for (vi, wj) in v.iter_mut().zip(&w) {
            *vi = wj / nw;
        }
    }
    (v, eigval)
}

/// PCA-projects embeddings to 2-D.
pub fn pca_2d(embeddings: &Tensor) -> Projection2D {
    let (n, d) = embeddings.shape();
    assert!(n >= 2 && d >= 2, "pca_2d needs at least 2x2 data");
    // center
    let mean = embeddings.mean_axis(nm_tensor::Axis::Rows);
    let centered = embeddings.sub(&mean);
    let total_var: f32 = centered.sum_squares() / n as f32;
    let (p1, e1) = principal_component(&centered, None, 50);
    let (p2, e2) = principal_component(&centered, Some(&p1), 50);
    let coords = (0..n)
        .map(|i| {
            let row = centered.row_slice(i);
            let x: f32 = row.iter().zip(&p1).map(|(a, b)| a * b).sum();
            let y: f32 = row.iter().zip(&p2).map(|(a, b)| a * b).sum();
            (x, y)
        })
        .collect();
    let tv = total_var.max(1e-12);
    Projection2D {
        coords,
        explained: (e1 / tv, e2 / tv),
    }
}

/// Head/tail separation statistics of an embedding matrix.
#[derive(Debug, Clone, Copy)]
pub struct SeparationStats {
    /// Euclidean distance between head and tail centroids.
    pub centroid_distance: f32,
    /// Centroid distance divided by the pooled within-group RMS radius —
    /// the scale-free separation score Fig. 5 is about (lower = more
    /// aligned head/tail distributions).
    pub normalized_separation: f32,
    pub n_head: usize,
    pub n_tail: usize,
}

/// Computes head/tail separation of `embeddings` given a head-user mask.
pub fn separation(embeddings: &Tensor, is_head: &[bool]) -> SeparationStats {
    let (n, d) = embeddings.shape();
    assert_eq!(n, is_head.len(), "mask length mismatch");
    let n_head = is_head.iter().filter(|&&h| h).count();
    let n_tail = n - n_head;
    assert!(n_head > 0 && n_tail > 0, "need both head and tail users");
    let mut c_head = vec![0.0f32; d];
    let mut c_tail = vec![0.0f32; d];
    for (i, &head) in is_head.iter().enumerate() {
        let row = embeddings.row_slice(i);
        let c = if head { &mut c_head } else { &mut c_tail };
        for (cj, &rj) in c.iter_mut().zip(row) {
            *cj += rj;
        }
    }
    for cj in &mut c_head {
        *cj /= n_head as f32;
    }
    for cj in &mut c_tail {
        *cj /= n_tail as f32;
    }
    let centroid_distance: f32 = c_head
        .iter()
        .zip(&c_tail)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt();
    // pooled within-group variance
    let mut ssq = 0.0f32;
    for (i, &head) in is_head.iter().enumerate() {
        let row = embeddings.row_slice(i);
        let c = if head { &c_head } else { &c_tail };
        ssq += row
            .iter()
            .zip(c)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>();
    }
    let rms = (ssq / n as f32).sqrt().max(1e-12);
    SeparationStats {
        centroid_distance,
        normalized_separation: centroid_distance / rms,
        n_head,
        n_tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_tensor::TensorRng;

    #[test]
    fn pca_recovers_dominant_direction() {
        // points spread along (1,1,0,0)/sqrt(2) with small noise
        let mut rng = TensorRng::seed_from(3);
        let n = 200;
        let mut x = Tensor::zeros(n, 4);
        for i in 0..n {
            let t = rng.normal() * 5.0;
            let row = x.row_slice_mut(i);
            row[0] = t + rng.normal() * 0.1;
            row[1] = t + rng.normal() * 0.1;
            row[2] = rng.normal() * 0.1;
            row[3] = rng.normal() * 0.1;
        }
        let p = pca_2d(&x);
        assert!(p.explained.0 > 0.9, "explained {:?}", p.explained);
        // x coordinate should correlate with the latent t (== row[0] roughly)
        let corr: f32 = {
            let xs: Vec<f32> = p.coords.iter().map(|c| c.0).collect();
            let ts: Vec<f32> = (0..n).map(|i| x.get(i, 0)).collect();
            let mx = xs.iter().sum::<f32>() / n as f32;
            let mt = ts.iter().sum::<f32>() / n as f32;
            let cov: f32 = xs.iter().zip(&ts).map(|(a, b)| (a - mx) * (b - mt)).sum();
            let vx: f32 = xs.iter().map(|a| (a - mx) * (a - mx)).sum();
            let vt: f32 = ts.iter().map(|b| (b - mt) * (b - mt)).sum();
            (cov / (vx.sqrt() * vt.sqrt())).abs()
        };
        assert!(corr > 0.95, "corr {corr}");
    }

    #[test]
    fn separation_detects_split_clusters() {
        let mut rng = TensorRng::seed_from(5);
        let n = 100;
        let mut x = Tensor::zeros(n, 3);
        let mask: Vec<bool> = (0..n).map(|i| i < 40).collect();
        for (i, &head) in mask.iter().enumerate() {
            let offset = if head { 5.0 } else { -5.0 };
            for j in 0..3 {
                x.set(i, j, offset + rng.normal());
            }
        }
        let s = separation(&x, &mask);
        assert!(s.normalized_separation > 3.0, "sep {s:?}");
        assert_eq!(s.n_head, 40);

        // overlapping clusters => low separation
        let mut y = Tensor::zeros(n, 3);
        for i in 0..n {
            for j in 0..3 {
                y.set(i, j, rng.normal());
            }
        }
        let s2 = separation(&y, &mask);
        assert!(s2.normalized_separation < 1.0, "sep {s2:?}");
        assert!(s2.normalized_separation < s.normalized_separation);
    }

    #[test]
    #[should_panic(expected = "both head and tail")]
    fn separation_needs_both_groups() {
        let x = Tensor::zeros(3, 2);
        let _ = separation(&x, &[true, true, true]);
    }
}
