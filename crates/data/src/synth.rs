//! Synthetic dense data generators for the operator- and ML-level sweeps.
//!
//! The paper's synthetic experiments (Tables 4 and 5) vary the tuple ratio
//! `TR = n_S / n_R`, the feature ratio `FR = d_R / d_S`, and — for M:N
//! joins — the join-attribute domain size `n_U`. The generators here are
//! deterministic given a seed, guarantee the paper's structural assumptions
//! (every attribute-table row referenced at least once), and produce both
//! the normalized matrix and a target vector.

use morpheus_core::{Matrix, NormalizedMatrix};
use morpheus_dense::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated dataset: the normalized matrix plus a numeric target.
pub struct SynthDataset {
    /// The normalized (factorized) data matrix.
    pub tn: NormalizedMatrix,
    /// Numeric target (`n x 1`); binarize for classification.
    pub y: DenseMatrix,
}

impl SynthDataset {
    /// Targets as `{−1, +1}` labels for classification experiments.
    pub fn labels(&self) -> DenseMatrix {
        self.y.map(|v| if v >= 0.0 { 1.0 } else { -1.0 })
    }
}

fn dense_uniform(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// Foreign-key column guaranteeing every attribute row is referenced
/// (paper §3.1: unreferenced rows are dropped a priori).
fn covering_fk(rng: &mut StdRng, n_s: usize, n_r: usize) -> Vec<usize> {
    assert!(n_s >= n_r, "covering_fk: need n_s >= n_r to cover all rows");
    let mut fk: Vec<usize> = (0..n_s)
        .map(|i| if i < n_r { i } else { rng.gen_range(0..n_r) })
        .collect();
    // Shuffle so the covered prefix is not positionally biased.
    for i in (1..n_s).rev() {
        let j = rng.gen_range(0..=i);
        fk.swap(i, j);
    }
    fk
}

/// Specification of a single PK-FK join (Table 4 style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PkFkSpec {
    /// Entity-table rows `n_S`.
    pub n_s: usize,
    /// Entity-table features `d_S`.
    pub d_s: usize,
    /// Attribute-table rows `n_R`.
    pub n_r: usize,
    /// Attribute-table features `d_R`.
    pub d_r: usize,
    /// RNG seed.
    pub seed: u64,
}

impl PkFkSpec {
    /// Builds a spec directly from the paper's ratios: `TR = n_S / n_R` and
    /// `FR = d_R / d_S`, holding `n_r` and `d_s` fixed.
    pub fn from_ratios(tr: f64, fr: f64, n_r: usize, d_s: usize, seed: u64) -> Self {
        Self {
            n_s: (tr * n_r as f64).round() as usize,
            d_s,
            n_r,
            d_r: (fr * d_s as f64).round().max(1.0) as usize,
            seed,
        }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> SynthDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let s = dense_uniform(&mut rng, self.n_s, self.d_s);
        let r = dense_uniform(&mut rng, self.n_r, self.d_r);
        let fk = covering_fk(&mut rng, self.n_s, self.n_r);
        let tn = NormalizedMatrix::pk_fk(Matrix::Dense(s), &fk, Matrix::Dense(r));
        let w = DenseMatrix::from_fn(tn.cols(), 1, |i, _| ((i % 7) as f64 - 3.0) * 0.2);
        let noise = DenseMatrix::from_fn(tn.rows(), 1, |_, _| rng.gen_range(-0.01..0.01));
        let mut y = tn.lmm(&w);
        y.add_assign(&noise);
        SynthDataset { tn, y }
    }
}

/// Specification of a star-schema multi-table PK-FK join (§3.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarSpec {
    /// Entity-table rows `n_S`.
    pub n_s: usize,
    /// Entity-table features `d_S`.
    pub d_s: usize,
    /// `(n_Ri, d_Ri)` for each attribute table.
    pub tables: Vec<(usize, usize)>,
    /// RNG seed.
    pub seed: u64,
}

impl StarSpec {
    /// Generates the dataset.
    pub fn generate(&self) -> SynthDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let s = dense_uniform(&mut rng, self.n_s, self.d_s);
        let links = self
            .tables
            .iter()
            .map(|&(n_r, d_r)| {
                let r = dense_uniform(&mut rng, n_r, d_r);
                let fk = covering_fk(&mut rng, self.n_s, n_r);
                (fk, Matrix::Dense(r))
            })
            .collect();
        let tn = NormalizedMatrix::star(Matrix::Dense(s), links);
        let w = DenseMatrix::from_fn(tn.cols(), 1, |i, _| ((i % 5) as f64 - 2.0) * 0.25);
        let y = tn.lmm(&w);
        SynthDataset { tn, y }
    }
}

/// Specification of a two-table M:N join (Table 5 style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MnJoinSpec {
    /// Rows of S (`n_S`).
    pub n_s: usize,
    /// Rows of R (`n_R`).
    pub n_r: usize,
    /// Features of S (`d_S`).
    pub d_s: usize,
    /// Features of R (`d_R`).
    pub d_r: usize,
    /// Join-attribute domain size `n_U` (number of unique key values).
    /// `n_U = 1` degenerates to the full Cartesian product.
    pub n_u: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MnJoinSpec {
    /// The paper's "join attribute uniqueness degree" `n_U / n_S`.
    pub fn uniqueness_degree(&self) -> f64 {
        self.n_u as f64 / self.n_s as f64
    }

    /// Generates the dataset. Every key value is guaranteed to occur on
    /// both sides so no base row is dangling.
    pub fn generate(&self) -> SynthDataset {
        assert!(self.n_u >= 1, "MnJoinSpec: n_u must be at least 1");
        assert!(
            self.n_u <= self.n_s.min(self.n_r),
            "MnJoinSpec: n_u cannot exceed table sizes"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let s = dense_uniform(&mut rng, self.n_s, self.d_s);
        let r = dense_uniform(&mut rng, self.n_r, self.d_r);
        let js: Vec<u64> = (0..self.n_s)
            .map(|i| {
                if i < self.n_u {
                    i as u64
                } else {
                    rng.gen_range(0..self.n_u as u64)
                }
            })
            .collect();
        let jr: Vec<u64> = (0..self.n_r)
            .map(|i| {
                if i < self.n_u {
                    i as u64
                } else {
                    rng.gen_range(0..self.n_u as u64)
                }
            })
            .collect();
        let tn = NormalizedMatrix::mn_join_on_keys(Matrix::Dense(s), &js, Matrix::Dense(r), &jr);
        let w = DenseMatrix::from_fn(tn.cols(), 1, |i, _| ((i % 3) as f64 - 1.0) * 0.4);
        let y = tn.lmm(&w);
        SynthDataset { tn, y }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pkfk_spec_dimensions() {
        let ds = PkFkSpec {
            n_s: 100,
            d_s: 4,
            n_r: 10,
            d_r: 8,
            seed: 1,
        }
        .generate();
        assert_eq!(ds.tn.shape(), (100, 12));
        assert_eq!(ds.y.shape(), (100, 1));
        let stats = ds.tn.stats();
        assert!((stats.tuple_ratio - 10.0).abs() < 1e-12);
        assert!((stats.feature_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pkfk_from_ratios() {
        let spec = PkFkSpec::from_ratios(20.0, 4.0, 50, 5, 2);
        assert_eq!(spec.n_s, 1000);
        assert_eq!(spec.d_r, 20);
    }

    #[test]
    fn pkfk_covers_every_attribute_row() {
        let ds = PkFkSpec {
            n_s: 50,
            d_s: 2,
            n_r: 7,
            d_r: 3,
            seed: 3,
        }
        .generate();
        let keys = ds.tn.parts()[1].indicator().as_rows().unwrap().keys();
        for j in 0..7 {
            assert!(keys.contains(&j), "attribute row {j} unreferenced");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PkFkSpec {
            n_s: 30,
            d_s: 2,
            n_r: 5,
            d_r: 2,
            seed: 42,
        }
        .generate();
        let b = PkFkSpec {
            n_s: 30,
            d_s: 2,
            n_r: 5,
            d_r: 2,
            seed: 42,
        }
        .generate();
        assert!(a.tn.materialize().approx_eq(&b.tn.materialize(), 0.0));
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn star_spec_dimensions() {
        let ds = StarSpec {
            n_s: 60,
            d_s: 3,
            tables: vec![(6, 4), (5, 2)],
            seed: 7,
        }
        .generate();
        assert_eq!(ds.tn.shape(), (60, 9));
        assert_eq!(ds.tn.parts().len(), 3);
    }

    #[test]
    fn mn_join_row_count_scales_inversely_with_domain() {
        // E[|T'|] = n_s * n_r / n_u: halving the degree roughly doubles rows.
        let small = MnJoinSpec {
            n_s: 100,
            n_r: 100,
            d_s: 2,
            d_r: 2,
            n_u: 50,
            seed: 9,
        }
        .generate();
        let large = MnJoinSpec {
            n_s: 100,
            n_r: 100,
            d_s: 2,
            d_r: 2,
            n_u: 10,
            seed: 9,
        }
        .generate();
        assert!(large.tn.rows() > 2 * small.tn.rows());
        // And the normalized matrix stays faithful.
        let x = DenseMatrix::from_fn(4, 1, |i, _| i as f64);
        assert!(large
            .tn
            .lmm(&x)
            .approx_eq(&large.tn.materialize().matmul_dense(&x), 1e-10));
    }

    #[test]
    fn mn_uniqueness_degree() {
        let spec = MnJoinSpec {
            n_s: 200,
            n_r: 200,
            d_s: 2,
            d_r: 2,
            n_u: 20,
            seed: 1,
        };
        assert!((spec.uniqueness_degree() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mn_with_domain_one_is_full_cartesian_product() {
        let ds = MnJoinSpec {
            n_s: 12,
            n_r: 9,
            d_s: 2,
            d_r: 2,
            n_u: 1,
            seed: 4,
        }
        .generate();
        assert_eq!(ds.tn.rows(), 12 * 9);
        assert!(ds
            .tn
            .row_sums()
            .approx_eq(&ds.tn.materialize().row_sums(), 1e-10));
    }

    #[test]
    fn labels_are_plus_minus_one() {
        let ds = PkFkSpec {
            n_s: 40,
            d_s: 2,
            n_r: 4,
            d_r: 2,
            seed: 5,
        }
        .generate();
        for &v in ds.labels().as_slice() {
            assert!(v == 1.0 || v == -1.0);
        }
    }
}
