//! The tables each workload runs on. The seed goes to the
//! `morpheus_data` generators here and nowhere else.

use crate::harness::RunCfg;
use morpheus_core::{Matrix, NormalizedMatrix};
use morpheus_data::realsim;
use morpheus_data::synth::{MnJoinSpec, PkFkSpec};
use morpheus_dense::DenseMatrix;

/// A generated table with its regression target and ±1 labels.
pub struct Dataset {
    /// The normalized matrix.
    pub tn: NormalizedMatrix,
    /// Numeric target, `n x 1`.
    pub y: DenseMatrix,
    /// `{−1, +1}` labels, `n x 1`.
    pub labels: DenseMatrix,
}

impl Dataset {
    fn from_synth(ds: morpheus_data::synth::SynthDataset) -> Dataset {
        let labels = ds.labels();
        Dataset {
            tn: ds.tn,
            y: ds.y,
            labels,
        }
    }

    /// Bytes of the join output as a dense matrix.
    pub fn join_bytes(&self) -> u64 {
        (self.tn.rows() * self.tn.cols() * 8) as u64
    }
}

/// PK-FK table from the paper's ratios (`n_r` ÷ 10 under `--quick`).
pub fn pkfk(cfg: &RunCfg, tr: f64, fr: f64, n_r: usize, d_s: usize) -> Dataset {
    let n_r = cfg.scaled(n_r, 20);
    Dataset::from_synth(PkFkSpec::from_ratios(tr, fr, n_r, d_s, cfg.seed).generate())
}

/// Two-table M:N join with uniqueness degree `n_u / n_s`.
pub fn mn_join(cfg: &RunCfg, n_base: usize, d: usize, n_u: usize) -> Dataset {
    let n_base = cfg.scaled(n_base, 100);
    let n_u = cfg.scaled(n_u, 10);
    Dataset::from_synth(
        MnJoinSpec {
            n_s: n_base,
            n_r: n_base,
            d_s: d,
            d_r: d,
            n_u,
            seed: cfg.seed,
        }
        .generate(),
    )
}

/// The simulated-real `Movies` star schema at `scale` of paper size.
pub fn movies(cfg: &RunCfg, scale: f64) -> Dataset {
    let scale = if cfg.quick { scale / 10.0 } else { scale };
    let ds = realsim::by_name("Movies")
        .expect("realsim catalog has Movies")
        .generate(scale, cfg.seed);
    let labels = ds.labels();
    Dataset {
        tn: ds.tn,
        y: ds.y,
        labels,
    }
}

fn fnv(mut h: u64, bits: u64) -> u64 {
    for b in bits.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn hash_matrix(mut h: u64, m: &Matrix) -> u64 {
    h = fnv(fnv(h, m.rows() as u64), m.cols() as u64);
    match m {
        Matrix::Dense(d) => d.as_slice().iter().fold(h, |h, v| fnv(h, v.to_bits())),
        Matrix::Sparse(s) => {
            let h = s.indptr().iter().fold(h, |h, &p| fnv(h, p as u64));
            let h = s.indices().iter().fold(h, |h, &c| fnv(h, c as u64));
            s.values().iter().fold(h, |h, v| fnv(h, v.to_bits()))
        }
    }
}

/// FNV-1a over every base table, indicator assignment and target of
/// `ds`: equal seeds give equal fingerprints, different seeds do not.
pub fn fingerprint(ds: &Dataset) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for part in ds.tn.parts() {
        h = hash_matrix(h, part.table());
        let assign = part.indicator().assignment(part.table().rows());
        h = assign.iter().fold(h, |h, &a| fnv(h, a as u64));
    }
    ds.y.as_slice().iter().fold(h, |h, v| fnv(h, v.to_bits()))
}
