//! The normalized matrix: the paper's logical data type for join outputs.
//!
//! # Representation
//!
//! The paper presents three shapes of normalized matrix:
//!
//! * single PK-FK join (§3.1): `(S, K, R)` with `T = [S, K R]`,
//! * star-schema multi-table PK-FK (§3.5): `(S, K₁…K_q, R₁…R_q)` with
//!   `T = [S, K₁R₁, …, K_qR_q]`,
//! * M:N join (§3.6): `(S, I_S, I_R, R)` with `T = [I_S S, I_R R]`, and the
//!   multi-table M:N generalization of appendix E.
//!
//! All are instances of one scheme: `T = [I₀B₀, I₁B₁, …, I_qB_q]`, where
//! each *part* pairs a base-table matrix `Bᵢ` with an *indicator*
//! `Iᵢ` — either the identity (the untransformed entity table of a PK-FK
//! join) or a row-selection matrix with exactly one `1` per row, stored as
//! the column of base rows it selects ([`KeyColumn`], whose module holds
//! all of `K`'s algebra). Every rewrite rule in this module tree is
//! written once against this unified form; the paper's per-schema rules
//! fall out as special cases (observed in appendix D: "if the join is
//! PK-FK, `I_S = I` and the rules implicitly become equivalent to their
//! §3.3 counterparts").
//!
//! # Transpose flag
//!
//! Following §3.2, `Tᵀ` does not build a new structure: a `transposed` flag
//! is flipped and every operator dispatches through the appendix-A rules
//! (e.g. `colSums(Tᵀ) → rowSums(T)ᵀ`), so repeated transposes are free and
//! rewrite opportunities survive transposition.

mod agg;
mod crossprod;
mod dmm;
mod elementwise;
mod ginv;
mod indicator;
mod mult;
mod scalar;

use crate::{CoreError, CoreResult, Matrix};
use indicator::keyed_part;
pub use indicator::{Indicator, KeyColumn};

/// One component of a normalized matrix: an indicator plus its base table.
#[derive(Debug, Clone)]
pub struct AttributePart {
    pub(crate) indicator: Indicator,
    pub(crate) table: Matrix,
}

impl AttributePart {
    /// Creates a part from an indicator and a base table.
    pub fn new(indicator: Indicator, table: Matrix) -> Self {
        Self { indicator, table }
    }

    /// The part's indicator.
    pub fn indicator(&self) -> &Indicator {
        &self.indicator
    }

    /// The part's base-table matrix.
    pub fn table(&self) -> &Matrix {
        &self.table
    }

    /// Materializes this part's contribution `K * B` to the join output.
    pub fn materialize(&self) -> Matrix {
        self.indicator.apply_m(&self.table)
    }
}

/// Descriptive statistics of a normalized matrix, feeding the heuristic
/// decision rule (§3.7) and the cost model (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStats {
    /// Logical rows of `T` (`n_S`).
    pub n_rows: usize,
    /// Total features `d = Σ dᵢ`.
    pub d_total: usize,
    /// Feature count of the entity part (`d_S`); 0 when there is none.
    pub d_entity: usize,
    /// `(n_i, d_i)` of every attribute part with an explicit indicator.
    pub attr_dims: Vec<(usize, usize)>,
    /// Tuple ratio `n_S / n_R` (paper §3.4); for multiple attribute tables
    /// the *minimum* over parts — the most pessimistic redundancy estimate.
    pub tuple_ratio: f64,
    /// Feature ratio `d_R / d_S` (paper §3.4); for multiple attribute
    /// tables the *sum* of attribute features over `d_S`.
    pub feature_ratio: f64,
}

/// The normalized matrix `T = [I₀B₀, …, I_qB_q]` with a transpose flag.
#[derive(Debug, Clone)]
pub struct NormalizedMatrix {
    pub(crate) parts: Vec<AttributePart>,
    pub(crate) n_rows: usize,
    pub(crate) transposed: bool,
}

impl NormalizedMatrix {
    // ---------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------

    /// Builds a normalized matrix from validated parts.
    ///
    /// Validation enforces the paper's structural invariants: at least one
    /// part, consistent logical row counts, and indicator/table shape
    /// agreement. A key column cannot hold anything but one `1` per row.
    pub fn try_from_parts(parts: Vec<AttributePart>) -> CoreResult<Self> {
        if parts.is_empty() {
            return Err(CoreError::Empty);
        }
        let n_rows = parts[0].indicator.n_out(parts[0].table.rows());
        for (idx, part) in parts.iter().enumerate() {
            let n = part.indicator.n_out(part.table.rows());
            if n != n_rows {
                return Err(CoreError::RowCountMismatch {
                    expected: n_rows,
                    part: idx,
                    found: n,
                });
            }
            if let Indicator::Rows(k) = &part.indicator {
                if k.table_rows() != part.table.rows() {
                    return Err(CoreError::IndicatorTableMismatch {
                        part: idx,
                        indicator_cols: k.table_rows(),
                        table_rows: part.table.rows(),
                    });
                }
            }
        }
        Ok(Self {
            parts,
            n_rows,
            transposed: false,
        })
    }

    /// Single PK-FK join (§3.1): entity table `s`, foreign key `fk`
    /// (row numbers into `r`), attribute table `r`. `T = [S, K R]`.
    ///
    /// # Panics
    /// Panics if `fk.len() != s.rows()` or any key is out of range; use
    /// [`NormalizedMatrix::try_from_parts`] for fallible assembly.
    pub fn pk_fk(s: Matrix, fk: &[usize], r: Matrix) -> Self {
        Self::keyed(Some(s), vec![(fk.to_vec(), r)]).expect("pk_fk: invalid construction")
    }

    /// Star-schema multi-table PK-FK join (§3.5): one entity table and `q`
    /// attribute tables, each with its own foreign-key column.
    /// `T = [S, K₁R₁, …, K_qR_q]`.
    ///
    /// # Panics
    /// Panics on shape inconsistencies.
    pub fn star(s: Matrix, links: Vec<(Vec<usize>, Matrix)>) -> Self {
        Self::keyed(Some(s), links).expect("star: invalid construction")
    }

    /// Two-table M:N join (§3.6) from precomputed provenance: row `i` of the
    /// join output `T` combines `s` row `is_assign[i]` with `r` row
    /// `ir_assign[i]`. `T = [I_S S, I_R R]`.
    ///
    /// # Panics
    /// Panics if the assignment vectors have different lengths or reference
    /// rows out of range.
    pub fn mn_join(s: Matrix, is_assign: &[usize], r: Matrix, ir_assign: &[usize]) -> Self {
        let links = vec![(is_assign.to_vec(), s), (ir_assign.to_vec(), r)];
        Self::keyed(None, links).expect("mn_join: invalid construction")
    }

    /// Two-table M:N join from raw join-attribute columns: computes
    /// `T' = π(S) ⋈_{J_S = J_R} π(R)` (the paper's non-deduplicating
    /// projection join) and derives `I_S`/`I_R` from it.
    pub fn mn_join_on_keys(s: Matrix, js: &[u64], r: Matrix, jr: &[u64]) -> Self {
        assert_eq!(js.len(), s.rows(), "mn_join_on_keys: J_S length mismatch");
        assert_eq!(jr.len(), r.rows(), "mn_join_on_keys: J_R length mismatch");
        // Bucket R rows by join-key value.
        let mut buckets = std::collections::HashMap::<u64, Vec<usize>>::new();
        jr.iter()
            .enumerate()
            .for_each(|(j, &v)| buckets.entry(v).or_default().push(j));
        let matches = |(i, v)| buckets.get(v).into_iter().flatten().map(move |&j| (i, j));
        let (is_assign, ir_assign): (Vec<_>, Vec<_>) =
            js.iter().enumerate().flat_map(matches).unzip();
        Self::mn_join(s, &is_assign, r, &ir_assign)
    }

    /// Multi-table M:N join (appendix E): every part carries an explicit
    /// indicator; there is no identity entity part.
    /// `T = [I_{R1}R₁, …, I_{Rq}R_q]`.
    ///
    /// # Errors
    /// [`CoreError::KeyOutOfRange`] for a provenance row outside its table,
    /// and the [`NormalizedMatrix::try_from_parts`] errors.
    pub fn multi_mn(parts: Vec<(Vec<usize>, Matrix)>) -> CoreResult<Self> {
        Self::keyed(None, parts)
    }

    /// `[S, K₁B₁, …]` (no `S` when `entity` is `None`) from key columns —
    /// the one path every join constructor validates through.
    fn keyed(entity: Option<Matrix>, links: Vec<(Vec<usize>, Matrix)>) -> CoreResult<Self> {
        let entity = entity.map(|s| Ok(AttributePart::new(Indicator::Identity, s)));
        let keyed = links
            .into_iter()
            .map(|(fk, b)| Ok(keyed_part(KeyColumn::new(&fk, b.rows())?, b)));
        Self::try_from_parts(entity.into_iter().chain(keyed).collect::<CoreResult<_>>()?)
    }

    // ---------------------------------------------------------------
    // Accessors (transpose-aware)
    // ---------------------------------------------------------------

    /// Number of rows, respecting the transpose flag.
    pub fn rows(&self) -> usize {
        if self.transposed {
            self.d_total()
        } else {
            self.n_rows
        }
    }

    /// Number of columns, respecting the transpose flag.
    pub fn cols(&self) -> usize {
        if self.transposed {
            self.n_rows
        } else {
            self.d_total()
        }
    }

    /// `(rows, cols)`, respecting the transpose flag.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// `true` if the transpose flag is set.
    pub fn is_transposed(&self) -> bool {
        self.transposed
    }

    /// The parts `(Iᵢ, Bᵢ)` in order.
    pub fn parts(&self) -> &[AttributePart] {
        &self.parts
    }

    /// Logical (untransposed) row count `n`.
    pub fn logical_rows(&self) -> usize {
        self.n_rows
    }

    /// Total feature count `d = Σ dᵢ` (untransposed columns).
    pub fn d_total(&self) -> usize {
        self.parts.iter().map(|p| p.table.cols()).sum()
    }

    /// Column offset of each part within `T`, plus the final total:
    /// `[0, d₀, d₀+d₁, …, d]` — the paper's `d'ᵢ` values (§3.5).
    pub fn col_offsets(&self) -> Vec<usize> {
        let mut acc = 0;
        let ends = self.parts.iter().map(|p| {
            acc += p.table.cols();
            acc
        });
        std::iter::once(0).chain(ends).collect()
    }

    /// Transpose: flips the flag; no data moves (§3.2).
    pub fn transpose(&self) -> NormalizedMatrix {
        NormalizedMatrix {
            parts: self.parts.clone(),
            n_rows: self.n_rows,
            transposed: !self.transposed,
        }
    }

    /// Summary statistics (tuple ratio, feature ratio, …).
    pub fn stats(&self) -> JoinStats {
        let (entity, attr): (Vec<_>, Vec<_>) =
            self.parts.iter().partition(|p| p.indicator.is_identity());
        let d_entity: usize = entity.iter().map(|p| p.table.cols()).sum();
        let attr_dims: Vec<(usize, usize)> = attr.iter().map(|p| p.table.shape()).collect();
        let d_attr: usize = attr_dims.iter().map(|&(_, d)| d).sum();
        let tuple_ratio = attr_dims
            .iter()
            .map(|&(n, _)| self.n_rows as f64 / n.max(1) as f64)
            .fold(f64::INFINITY, f64::min);
        let feature_ratio = if d_entity == 0 {
            f64::INFINITY
        } else {
            d_attr as f64 / d_entity as f64
        };
        JoinStats {
            n_rows: self.n_rows,
            d_total: self.d_total(),
            d_entity,
            attr_dims,
            tuple_ratio,
            feature_ratio,
        }
    }

    /// The redundancy ratio `size(T) / Σ size(base tables)` — how much
    /// larger the materialized join is than the normalized representation.
    pub fn redundancy_ratio(&self) -> f64 {
        let t_size = (self.n_rows * self.d_total()) as f64;
        let base: usize = self
            .parts
            .iter()
            .map(|p| p.table.rows() * p.table.cols())
            .sum();
        t_size / (base.max(1)) as f64
    }

    // ---------------------------------------------------------------
    // Materialization & pruning
    // ---------------------------------------------------------------

    /// Materializes the join output `T = [I₀B₀, …, I_qB_q]` (respecting the
    /// transpose flag). This is the "M" side of every experiment.
    pub fn materialize(&self) -> Matrix {
        let blocks: Vec<Matrix> = self.parts.iter().map(|p| p.materialize()).collect();
        let refs: Vec<&Matrix> = blocks.iter().collect();
        let t = Matrix::hstack_all(&refs);
        if self.transposed {
            t.transpose()
        } else {
            t
        }
    }

    /// Appends new logical rows — the incremental-maintenance extension the
    /// paper points to via LINVIEW (§6, "to handle evolving data").
    ///
    /// `s_new` holds the new entity-feature rows (required iff the matrix
    /// has an identity part) and `fk_new[i]` holds the new foreign-key /
    /// provenance column for the `i`-th explicit-indicator part, in part
    /// order. Attribute tables are shared untouched; indicators grow by the
    /// new rows. Works for PK-FK, star, and M:N shapes.
    ///
    /// # Errors
    /// [`CoreError::BadAppend`] for a transposed receiver, a wrong number
    /// of key vectors, or missing or wrong-width entity rows;
    /// [`CoreError::RowCountMismatch`] when the additions disagree on how
    /// many rows they add; [`CoreError::KeyOutOfRange`] for a key that is
    /// not a row of its table.
    pub fn append_rows(&self, s_new: Option<&Matrix>, fk_new: &[Vec<usize>]) -> CoreResult<Self> {
        let bad = |reason: String| Err(CoreError::BadAppend(reason));
        if self.transposed {
            // Appending rows to Tᵀ would be appending columns of T.
            return bad("a transposed matrix takes no new rows".into());
        }
        let (n, n_keyed) = (fk_new.len(), self.stats().attr_dims.len());
        if n != n_keyed {
            return bad(format!("{n} key vectors for {n_keyed} key columns"));
        }
        // A key vector of the wrong length fails try_from_parts' row-count
        // check, which names its part.
        let mut fks = fk_new.iter();
        let mut parts = Vec::with_capacity(self.parts.len());
        for (idx, part) in self.parts.iter().enumerate() {
            let (table, got) = (&part.table, s_new.map(Matrix::cols));
            parts.push(match (&part.indicator, s_new) {
                (Indicator::Rows(k), _) => k.append(fks.next().expect("counted"), table)?,
                (Indicator::Identity, Some(add)) if got == Some(table.cols()) => {
                    AttributePart::new(Indicator::Identity, table.vstack(add))
                }
                (Indicator::Identity, _) => {
                    let got = got.map_or("no new rows".into(), |c| format!("rows of {c} columns"));
                    let want = table.cols();
                    return bad(format!("part {idx}: {got} for {want} entity columns"));
                }
            });
        }
        NormalizedMatrix::try_from_parts(parts)
    }

    /// Drops base-table rows that no logical row references (§3.1/§3.7:
    /// "we can remove from R all the tuples that are never referred to in
    /// S"), remapping the indicators. Identity parts are untouched.
    pub fn prune(&self) -> NormalizedMatrix {
        let parts = self
            .parts
            .iter()
            .map(|p| match &p.indicator {
                Indicator::Rows(k) => k.prune(&p.table).unwrap_or_else(|| p.clone()),
                Indicator::Identity => p.clone(),
            })
            .collect();
        NormalizedMatrix {
            parts,
            n_rows: self.n_rows,
            transposed: self.transposed,
        }
    }

    /// Selects logical rows (with repetition, in the given order) directly
    /// on the factorized representation — a row slice of the join, itself
    /// a normalized matrix, built **without** materializing the join.
    ///
    /// Per part: the indicator assignment is composed with `rows`, the
    /// base table keeps only the referenced attribute rows (in first-use
    /// order, so the result is deterministic), and a fresh one-hot
    /// indicator maps slice rows onto them. Requests that share an
    /// attribute row therefore still share one stored copy and one flop
    /// in every downstream rewrite — the paper's redundancy avoidance,
    /// carried into the slice. Identity parts gather their entity rows
    /// (each logical row owns exactly one).
    ///
    /// # Panics
    /// Panics if any index is `>= self.rows()` or if the matrix is
    /// transposed (a transposed selection would be a column slice).
    pub fn select_rows(&self, rows: &[usize]) -> NormalizedMatrix {
        assert!(
            !self.transposed,
            "select_rows: selecting columns of a transposed view is unsupported"
        );
        let n = self.n_rows;
        if let Some(&bad) = rows.iter().find(|&&r| r >= n) {
            panic!("select_rows: row {bad} out of range for {n} logical rows");
        }
        let parts = self
            .parts
            .iter()
            .map(|p| match &p.indicator {
                Indicator::Identity => {
                    AttributePart::new(Indicator::Identity, p.table.gather_rows(rows))
                }
                Indicator::Rows(k) => k.select(rows, &p.table),
            })
            .collect();
        NormalizedMatrix {
            parts,
            n_rows: rows.len(),
            transposed: false,
        }
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! Shared fixtures used by the rewrite-rule test modules.
    use super::*;
    use morpheus_dense::DenseMatrix;
    use morpheus_sparse::CsrMatrix;

    /// The paper's Figure 2 example: S is 5x2, R is 2x2, K from fk [0,1,1,0,1].
    pub fn figure2() -> NormalizedMatrix {
        let s = DenseMatrix::from_rows(&[
            &[1.0, 2.0],
            &[4.0, 3.0],
            &[5.0, 6.0],
            &[8.0, 7.0],
            &[9.0, 1.0],
        ]);
        let r = DenseMatrix::from_rows(&[&[1.1, 2.2], &[3.3, 4.4]]);
        NormalizedMatrix::pk_fk(s.into(), &[0, 1, 1, 0, 1], r.into())
    }

    /// A star-schema join with two attribute tables of different widths.
    pub fn star2() -> NormalizedMatrix {
        let s = DenseMatrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64 + 0.5);
        let r1 = DenseMatrix::from_fn(3, 2, |i, j| (10 + i * 2 + j) as f64);
        let r2 = DenseMatrix::from_fn(2, 3, |i, j| -((i * 3 + j) as f64) - 1.0);
        NormalizedMatrix::star(
            s.into(),
            vec![
                (vec![0, 1, 2, 0, 1, 2], r1.into()),
                (vec![1, 0, 0, 1, 1, 0], r2.into()),
            ],
        )
    }

    /// A two-table M:N join built from raw key columns.
    pub fn mn() -> NormalizedMatrix {
        let s = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f64 + 1.0);
        let r = DenseMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.5 + 0.1);
        // keys: S = [7, 8, 7, 9], R = [7, 7, 8] → |T'| = 2*2 + 1*1 = 5
        NormalizedMatrix::mn_join_on_keys(s.into(), &[7, 8, 7, 9], r.into(), &[7, 7, 8])
    }

    /// A sparse-table PK-FK join (both S and R sparse one-hot).
    pub fn sparse_pkfk() -> NormalizedMatrix {
        let s = CsrMatrix::from_triplets(
            5,
            3,
            &[
                (0, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (3, 0, 1.0),
                (4, 2, 1.0),
            ],
        )
        .unwrap();
        let r = CsrMatrix::from_triplets(2, 4, &[(0, 1, 1.0), (0, 3, 2.0), (1, 0, 1.0)]).unwrap();
        NormalizedMatrix::pk_fk(s.into(), &[1, 0, 0, 1, 0], r.into())
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::*;
    use super::*;
    use morpheus_dense::DenseMatrix;
    use std::sync::Arc;

    #[test]
    fn pk_fk_materializes_join() {
        let tn = figure2();
        assert_eq!(tn.shape(), (5, 4));
        let t = tn.materialize().to_dense();
        // Row 0 joins S row 0 with R row 0, row 1 with R row 1, etc.
        assert_eq!(t.row(0), &[1.0, 2.0, 1.1, 2.2]);
        assert_eq!(t.row(1), &[4.0, 3.0, 3.3, 4.4]);
        assert_eq!(t.row(3), &[8.0, 7.0, 1.1, 2.2]);
    }

    #[test]
    fn star_materializes_all_parts() {
        let tn = star2();
        assert_eq!(tn.shape(), (6, 7));
        assert_eq!(tn.col_offsets(), vec![0, 2, 4, 7]);
        let t = tn.materialize().to_dense();
        assert_eq!(t.get(0, 2), 10.0); // r1 row 0 col 0
        assert_eq!(t.get(0, 4), -4.0); // r2 row 1 col 0
    }

    #[test]
    fn mn_join_on_keys_builds_cross_pairs() {
        let tn = mn();
        // S keys [7,8,7,9]; R keys [7,7,8] → matches: s0×{r0,r1}, s1×{r2}, s2×{r0,r1} = 5 rows
        assert_eq!(tn.logical_rows(), 5);
        let t = tn.materialize().to_dense();
        assert_eq!(t.rows(), 5);
        // Every output row must be [s_row, r_row] for a matching key pair.
        assert_eq!(t.row(0)[0..2], [1.0, 2.0]); // s row 0
    }

    #[test]
    fn transpose_flips_shape_only() {
        let tn = figure2();
        let tt = tn.transpose();
        assert_eq!(tt.shape(), (4, 5));
        assert!(tt.is_transposed());
        assert!(!tt.transpose().is_transposed());
        let mt = tt.materialize().to_dense();
        assert_eq!(mt, tn.materialize().to_dense().transpose());
    }

    #[test]
    fn stats_match_paper_definitions() {
        let tn = figure2();
        let st = tn.stats();
        assert_eq!(st.n_rows, 5);
        assert_eq!(st.d_total, 4);
        assert_eq!(st.d_entity, 2);
        assert_eq!(st.attr_dims, vec![(2, 2)]);
        assert!((st.tuple_ratio - 2.5).abs() < 1e-12);
        assert!((st.feature_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn redundancy_ratio_reflects_join_blowup() {
        let tn = figure2();
        // T is 5x4 = 20; bases are 5x2 + 2x2 = 14.
        assert!((tn.redundancy_ratio() - 20.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_structures() {
        let s = DenseMatrix::zeros(3, 2);
        let r = DenseMatrix::zeros(2, 2);
        // Row-count mismatch between parts.
        let k_bad = KeyColumn::new(&[0, 1], 2).unwrap(); // only 2 logical rows
        let err = NormalizedMatrix::try_from_parts(vec![
            AttributePart::new(Indicator::Identity, Matrix::Dense(s.clone())),
            AttributePart::new(Indicator::Rows(Arc::new(k_bad)), Matrix::Dense(r.clone())),
        ])
        .unwrap_err();
        assert!(matches!(err, CoreError::RowCountMismatch { .. }));

        // A key outside the base table.
        let err = KeyColumn::new(&[0, 2, 1], 2).unwrap_err();
        assert!(matches!(
            err,
            CoreError::KeyOutOfRange {
                row: 1,
                key: 2,
                table_rows: 2
            }
        ));

        // Indicator/table mismatch.
        let k_wide = KeyColumn::new(&[0, 1, 2], 3).unwrap();
        let err = NormalizedMatrix::try_from_parts(vec![
            AttributePart::new(Indicator::Identity, Matrix::Dense(s)),
            AttributePart::new(Indicator::Rows(Arc::new(k_wide)), Matrix::Dense(r)),
        ])
        .unwrap_err();
        assert!(matches!(err, CoreError::IndicatorTableMismatch { .. }));

        assert!(matches!(
            NormalizedMatrix::try_from_parts(vec![]),
            Err(CoreError::Empty)
        ));
    }

    #[test]
    fn prune_drops_unreferenced_rows() {
        let s = DenseMatrix::from_fn(3, 1, |i, _| i as f64);
        let r = DenseMatrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64);
        // Only R rows 0 and 2 are referenced.
        let tn = NormalizedMatrix::pk_fk(s.into(), &[2, 0, 2], r.into());
        let before = tn.materialize();
        let pruned = tn.prune();
        assert_eq!(pruned.parts()[1].table().rows(), 2);
        assert!(pruned.materialize().approx_eq(&before, 1e-12));
    }

    #[test]
    fn prune_noop_when_all_referenced() {
        let tn = figure2();
        let pruned = tn.prune();
        assert_eq!(pruned.parts()[1].table().rows(), 2);
        assert!(pruned.materialize().approx_eq(&tn.materialize(), 1e-12));
    }

    #[test]
    fn sparse_parts_materialize_sparse() {
        let tn = sparse_pkfk();
        let t = tn.materialize();
        assert!(t.is_sparse());
        assert_eq!(t.shape(), (5, 7));
    }

    #[test]
    fn append_rows_matches_rebuilt_join() {
        let tn = figure2();
        // Two new customers referencing R rows 1 and 0.
        let s_new = Matrix::Dense(DenseMatrix::from_rows(&[&[10.0, 11.0], &[12.0, 13.0]]));
        let grown = tn.append_rows(Some(&s_new), &[vec![1, 0]]).unwrap();
        assert_eq!(grown.logical_rows(), 7);
        let t = grown.materialize().to_dense();
        assert_eq!(t.row(5), &[10.0, 11.0, 3.3, 4.4]);
        assert_eq!(t.row(6), &[12.0, 13.0, 1.1, 2.2]);
        // Old rows untouched.
        assert_eq!(t.row(0), &[1.0, 2.0, 1.1, 2.2]);
        // Operators keep working on the grown matrix.
        let x = DenseMatrix::from_fn(4, 1, |i, _| i as f64 + 1.0);
        assert!(grown
            .lmm(&x)
            .approx_eq(&grown.materialize().matmul_dense(&x), 1e-12));
    }

    #[test]
    fn append_rows_mn_join() {
        let tn = mn();
        let before = tn.logical_rows();
        // One new logical pair: S row 0 with R row 2.
        let grown = tn.append_rows(None, &[vec![0], vec![2]]).unwrap();
        assert_eq!(grown.logical_rows(), before + 1);
        assert!(grown
            .materialize()
            .to_dense()
            .slice_rows(0..before)
            .approx_eq(&tn.materialize().to_dense(), 1e-12));
    }

    #[test]
    fn append_rows_validates() {
        let tn = figure2();
        let s_new = Matrix::Dense(DenseMatrix::from_rows(&[&[1.0, 2.0]]));
        // Wrong number of key vectors.
        assert!(tn.append_rows(Some(&s_new), &[]).is_err());
        // Key out of range.
        assert!(tn.append_rows(Some(&s_new), &[vec![9]]).is_err());
        // Mismatched counts between S rows and keys.
        assert!(tn.append_rows(Some(&s_new), &[vec![0, 1]]).is_err());
        // Missing entity rows when an identity part exists.
        assert!(tn.append_rows(None, &[vec![0]]).is_err());
        // Transposed matrices cannot be appended to.
        assert!(tn
            .transpose()
            .append_rows(Some(&s_new), &[vec![0]])
            .is_err());
    }

    #[test]
    fn append_rows_reports_wrong_key_vector_count() {
        let s_new = Matrix::Dense(DenseMatrix::from_rows(&[&[1.0, 2.0]]));
        let err = figure2().append_rows(Some(&s_new), &[]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "append_rows: 0 key vectors for 1 key columns"
        );
    }

    #[test]
    fn append_rows_reports_wrong_entity_width() {
        let s_new = Matrix::Dense(DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let err = figure2().append_rows(Some(&s_new), &[vec![0]]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "append_rows: part 0: rows of 3 columns for 2 entity columns"
        );
    }

    #[test]
    fn append_rows_reports_transposed_receiver() {
        let s_new = Matrix::Dense(DenseMatrix::from_rows(&[&[1.0, 2.0]]));
        let err = figure2()
            .transpose()
            .append_rows(Some(&s_new), &[vec![0]])
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "append_rows: a transposed matrix takes no new rows"
        );
    }

    #[test]
    fn append_rows_reports_out_of_range_key() {
        let s_new = Matrix::Dense(DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let err = figure2()
            .append_rows(Some(&s_new), &[vec![1, 9]])
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "key 9 at row 1 is out of range for a 2-row table"
        );
    }

    #[test]
    fn multi_mn_has_no_identity_part() {
        let r1 = DenseMatrix::from_fn(2, 1, |i, _| i as f64 + 1.0);
        let r2 = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let tn = NormalizedMatrix::multi_mn(vec![
            (vec![0, 1, 1, 0], Matrix::Dense(r1)),
            (vec![2, 0, 1, 1], Matrix::Dense(r2)),
        ])
        .unwrap();
        assert_eq!(tn.shape(), (4, 3));
        assert!(tn.parts().iter().all(|p| !p.indicator().is_identity()));
        let t = tn.materialize().to_dense();
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]); // r1 row 0, r2 row 2
    }

    #[test]
    fn select_rows_matches_materialized_gather() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let n = tn.rows();
            // Repeats, out-of-order, and a singleton — the shapes batching
            // produces.
            for rows in [
                vec![0],
                vec![n - 1, 0, n - 1],
                (0..n).rev().collect::<Vec<_>>(),
                vec![1 % n, 1 % n, 0, n - 1],
            ] {
                let slice = tn.select_rows(&rows);
                assert_eq!(slice.shape(), (rows.len(), tn.cols()));
                let got = slice.materialize().to_dense();
                let want = tn.materialize().gather_rows(&rows).to_dense();
                assert!(got.approx_eq(&want, 0.0), "slice diverged for {rows:?}");
            }
        }
    }

    #[test]
    fn select_rows_stays_factorized_and_compressed() {
        // 6 logical rows over a 4-row attribute table, slice touching
        // only base rows {1, 0}: the slice keeps an explicit indicator
        // over a 2-row table — no join materialization, no dead rows.
        let s = DenseMatrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64);
        let r = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let fk = [1usize, 0, 1, 3, 2, 1];
        let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
        let slice = tn.select_rows(&[0, 1, 2, 5]);
        let attr = &slice.parts()[1];
        assert!(!attr.indicator().is_identity());
        assert_eq!(attr.table().rows(), 2, "only referenced base rows kept");
        // Shared base rows are stored once: rows 0, 2, 5 all map to base 1.
        let k = attr.indicator().as_rows().unwrap().keys();
        assert_eq!(k[0], k[2]);
        assert_eq!(k[0], k[3]);
    }

    #[test]
    fn select_rows_bitwise_stable_across_batch_composition() {
        // The value scored for a logical row must not depend on which
        // other rows share its batch — the micro-batching correctness
        // contract.
        let tn = sparse_pkfk();
        let w = DenseMatrix::from_fn(tn.cols(), 1, |i, _| (i as f64 * 0.7) - 1.0);
        let solo: Vec<f64> = (0..tn.rows())
            .map(|i| tn.select_rows(&[i]).lmm(&w).get(0, 0))
            .collect();
        let batch = tn.select_rows(&(0..tn.rows()).collect::<Vec<_>>()).lmm(&w);
        for (i, &s) in solo.iter().enumerate() {
            assert_eq!(
                s.to_bits(),
                batch.get(i, 0).to_bits(),
                "row {i} changed bits between batch sizes"
            );
        }
    }

    #[test]
    fn lmm_into_is_bit_identical_to_lmm() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            for m in [1usize, 3] {
                let x = DenseMatrix::from_fn(tn.cols(), m, |i, j| (i + 2 * j) as f64 * 0.25 - 1.0);
                let alloc = tn.lmm(&x);
                let mut buf = vec![f64::NAN; tn.rows() * m];
                tn.lmm_into(&x, &mut buf);
                for (a, b) in alloc.as_slice().iter().zip(&buf) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                // Transposed views fall back to the allocating dispatch.
                let tt = tn.transpose();
                let xt = DenseMatrix::from_fn(tt.cols(), m, |i, j| (i * 3 + j) as f64 * 0.5);
                let alloc_t = tt.lmm(&xt);
                let mut buf_t = vec![0.0; tt.rows() * m];
                tt.lmm_into(&xt, &mut buf_t);
                assert_eq!(alloc_t.as_slice(), &buf_t[..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "select_rows: row 7 out of range")]
    fn select_rows_rejects_out_of_range() {
        figure2().select_rows(&[0, 7]);
    }

    #[test]
    #[should_panic(expected = "transposed")]
    fn select_rows_rejects_transposed() {
        figure2().transpose().select_rows(&[0]);
    }
}
