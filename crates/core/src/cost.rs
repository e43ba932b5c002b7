//! Arithmetic-computation cost model (§3.4, Table 3; appendix F, Table 11).
//!
//! The paper characterizes each rewrite by the number of arithmetic
//! computations (multiplications + additions) of the standard (materialized)
//! and factorized versions, ignoring lower-order terms. This module encodes
//! those closed forms, the derived speedups, and their asymptotic limits:
//! for most operators the speedup converges to `1 + FR` as `TR → ∞` and to
//! `TR` as `FR → ∞`; for the cross-product it converges to `(1 + FR)²`
//! because its cost is quadratic in `d`.
//!
//! The cost model is used by tests (validating the rewrites' complexity
//! claims) and by the `table3` reproduction target.
//!
//! On top of the closed forms, [`estimate_op`] converts per-operator
//! arithmetic counts into *time* estimates using a calibrated
//! [`MachineProfile`]: each operator's work is decomposed into the kernel
//! classes it actually executes (blocked dense flops, streaming
//! element-wise passes, sparse-product fused ops, indicator gathers,
//! per-part dispatch), and each class is priced at its measured rate.
//! Dense products are priced through the profile's *tier curve* — the
//! blocked-GEMM rate interpolated at the product's working-set size — so
//! a DRAM-sized materialized cross-product is charged the slower
//! out-of-cache rate while the small per-part products of the factorized
//! rewrite keep the L2 rate; sparse kernels are priced against their
//! stored entries (nnz), not their logical size. This is what the
//! per-operator planner ([`crate::PlannedMatrix`]) compares — raw flop
//! equality is a poor crossover predictor precisely because the
//! factorized path leans on the slower irregular-access kernels, the
//! effect behind the paper's L-shaped slow-down region (Figure 3) and its
//! conservative τ/ρ rule. Double matrix multiplication gets its own
//! two-operand estimate ([`estimate_dmm`]) following the appendix-C block
//! form rather than a width-`m` LMM approximation.
//!
//! Every estimate prices one operator call, through one entry point per
//! operator form: [`estimate_op`], and [`estimate_dmm`] for the
//! two-operand product. A store whose materialized route runs elsewhere
//! (the chunked backend's spill-aware [`crate::Store`]) prices it on top
//! of these. Nothing prices a sequence of calls; the join's one-time cost
//! is amortized by the planner's memo, call by call.

use crate::{MachineProfile, NormalizedMatrix};

/// Dimensions of a two-table PK-FK join, in the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dims {
    /// Rows of the entity table S (= rows of T).
    pub n_s: f64,
    /// Features of S.
    pub d_s: f64,
    /// Rows of the attribute table R.
    pub n_r: f64,
    /// Features of R.
    pub d_r: f64,
}

impl Dims {
    /// Creates dimensions from integer sizes.
    pub fn new(n_s: usize, d_s: usize, n_r: usize, d_r: usize) -> Self {
        Self {
            n_s: n_s as f64,
            d_s: d_s as f64,
            n_r: n_r as f64,
            d_r: d_r as f64,
        }
    }

    /// Tuple ratio `TR = n_S / n_R`.
    pub fn tuple_ratio(&self) -> f64 {
        self.n_s / self.n_r
    }

    /// Feature ratio `FR = d_R / d_S`.
    pub fn feature_ratio(&self) -> f64 {
        self.d_r / self.d_s
    }

    /// Total feature count `d = d_S + d_R`.
    pub fn d(&self) -> f64 {
        self.d_s + self.d_r
    }
}

/// Arithmetic computation counts for one operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Count for the standard (materialized) version.
    pub standard: f64,
    /// Count for the factorized version.
    pub factorized: f64,
}

impl OpCost {
    /// Predicted speedup `standard / factorized`.
    pub fn speedup(&self) -> f64 {
        self.standard / self.factorized
    }
}

/// Element-wise scalar operators: `n_S d` vs `n_S d_S + n_R d_R` (Table 3).
pub fn scalar_op(dm: &Dims) -> OpCost {
    OpCost {
        standard: dm.n_s * dm.d(),
        factorized: dm.n_s * dm.d_s + dm.n_r * dm.d_r,
    }
}

/// Aggregation operators share the scalar-op counts (Table 3).
pub fn aggregation(dm: &Dims) -> OpCost {
    scalar_op(dm)
}

/// LMM with a `d x d_X` parameter: `d_X n_S d` vs `d_X (n_S d_S + n_R d_R)`.
pub fn lmm(dm: &Dims, d_x: f64) -> OpCost {
    OpCost {
        standard: d_x * dm.n_s * dm.d(),
        factorized: d_x * (dm.n_s * dm.d_s + dm.n_r * dm.d_r),
    }
}

/// RMM with an `n_X x n_S` parameter: `n_X n_S d` vs
/// `n_X (n_S d_S + n_R d_R)`.
pub fn rmm(dm: &Dims, n_x: f64) -> OpCost {
    OpCost {
        standard: n_x * dm.n_s * dm.d(),
        factorized: n_x * (dm.n_s * dm.d_s + dm.n_r * dm.d_r),
    }
}

/// Cross-product: `½ d² n_S` vs `½ d_S² n_S + ½ d_R² n_R + d_S d_R n_R`.
pub fn crossprod(dm: &Dims) -> OpCost {
    OpCost {
        standard: 0.5 * dm.d() * dm.d() * dm.n_s,
        factorized: 0.5 * dm.d_s * dm.d_s * dm.n_s
            + 0.5 * dm.d_r * dm.d_r * dm.n_r
            + dm.d_s * dm.d_r * dm.n_r,
    }
}

/// Pseudo-inverse (Table 11), branching on `n_S > d` vs `n_S ≤ d`. The
/// constants reflect R's economy-SVD (`7 n d² + 20 d³` for the standard
/// route, a `27 d³` Jacobi-style inner inversion for the factorized route).
pub fn pseudo_inverse(dm: &Dims) -> OpCost {
    let d = dm.d();
    if dm.n_s > d {
        OpCost {
            standard: 7.0 * dm.n_s * d * d + 20.0 * d * d * d,
            factorized: 27.0 * d * d * d
                + 0.5 * dm.d_s * dm.d_s * dm.n_s
                + 0.5 * dm.d_r * dm.d_r * dm.n_r
                + dm.d_s * dm.d_r * dm.n_r
                + d * (dm.n_s * dm.d_s + dm.n_r * dm.d_r),
        }
    } else {
        OpCost {
            standard: 7.0 * dm.n_s * dm.n_s * d + 20.0 * dm.n_s * dm.n_s * dm.n_s,
            factorized: 27.0 * dm.n_s * dm.n_s * dm.n_s
                + 0.5 * dm.n_s * dm.n_s * dm.d_s
                + 0.5 * dm.n_r * dm.n_r * dm.d_r
                + dm.n_s * (dm.n_s * dm.d_s + dm.n_r * dm.d_r),
        }
    }
}

/// Asymptotic speedup of the linear-cost operators (scalar, aggregation,
/// LMM, RMM) as `TR → ∞`: `1 + FR`.
pub fn linear_limit_tr(fr: f64) -> f64 {
    1.0 + fr
}

/// Asymptotic speedup of the linear-cost operators as `FR → ∞`: `TR`.
pub fn linear_limit_fr(tr: f64) -> f64 {
    tr
}

/// Asymptotic cross-product speedup as `TR → ∞`: `(1 + FR)²`.
pub fn crossprod_limit_tr(fr: f64) -> f64 {
    (1.0 + fr) * (1.0 + fr)
}

/// Asymptotic pseudo-inverse (`n > d`) speedup as `TR → ∞`:
/// `14 (1 + FR)² / (2 FR + 3)` (Table 11).
pub fn ginv_limit_tr(fr: f64) -> f64 {
    14.0 * (1.0 + fr) * (1.0 + fr) / (2.0 * fr + 3.0)
}

/// Asymptotic pseudo-inverse (`n ≤ d`) speedup as `FR → ∞`:
/// `14 TR² / (1 + TR)` (Table 11).
pub fn ginv_limit_fr(tr: f64) -> f64 {
    14.0 * tr * tr / (1.0 + tr)
}

// ---------------------------------------------------------------------
// Time estimates over the unified multi-part representation
// ---------------------------------------------------------------------

/// One operator of the Table-1 set, as seen by the per-operator planner.
///
/// Matrix-multiplication variants carry the parameter width `m` (`d_X` /
/// `n_X` in the paper's notation) because their cost is linear in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Left matrix multiplication `T X` with an `d x m` parameter.
    Lmm {
        /// Parameter columns `m`.
        m: usize,
    },
    /// Transposed left multiplication `Tᵀ X` with an `n x m` parameter.
    TLmm {
        /// Parameter columns `m`.
        m: usize,
    },
    /// Right matrix multiplication `X T` with an `m x n` parameter.
    Rmm {
        /// Parameter rows `m`.
        m: usize,
    },
    /// `crossprod(T) = Tᵀ T`.
    Crossprod,
    /// `tcrossprod(T) = T Tᵀ` (the Gram matrix).
    Tcrossprod,
    /// Moore–Penrose pseudo-inverse `ginv(T)`.
    Ginv,
    /// `rowSums(T)`.
    RowSums,
    /// `colSums(T)`.
    ColSums,
    /// `sum(T)`.
    Sum,
    /// `rowMin(T)`.
    RowMin,
    /// Element-wise scalar operators and maps (`T + x`, `T²`, `exp(T)`, …)
    /// — the closure ops that stay in the input representation.
    Elementwise,
    /// Element-wise combination with a regular matrix of the same shape
    /// (§3.3.7) — non-factorizable: the "factorized" path materializes
    /// internally, so only memoized materialization can win.
    ElementwiseFallback,
    /// Double matrix multiplication `T₁ T₂` (appendix C) with a right
    /// operand of width `m`. Through [`estimate_op`] — which only sees the
    /// left operand — this prices like an LMM of width `m`; the planner's
    /// actual `dmm` routing uses the two-operand [`estimate_dmm`], which
    /// prices the appendix-C block rewrite against the left operand's join
    /// structure.
    Dmm {
        /// Right-operand columns `m`.
        m: usize,
    },
}

impl OpKind {
    /// Every plannable operator, with a representative parameter width for
    /// the multiplication variants — the single list "for every op" tests
    /// iterate, so coverage stays in one place when a variant is added.
    pub const ALL: [OpKind; 13] = [
        OpKind::Lmm { m: 2 },
        OpKind::TLmm { m: 2 },
        OpKind::Rmm { m: 2 },
        OpKind::Crossprod,
        OpKind::Tcrossprod,
        OpKind::Ginv,
        OpKind::RowSums,
        OpKind::ColSums,
        OpKind::Sum,
        OpKind::RowMin,
        OpKind::Elementwise,
        OpKind::ElementwiseFallback,
        OpKind::Dmm { m: 2 },
    ];
}

/// Estimated wall-clock nanoseconds for one operator, both ways.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Running the factorized rewrite on the normalized representation.
    pub factorized_ns: f64,
    /// Running the standard operator on the already-materialized `T`.
    pub materialized_op_ns: f64,
    /// Materializing `T` from the normalized representation (paid once;
    /// the planner amortizes it through its memo).
    pub materialize_ns: f64,
}

impl PlanEstimate {
    /// Total cost of the materialized route: the operator itself plus the
    /// join materialization unless a memoized `T` already exists.
    pub fn materialized_total_ns(&self, memoized: bool) -> f64 {
        self.materialized_op_ns + if memoized { 0.0 } else { self.materialize_ns }
    }
}

/// Structural facts of one part, extracted once per estimate.
struct PartDims {
    /// Base-table rows `nᵢ`.
    rows: f64,
    /// Base-table columns `dᵢ`.
    cols: f64,
    /// Stored entries per base-table row (`dᵢ` for dense tables).
    entries_per_row: f64,
    /// Whether the base table is dense storage.
    dense: bool,
    /// Whether the indicator is the identity.
    identity: bool,
}

impl PartDims {
    /// Stored entries of the base table.
    fn size(&self) -> f64 {
        self.rows * self.entries_per_row
    }

    /// Cost of the dense-or-sparse product `Bᵢ Xᵢ` with `m` parameter
    /// columns: tier-priced blocked flops for dense tables, sparse-rate
    /// fused ops over the stored entries (nnz-aware) for sparse ones.
    fn product_ns(&self, p: &MachineProfile, m: f64) -> f64 {
        if self.dense {
            dense_mm_ns(p, self.rows, self.cols, m)
        } else {
            self.size() * m * p.sparse_ns
        }
    }
}

/// Register-tile dims of the packed-panel GEMM microkernel
/// (`morpheus_dense::simd::{MR, NR}` — mirrored here because `core` sits
/// below `dense` in the crate DAG). The kernel computes whole `MR x NR`
/// output tiles, zero-padding the remainder, so narrow products execute
/// up to `NR / 1` times their nominal flop count and the estimate has to
/// price the padded shape the hardware actually runs.
const GEMM_MR: f64 = 4.0;
const GEMM_NR: f64 = 8.0;
const GEMM_KC: f64 = 256.0;

/// ns of a blocked dense product `(rows x k) · (k x m)`: the flop count
/// priced at the profile's tier rate for the product's working set (all
/// three operands, 8 bytes per entry) — so cache-resident products run at
/// the L2 rate and DRAM-sized ones at the streaming rate. Both output
/// dims are rounded up to the microkernel tile ([`GEMM_MR`] x
/// [`GEMM_NR`]) except for the single-row/single-column edge shapes,
/// which take the streaming axpy / per-row dot paths with no padding.
fn dense_mm_ns(p: &MachineProfile, rows: f64, k: f64, m: f64) -> f64 {
    let ws = 8.0 * (rows * k + k * m + rows * m);
    let (er, ec) = if rows <= 1.0 || m <= 1.0 {
        (rows, m)
    } else {
        (
            (rows / GEMM_MR).ceil() * GEMM_MR,
            (m / GEMM_NR).ceil() * GEMM_NR,
        )
    };
    // Beyond the tile flops, the kernel moves memory the tier rate does
    // not see: the output is re-read and re-written once per KC block of
    // the inner dimension (dominant when `k` is short relative to the
    // output — the `B Bᵀ` shape), and both operands are packed once
    // (streaming-rate copies). Short-`k` products are traffic-bound, not
    // flop-bound, and a flop-only estimate underprices them severely.
    let kc_passes = (k / GEMM_KC).ceil().max(1.0);
    let out_traffic = er * ec * kc_passes * p.ew_ns;
    let pack = (er * k + k * ec) * p.sum_ns;
    er * k * ec * p.dense_flop_ns(ws) + out_traffic + pack
}

/// ns of a width-`m` application of an explicit indicator over `n`
/// logical rows: `m` gathered elements plus the fixed per-row latency
/// (index lookup, loop overhead) each row pays — the term that makes
/// narrow (`m = 1`) applications disproportionately expensive.
fn apply_ns(p: &MachineProfile, n: f64, m: f64) -> f64 {
    n * (m * p.gather_ns + p.gather_row_ns)
}

/// Fraction of the padded `out x out` output square the triangular
/// (syrk-style) GEMM actually computes: the kernel skips whole `NR`
/// panels entirely left of each `MR` row tile's diagonal
/// (`jp_start = row / NR` in `morpheus_dense::simd::GemmBand`), so small
/// outputs compute most of the square and only large ones approach one
/// half. Pricing a flat `0.5` would underprice exactly the small
/// per-part blocks the factorized rewrites are made of.
pub(crate) fn syrk_tile_fraction(out: f64) -> f64 {
    let rt = (out / GEMM_MR).ceil().max(1.0);
    let ct = (out / GEMM_NR).ceil().max(1.0);
    let mut skipped = 0.0;
    let mut t = 0.0;
    while t < rt {
        skipped += (t * GEMM_MR / GEMM_NR).floor().min(ct);
        t += 1.0;
    }
    1.0 - skipped / (rt * ct)
}

/// ns of the symmetric product of one part's base table: `Bᵀ B` for the
/// cross-product's diagonal blocks (`out_cols = cols`) or `B Bᵀ` for the
/// Gram matrix (`out_cols = rows`). Dense tables run the triangular
/// packed-panel kernel — the computed tile fraction of the arithmetic,
/// at the measured [`MachineProfile::syrk_factor`] premium over blocked
/// GEMM.
fn sym_product_ns(p: &MachineProfile, part: &PartDims, gram: bool) -> f64 {
    let (k, out) = if gram {
        (part.cols, part.rows)
    } else {
        (part.rows, part.cols)
    };
    if part.dense {
        sym_mm_ns(p, out, k)
    } else {
        0.5 * part.size() * out * p.sparse_ns
    }
}

/// ns of a dense symmetric `out x out` product with inner dimension `k`
/// through the triangular packed-panel driver: the computed-tile
/// triangle, plus the costs unique to the symmetric kernels — one pack
/// source is read against the storage grain (the transposed view of the
/// same table), and the mirror pass copies the computed triangle across
/// the diagonal with strided access on one side.
fn sym_mm_ns(p: &MachineProfile, out: f64, k: f64) -> f64 {
    let tri = syrk_tile_fraction(out) * dense_mm_ns(p, out, k, out) * p.syrk_factor;
    let strided_pack = out * k * (p.gather_ns - p.sum_ns).max(0.0);
    let mirror = 0.5 * out * out * (p.gather_ns + p.ew_ns);
    tri + strided_pack + mirror
}

/// Everything [`estimate_op`] needs about a normalized matrix.
struct Shape {
    n: f64,
    d: f64,
    parts: Vec<PartDims>,
    /// Stored entries per logical row of the materialized `T`.
    entries_per_row: f64,
    all_dense: bool,
}

impl Shape {
    fn of(t: &NormalizedMatrix) -> Shape {
        let parts: Vec<PartDims> = t
            .parts()
            .iter()
            .map(|part| {
                let table = part.table();
                let rows = table.rows().max(1) as f64;
                let dense = !table.is_sparse();
                // nnz() is O(1) for CSR but a full scan for dense
                // storage; planning runs on every operator call, so dense
                // tables are priced at full width without looking.
                let entries_per_row = if dense {
                    table.cols() as f64
                } else {
                    table.nnz() as f64 / rows
                };
                PartDims {
                    rows,
                    cols: table.cols() as f64,
                    entries_per_row,
                    dense,
                    identity: part.indicator().is_identity(),
                }
            })
            .collect();
        let entries_per_row = parts.iter().map(|p| p.entries_per_row).sum();
        Shape {
            n: t.logical_rows() as f64,
            d: t.d_total() as f64,
            all_dense: parts.iter().all(|p| p.dense),
            parts,
            entries_per_row,
        }
    }

    /// Stored entries of the materialized `T`.
    fn mat_size(&self) -> f64 {
        self.n * self.entries_per_row
    }

    /// ns to materialize `T`: a row gather per explicit-indicator part, a
    /// streaming copy for identity parts, plus the horizontal assembly.
    fn materialize_ns(&self, p: &MachineProfile) -> f64 {
        let gathered: f64 = self
            .parts
            .iter()
            .map(|part| {
                if part.identity {
                    self.n * part.entries_per_row * p.ew_ns
                } else {
                    apply_ns(p, self.n, part.entries_per_row)
                }
            })
            .sum();
        gathered + self.mat_size() * p.ew_ns
    }
}

/// ns to materialize the join output of `t` — the cost the planner
/// amortizes across operators through its memoized `T`, and charges to
/// the materialized route of `dmm` for the operand whose join it would
/// have to build.
pub fn materialize_ns(profile: &MachineProfile, t: &NormalizedMatrix) -> f64 {
    Shape::of(t).materialize_ns(profile)
}

/// Stored entries of the materialized join of `t` (nnz-aware for sparse
/// parts) — what a store that spills the join has to hold.
pub fn stored_entries(t: &NormalizedMatrix) -> f64 {
    Shape::of(t).mat_size()
}

/// Estimates factorized vs materialized wall-clock time for the double
/// matrix multiplication `a · b` (appendix C) — the two-operand
/// counterpart of [`estimate_op`].
///
/// The factorized side prices the appendix-C block rewrite *per part of
/// the left operand's join*: each of `A`'s base tables multiplies the row
/// (or column) splits of `B`'s members at its own size and density —
/// `S_A S_B1` at the entity table's dimensions, `R_A S_B2` at the
/// attribute table's, the `K_B` splits as nnz-bounded sparse products,
/// and one indicator application per block — instead of approximating the
/// whole thing as an LMM of `B`'s width. Operand shapes outside the
/// appendix-C form (non-PK-FK) price the fallback route the rewrite
/// actually takes: materialize the smaller operand, multiply through the
/// survivor's LMM/RMM.
///
/// `materialize_ns` covers the **left** operand's join (the one the
/// planner's memo amortizes); the right operand's materialization, also
/// needed by the materialized route, is the caller's to add — the planner
/// charges it exactly when `b` has no memoized join (see
/// [`materialize_ns`]).
///
/// Transposed operands are priced at their untransposed dimensions: the
/// appendix-C transposed variants are block rewrites with the same kernel
/// classes and magnitudes as the plain form.
pub fn estimate_dmm(
    profile: &MachineProfile,
    a: &NormalizedMatrix,
    b: &NormalizedMatrix,
) -> PlanEstimate {
    let sa = Shape::of(a);
    let sb = Shape::of(b);
    let materialized_op_ns = if sa.all_dense && sb.all_dense {
        dense_mm_ns(profile, sa.n, sa.d, sb.d)
    } else {
        sa.mat_size() * sb.d * profile.sparse_ns
    };
    PlanEstimate {
        factorized_ns: dmm_f(profile, &sa, &sb),
        materialized_op_ns,
        materialize_ns: sa.materialize_ns(profile),
    }
}

/// `true` when a shape is the two-part PK-FK form appendix C rewrites:
/// an identity entity part followed by one indicator-mapped attribute
/// part.
fn is_pkfk_pair(s: &Shape) -> bool {
    s.parts.len() == 2 && s.parts[0].identity && !s.parts[1].identity
}

/// `(rows x k) · part` where the right-hand side is a base table of the
/// right operand: tier-priced dense flops, or nnz-aware sparse ops.
fn right_mul_ns(p: &MachineProfile, rows: f64, part: &PartDims) -> f64 {
    if part.dense {
        dense_mm_ns(p, rows, part.rows, part.cols)
    } else {
        rows * part.size() * p.sparse_ns
    }
}

/// Factorized cost of `A B` following the appendix-C block form when both
/// operands are two-part PK-FK joins, else the materialize-smaller
/// fallback the rewrite uses.
fn dmm_f(p: &MachineProfile, sa: &Shape, sb: &Shape) -> f64 {
    if !(is_pkfk_pair(sa) && is_pkfk_pair(sb)) {
        // dmm_fallback: materialize the smaller operand, route the other
        // through its planned RMM/LMM — priced with the matching cost
        // form (the left-materialized route executes as `b.rmm(T_A)`,
        // which pays RMM's column-strided pushes, not LMM's row gathers).
        let (a_sz, b_sz) = (sa.n * sa.d, sb.n * sb.d);
        return if a_sz <= b_sz {
            sa.materialize_ns(p) + rmm_f(p, sb, sa.n)
        } else {
            sb.materialize_ns(p) + lmm_f(p, sa, sb.d)
        };
    }
    let (ent_a, attr_a) = (&sa.parts[0], &sa.parts[1]);
    let (ent_b, attr_b) = (&sb.parts[0], &sb.parts[1]);
    let (d_sb, d_rb) = (ent_b.cols, attr_b.cols);
    let mut ns = 0.0;
    // Left block: S_A S_B1 + K_A (R_A S_B2), one gather-apply, one add.
    ns += ent_a.product_ns(p, d_sb); // S_A · S_B1 (d_SA x d_SB slice)
    ns += attr_a.product_ns(p, d_sb); // R_A · S_B2 (d_RA x d_SB slice)
    ns += apply_ns(p, sa.n, d_sb) + sa.n * d_sb * p.ew_ns;
    // Right block: (S_A K_B1) R_B + K_A ((R_A K_B2) R_B). The K_B row
    // splits are one-hot, so the products against them cost one
    // column-strided scatter op per (left row, nnz) pair — the
    // dense-times-one-hot kernel walks output columns, like RMM's push —
    // with nnz(K_B1) = d_SA, nnz(K_B2) = d_RA.
    ns += sa.n * ent_a.cols * p.col_gather_ns; // S_A · K_B1
    ns += right_mul_ns(p, sa.n, attr_b); // (n_A x n_RB) · R_B
    ns += attr_a.rows * attr_a.cols * p.col_gather_ns; // R_A · K_B2
    ns += right_mul_ns(p, attr_a.rows, attr_b); // (n_RA x n_RB) · R_B
    ns += apply_ns(p, sa.n, d_rb) + sa.n * d_rb * p.ew_ns;
    // Horizontal assembly of the two blocks.
    ns += sa.n * (d_sb + d_rb) * p.ew_ns;
    ns + overhead(p, 2)
}

/// Estimates factorized vs materialized wall-clock time for `op` on `t`,
/// pricing each kernel class at the profile's calibrated rate.
///
/// Transposed inputs are estimated through their appendix-A duals (e.g.
/// `crossprod(Tᵀ)` costs what `tcrossprod(T)` costs), mirroring how the
/// rewrites dispatch.
pub fn estimate_op(profile: &MachineProfile, t: &NormalizedMatrix, op: OpKind) -> PlanEstimate {
    let op = if t.is_transposed() { dual(op) } else { op };
    let s = Shape::of(t);
    let materialize = s.materialize_ns(profile);
    let (factorized_ns, materialized_op_ns) = match op {
        OpKind::Lmm { m } => (lmm_f(profile, &s, m as f64), mm_m(profile, &s, m as f64)),
        OpKind::TLmm { m } => (t_lmm_f(profile, &s, m as f64), mm_m(profile, &s, m as f64)),
        OpKind::Rmm { m } => (rmm_f(profile, &s, m as f64), rmm_m(profile, &s, m as f64)),
        OpKind::Crossprod => (crossprod_f(profile, &s), crossprod_m(profile, &s)),
        OpKind::Tcrossprod => (gram_f(profile, &s), gram_m(profile, &s)),
        OpKind::Ginv => ginv_both(profile, &s),
        OpKind::RowSums => (row_sums_f(profile, &s), agg_m(&s, profile.red_ns)),
        OpKind::ColSums => (col_sums_f(profile, &s), agg_m(&s, profile.red_ns)),
        OpKind::Sum => (sum_f(profile, &s), agg_m(&s, profile.sum_ns)),
        OpKind::RowMin => (row_min_f(profile, &s), agg_m(&s, profile.minmax_ns)),
        OpKind::Elementwise => (elementwise_f(profile, &s), elementwise_m(profile, &s)),
        // Single-operand approximation: without the right operand's
        // structure, the per-part products carry its full width `m`. The
        // planner's dmm() uses [`estimate_dmm`] instead.
        OpKind::Dmm { m } => (lmm_f(profile, &s, m as f64), mm_m(profile, &s, m as f64)),
        OpKind::ElementwiseFallback => {
            // Non-factorizable: the factorized path materializes anyway
            // (without the benefit of the planner's memo), then streams.
            let op_ns = elementwise_m(profile, &s);
            (materialize + op_ns, op_ns)
        }
    };
    PlanEstimate {
        factorized_ns,
        materialized_op_ns,
        materialize_ns: materialize,
    }
}

/// The appendix-A dual an operator dispatches to under the transpose flag.
fn dual(op: OpKind) -> OpKind {
    match op {
        OpKind::Lmm { m } => OpKind::TLmm { m },
        OpKind::TLmm { m } | OpKind::Rmm { m } => OpKind::Lmm { m },
        OpKind::Crossprod => OpKind::Tcrossprod,
        OpKind::Tcrossprod => OpKind::Crossprod,
        OpKind::RowSums => OpKind::ColSums,
        OpKind::ColSums => OpKind::RowSums,
        // RowMin on a transposed input materializes; price it as the
        // fallback class, whose factorized side includes materialization.
        OpKind::RowMin => OpKind::ElementwiseFallback,
        // The transposed dmm variants (appendix C: AᵀBᵀ, ABᵀ, AᵀB) are
        // block rewrites with the same kernel classes and flop magnitudes
        // as the plain form, so they price identically.
        other => other,
    }
}

fn overhead(profile: &MachineProfile, sections: usize) -> f64 {
    sections as f64 * profile.op_overhead_ns
}

/// `T X → Σᵢ Iᵢ (Bᵢ Xᵢ)`: per-part products plus one indicator
/// application (gather-add, or streaming add for identity parts) each.
fn lmm_f(p: &MachineProfile, s: &Shape, m: f64) -> f64 {
    s.parts
        .iter()
        .map(|part| {
            let apply = if part.identity {
                s.n * m * p.ew_ns
            } else {
                apply_ns(p, s.n, m)
            };
            part.product_ns(p, m) + apply
        })
        .sum::<f64>()
        + overhead(p, s.parts.len())
}

/// `Tᵀ X`: pull `X` through each indicator transposed — a *row* gather
/// over `X` — then the per-part product: the same kernel classes as LMM,
/// applied in the other order.
fn t_lmm_f(p: &MachineProfile, s: &Shape, m: f64) -> f64 {
    lmm_f(p, s, m)
}

/// `X T = [(X I₀) B₀ | …]` (RMM): each part pushes `X` through its
/// indicator from the *right* — a column-strided scatter over `X`'s `n`
/// columns, priced at the dedicated `col_gather_ns` rate because it walks
/// row-major storage against the grain (nothing like LMM's row gathers)
/// — then a dense product at the base-table width.
fn rmm_f(p: &MachineProfile, s: &Shape, m: f64) -> f64 {
    s.parts
        .iter()
        .map(|part| {
            let push = if part.identity {
                s.n * m * p.ew_ns // X passes through unchanged (copy)
            } else {
                s.n * m * p.col_gather_ns
            };
            // The product runs right-multiplied — `(m x nᵢ) · Bᵢ`, an
            // `m x dᵢ` output — so the microkernel pads the *base-table
            // width*, not the parameter width like LMM's per-part shape.
            push + right_mul_ns(p, m, part)
        })
        .sum::<f64>()
        + s.d * m * p.ew_ns // hstack of the output blocks
        + overhead(p, s.parts.len())
}

/// Any matrix multiplication on the materialized `T`: `n · d · m` fused
/// ops — blocked dense at the tier rate when `T` materializes dense,
/// nnz-aware sparse ops otherwise.
fn mm_m(p: &MachineProfile, s: &Shape, m: f64) -> f64 {
    if s.all_dense {
        dense_mm_ns(p, s.n, s.d, m)
    } else {
        s.mat_size() * m * p.sparse_ns
    }
}

/// `X T` on the materialized `T`: same fused-op count as [`mm_m`], but
/// the output is `m x d`, so the microkernel pads `T`'s width rather
/// than the (typically narrow) parameter width.
fn rmm_m(p: &MachineProfile, s: &Shape, m: f64) -> f64 {
    if s.all_dense {
        dense_mm_ns(p, m, s.n, s.d)
    } else {
        s.mat_size() * m * p.sparse_ns
    }
}

/// Block-wise `Tᵀ T` (Algorithm 2): symmetric diagonal blocks (half the
/// flops at the syrk rate, after a `diag(colSums(K))^½` row scaling for
/// explicit indicators) plus one pulled cross block per part pair.
fn crossprod_f(p: &MachineProfile, s: &Shape) -> f64 {
    let q = s.parts.len();
    let mut ns = 0.0;
    for (i, pi) in s.parts.iter().enumerate() {
        ns += sym_product_ns(p, pi, false);
        if !pi.identity {
            ns += pi.size() * p.ew_ns; // scale_rows by the reference counts
        }
        for pj in &s.parts[i + 1..] {
            // Pull the left side (its full width — the rewrite pulls the
            // earlier part, the entity table in a PK-FK join) through the
            // other indicator transposed, then a transpose-product on
            // base-table rows: apply(n, dᵢ) + nⱼ dᵢ dⱼ. The t_matmul
            // driver packs its A source column-strided (against the
            // storage grain), so it carries the same measured premium
            // over plain blocked GEMM as the symmetric kernels.
            let rows = pi.rows.min(pj.rows);
            ns +=
                apply_ns(p, s.n, pi.cols) + dense_mm_ns(p, rows, pi.cols, pj.cols) * p.syrk_factor;
        }
    }
    ns + overhead(p, q * (q + 1) / 2)
}

fn crossprod_m(p: &MachineProfile, s: &Shape) -> f64 {
    if s.all_dense {
        sym_mm_ns(p, s.d, s.n)
    } else {
        0.5 * s.mat_size() * s.d * p.sparse_ns
    }
}

/// `T Tᵀ = Σᵢ Iᵢ (Bᵢ Bᵢᵀ) Iᵢᵀ`: a per-part Gram product plus two indicator
/// applications blowing `nᵢ x nᵢ` up to `n x n`, accumulated streaming.
fn gram_f(p: &MachineProfile, s: &Shape) -> f64 {
    s.parts
        .iter()
        .map(|part| {
            let gram = sym_product_ns(p, part, true);
            let blow_up = if part.identity {
                0.0
            } else {
                (s.n * part.rows + s.n * s.n) * p.gather_ns
            };
            gram + blow_up + s.n * s.n * p.ew_ns
        })
        .sum::<f64>()
        + overhead(p, s.parts.len())
}

fn gram_m(p: &MachineProfile, s: &Shape) -> f64 {
    if s.all_dense {
        sym_mm_ns(p, s.n, s.d)
    } else {
        0.5 * s.n * s.mat_size() * p.sparse_ns
    }
}

/// `ginv(T)` (§3.3.6): an inner pseudo-inverse of the small Gram matrix
/// (`c·k³` dense work for its eigendecomposition) bracketed by the
/// factorized (or materialized) crossprod and LMM.
fn ginv_both(p: &MachineProfile, s: &Shape) -> (f64, f64) {
    // Flops of `ginv_sym_psd` on a k x k Gram: ≈ 9 k³ for the
    // tridiagonal-QL eigendecomposition with vectors (4/3 reduce + 4/3
    // accumulate + ≈ 6 rotate) and 2 k³ for the closing V Λ⁺ Vᵀ.
    const INNER: f64 = 11.0;
    let k = s.d.min(s.n);
    let inner = INNER * k * k * k * p.dense_flop_ns(8.0 * 2.0 * k * k);
    if s.d < s.n {
        (
            crossprod_f(p, s) + inner + lmm_f(p, s, s.d),
            crossprod_m(p, s) + inner + mm_m(p, s, s.d),
        )
    } else {
        (
            gram_f(p, s) + inner + t_lmm_f(p, s, s.n),
            gram_m(p, s) + inner + mm_m(p, s, s.n),
        )
    }
}

/// `rowSums(T) → Σᵢ Iᵢ rowSums(Bᵢ)`: one read-only reduction pass per
/// base table, then an `n`-row gather-accumulate of the per-part vectors
/// through each explicit indicator.
fn row_sums_f(p: &MachineProfile, s: &Shape) -> f64 {
    s.parts
        .iter()
        .map(|part| {
            let apply = if part.identity {
                s.n * p.ew_ns
            } else {
                apply_ns(p, s.n, 1.0)
            };
            part.size() * p.red_ns + apply
        })
        .sum::<f64>()
        + overhead(p, s.parts.len())
}

/// `colSums(T) → [colSums(Iᵢ) Bᵢ]`: the reference counts are one
/// scattered pass over the indicator's `n` stored entries, the
/// count-weighted fold one read pass over the base table — **no**
/// `n`-sized gather at all, which is why factorized column sums win much
/// earlier than row sums.
fn col_sums_f(p: &MachineProfile, s: &Shape) -> f64 {
    s.parts
        .iter()
        .map(|part| {
            let counts = if part.identity {
                0.0
            } else {
                s.n * p.gather_ns
            };
            counts + part.size() * p.red_ns
        })
        .sum::<f64>()
        + overhead(p, s.parts.len())
}

/// `sum(T) → Σᵢ colSums(Iᵢ) · rowSums(Bᵢ)`: per-part vectorized row-sum
/// passes plus the counts pass and a base-table-rows dot chain —
/// gather-free like colSums, and crucially *not* the serial
/// whole-matrix sum chain the materialized route runs.
fn sum_f(p: &MachineProfile, s: &Shape) -> f64 {
    s.parts
        .iter()
        .map(|part| {
            let counts = if part.identity {
                part.rows * p.red_ns
            } else {
                s.n * p.gather_ns
            };
            part.size() * p.red_ns + counts + part.rows * p.sum_ns
        })
        .sum::<f64>()
        + overhead(p, s.parts.len())
}

/// `rowMin(T)`: per-part min-fold passes, then an assignment-indexed
/// gather-min per logical row and part.
fn row_min_f(p: &MachineProfile, s: &Shape) -> f64 {
    s.parts
        .iter()
        .map(|part| part.size() * p.minmax_ns + apply_ns(p, s.n, 1.0))
        .sum::<f64>()
        + overhead(p, s.parts.len())
}

/// An aggregation on the materialized `T`: one reduction pass at the
/// kernel class's rate (vectorized sums, min folds, or the serial scalar
/// sum chain).
fn agg_m(s: &Shape, rate: f64) -> f64 {
    s.mat_size() * rate
}

/// Closure scalar ops: one streaming pass over each base table (sparse
/// tables stream their stored entries).
fn elementwise_f(p: &MachineProfile, s: &Shape) -> f64 {
    s.parts
        .iter()
        .map(|part| part.size() * p.ew_ns)
        .sum::<f64>()
        + overhead(p, s.parts.len())
}

fn elementwise_m(p: &MachineProfile, s: &Shape) -> f64 {
    s.mat_size() * p.ew_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims(tr: f64, fr: f64) -> Dims {
        // Fix n_r and d_s, derive the rest from the ratios.
        let n_r = 1.0e6;
        let d_s = 20.0;
        Dims {
            n_s: tr * n_r,
            d_s,
            n_r,
            d_r: fr * d_s,
        }
    }

    #[test]
    fn speedups_increase_with_both_ratios() {
        let base = scalar_op(&dims(5.0, 1.0)).speedup();
        assert!(scalar_op(&dims(10.0, 1.0)).speedup() > base);
        assert!(scalar_op(&dims(5.0, 2.0)).speedup() > base);
    }

    #[test]
    fn lmm_and_rmm_speedups_independent_of_parameter_width() {
        let d = dims(10.0, 2.0);
        let s1 = lmm(&d, 1.0).speedup();
        let s8 = lmm(&d, 8.0).speedup();
        assert!((s1 - s8).abs() < 1e-12);
        assert!((rmm(&d, 3.0).speedup() - s1).abs() < 1e-12);
    }

    #[test]
    fn linear_ops_converge_to_one_plus_fr() {
        let fr = 3.0;
        let sp = scalar_op(&dims(1.0e6, fr)).speedup();
        assert!(
            (sp - linear_limit_tr(fr)).abs() < 1e-3,
            "speedup {sp} far from limit {}",
            linear_limit_tr(fr)
        );
    }

    #[test]
    fn linear_ops_converge_to_tr() {
        let tr = 15.0;
        let sp = scalar_op(&dims(tr, 1.0e6)).speedup();
        assert!((sp - linear_limit_fr(tr)).abs() / tr < 1e-3);
    }

    #[test]
    fn crossprod_converges_to_squared_limit() {
        let fr = 2.0;
        let sp = crossprod(&dims(1.0e8, fr)).speedup();
        assert!(
            (sp - crossprod_limit_tr(fr)).abs() / crossprod_limit_tr(fr) < 1e-2,
            "crossprod speedup {sp} vs limit {}",
            crossprod_limit_tr(fr)
        );
    }

    #[test]
    fn crossprod_speedup_exceeds_linear_ops() {
        // Quadratic-in-d cost ⇒ strictly larger wins at the same ratios.
        let d = dims(20.0, 4.0);
        assert!(crossprod(&d).speedup() > scalar_op(&d).speedup());
    }

    #[test]
    fn ginv_tall_converges_to_table11_limit() {
        let fr = 2.0;
        // n > d branch with huge TR.
        let d = dims(1.0e9, fr);
        let sp = pseudo_inverse(&d).speedup();
        let lim = ginv_limit_tr(fr);
        assert!(
            (sp - lim).abs() / lim < 1e-2,
            "ginv speedup {sp} vs limit {lim}"
        );
    }

    #[test]
    fn ginv_branches_on_shape() {
        // Wide case: n_S ≤ d.
        let wide = Dims::new(50, 40, 10, 10_000);
        let tall = Dims::new(100_000, 20, 1_000, 40);
        assert!(wide.n_s <= wide.d());
        assert!(tall.n_s > tall.d());
        // Both must produce positive costs.
        assert!(pseudo_inverse(&wide).standard > 0.0);
        assert!(pseudo_inverse(&tall).factorized > 0.0);
    }

    #[test]
    fn table3_example_row() {
        // Spot-check Table 3 arithmetic with concrete numbers.
        let d = Dims::new(100, 2, 10, 4);
        let c = scalar_op(&d);
        assert_eq!(c.standard, 600.0); // 100 * 6
        assert_eq!(c.factorized, 240.0); // 100*2 + 10*4
        let l = lmm(&d, 3.0);
        assert_eq!(l.standard, 1800.0);
        assert_eq!(l.factorized, 720.0);
        let cp = crossprod(&d);
        assert_eq!(cp.standard, 0.5 * 36.0 * 100.0);
        assert_eq!(
            cp.factorized,
            0.5 * 4.0 * 100.0 + 0.5 * 16.0 * 10.0 + 8.0 * 10.0
        );
    }

    #[test]
    fn ratios_helpers() {
        let d = Dims::new(100, 2, 10, 4);
        assert_eq!(d.tuple_ratio(), 10.0);
        assert_eq!(d.feature_ratio(), 2.0);
        assert_eq!(d.d(), 6.0);
    }

    // ------------------------------------------------------------------
    // Time estimates
    // ------------------------------------------------------------------

    use morpheus_dense::DenseMatrix;

    fn pkfk(n_s: usize, d_s: usize, n_r: usize, d_r: usize) -> NormalizedMatrix {
        let s = DenseMatrix::from_fn(n_s, d_s, |i, j| ((i + j) % 7) as f64);
        let r = DenseMatrix::from_fn(n_r, d_r, |i, j| ((i * d_r + j) % 5) as f64 + 0.5);
        let fk: Vec<usize> = (0..n_s).map(|i| i % n_r).collect();
        NormalizedMatrix::pk_fk(s.into(), &fk, r.into())
    }

    #[test]
    fn estimates_are_positive_and_finite_for_every_op() {
        let t = pkfk(200, 4, 20, 8);
        let p = MachineProfile::REFERENCE;
        for op in OpKind::ALL {
            let e = estimate_op(&p, &t, op);
            for v in [e.factorized_ns, e.materialized_op_ns, e.materialize_ns] {
                assert!(v.is_finite() && v > 0.0, "bad estimate {v} for {op:?}");
            }
        }
    }

    #[test]
    fn high_redundancy_favors_factorized_low_favors_materialized() {
        let p = MachineProfile::REFERENCE;
        // TR = 20, FR = 2: deep in the factorized win region.
        let hot = pkfk(2_000, 10, 100, 20);
        let e = estimate_op(&p, &hot, OpKind::Crossprod);
        assert!(e.factorized_ns < e.materialized_total_ns(false));
        // TR = 1, FR = 0.25: the L-shaped slow-down corner. Once T is
        // memoized, the materialized route must win the LMM.
        let cold = pkfk(100, 16, 100, 4);
        let e = estimate_op(&p, &cold, OpKind::Lmm { m: 2 });
        assert!(e.factorized_ns > e.materialized_total_ns(true));
    }

    #[test]
    fn elementwise_fallback_never_beats_memoized_materialization() {
        let p = MachineProfile::REFERENCE;
        for t in [pkfk(500, 4, 50, 8), pkfk(60, 8, 30, 2)] {
            let e = estimate_op(&p, &t, OpKind::ElementwiseFallback);
            // F materializes internally, so it can at best tie the
            // unmemoized materialized route and always loses to a memo.
            assert!(e.factorized_ns >= e.materialized_total_ns(false));
            assert!(e.factorized_ns > e.materialized_total_ns(true));
        }
    }

    #[test]
    fn transposed_ops_price_as_their_duals() {
        let p = MachineProfile::REFERENCE;
        let t = pkfk(300, 3, 30, 6);
        let tt = t.transpose();
        let a = estimate_op(&p, &tt, OpKind::Crossprod);
        let b = estimate_op(&p, &t, OpKind::Tcrossprod);
        assert_eq!(a.factorized_ns, b.factorized_ns);
        assert_eq!(a.materialized_op_ns, b.materialized_op_ns);
        let a = estimate_op(&p, &tt, OpKind::Lmm { m: 3 });
        let b = estimate_op(&p, &t, OpKind::TLmm { m: 3 });
        assert_eq!(a.factorized_ns, b.factorized_ns);
    }

    #[test]
    fn tier_pricing_charges_large_dense_products_a_slower_rate() {
        // Same flop count, bigger working set ⇒ the per-flop rate (and
        // with it the estimate per flop) must not be cheaper. A small
        // crossprod fits L2; one ~64x larger in rows spills.
        let p = MachineProfile::REFERENCE;
        let small = Shape::of(&pkfk(400, 8, 40, 8));
        let large = Shape::of(&pkfk(25_600, 8, 40, 8));
        // Per-computed-flop rate: the estimate divided by the tile work
        // the triangular kernel actually runs (padded square times the
        // computed-tile fraction, at the syrk premium).
        let rate = |s: &Shape| {
            let ec = (s.d / GEMM_NR).ceil() * GEMM_NR;
            let er = (s.d / GEMM_MR).ceil() * GEMM_MR;
            crossprod_m(&p, s) / (syrk_tile_fraction(s.d) * er * s.n * ec * p.syrk_factor)
        };
        assert!(
            rate(&large) > rate(&small) * 1.05,
            "large crossprod must be priced above the L2 rate: {} vs {}",
            rate(&large),
            rate(&small)
        );
        // And both sit inside the calibrated tier band, allowing the
        // structural traffic terms (packing, strided source, mirror
        // pass) that ride on top of the pure flop rate.
        for s in [&small, &large] {
            let r = rate(s);
            assert!(r >= p.dense_tiers[0].ns && r <= 2.0 * p.dense_tiers[2].ns);
        }
    }

    #[test]
    fn sparse_parts_price_by_nnz_not_logical_size() {
        use morpheus_sparse::CsrMatrix;
        let p = MachineProfile::REFERENCE;
        let n_s = 600;
        let s = DenseMatrix::from_fn(n_s, 4, |i, j| ((i + j) % 5) as f64);
        let fk: Vec<usize> = (0..n_s).map(|i| i % 30).collect();
        let mk_sparse = |nnz_per_row: usize| {
            let trips: Vec<(usize, usize, f64)> = (0..30)
                .flat_map(|i| (0..nnz_per_row).map(move |k| (i, (i * 7 + k * 3) % 16, 1.0)))
                .collect();
            let r = CsrMatrix::from_triplets(30, 16, &trips).unwrap();
            NormalizedMatrix::pk_fk(s.clone().into(), &fk, crate::Matrix::Sparse(r))
        };
        // 16x the stored entries in the same logical shape ⇒ strictly more
        // expensive factorized products.
        let thin = estimate_op(&p, &mk_sparse(1), OpKind::Lmm { m: 4 });
        let fat = estimate_op(&p, &mk_sparse(16), OpKind::Lmm { m: 4 });
        assert!(
            fat.factorized_ns > thin.factorized_ns,
            "nnz must drive the sparse price: {} vs {}",
            thin.factorized_ns,
            fat.factorized_ns
        );
    }

    #[test]
    fn dmm_estimate_is_finite_positive_and_tracks_redundancy() {
        let p = MachineProfile::REFERENCE;
        // d_A = 4 + 8 = 12 ⇒ B has 12 rows.
        let mk_b = || {
            let sb = DenseMatrix::from_fn(12, 3, |i, j| (i + j) as f64 * 0.25);
            let rb = DenseMatrix::from_fn(4, 5, |i, j| ((i * 5 + j) % 7) as f64 - 2.0);
            let fk: Vec<usize> = (0..12).map(|i| i % 4).collect();
            NormalizedMatrix::pk_fk(sb.into(), &fk, rb.into())
        };
        let low = pkfk(60, 4, 60, 8); // TR = 1
        let high = pkfk(6_000, 4, 60, 8); // TR = 100
        for a in [&low, &high] {
            let e = estimate_dmm(&p, a, &mk_b());
            for v in [e.factorized_ns, e.materialized_op_ns, e.materialize_ns] {
                assert!(v.is_finite() && v > 0.0, "bad dmm estimate {v}");
            }
        }
        // The factorized advantage must grow with the left tuple ratio —
        // the attribute-table blocks of appendix C are priced at n_R, not
        // n_S.
        let e_low = estimate_dmm(&p, &low, &mk_b());
        let e_high = estimate_dmm(&p, &high, &mk_b());
        assert!(
            e_high.materialized_op_ns / e_high.factorized_ns
                > e_low.materialized_op_ns / e_low.factorized_ns,
            "dmm speedup should grow with TR"
        );
    }

    #[test]
    fn dmm_estimate_sees_right_operand_structure_the_lmm_approximation_cannot() {
        // Two right operands with the same width d_B but different
        // internal splits: the width-m LMM approximation prices them
        // identically, the appendix-C form must not — it prices B's
        // entity/attribute blocks separately against the left join.
        let p = MachineProfile::REFERENCE;
        let a = pkfk(5_000, 4, 50, 8); // d_A = 12
        let mk_b = |d_sb: usize, n_rb: usize| {
            let d_rb = 16 - d_sb;
            let sb = DenseMatrix::from_fn(12, d_sb, |i, j| (i + j) as f64 * 0.5);
            let rb = DenseMatrix::from_fn(n_rb, d_rb, |i, j| (i * 2 + j) as f64);
            let fk: Vec<usize> = (0..12).map(|i| i % n_rb).collect();
            NormalizedMatrix::pk_fk(sb.into(), &fk, rb.into())
        };
        let (b1, b2) = (mk_b(6, 3), mk_b(2, 9));
        assert_eq!(b1.cols(), b2.cols());
        let e1 = estimate_dmm(&p, &a, &b1);
        let e2 = estimate_dmm(&p, &a, &b2);
        assert!(
            (e1.factorized_ns - e2.factorized_ns).abs() > 1e-6,
            "appendix-C pricing must distinguish B's split: {} == {}",
            e1.factorized_ns,
            e2.factorized_ns
        );
        // The width-m approximation is blind to the split by construction.
        let a1 = estimate_op(&p, &a, OpKind::Dmm { m: b1.cols() });
        let a2 = estimate_op(&p, &a, OpKind::Dmm { m: b2.cols() });
        assert_eq!(a1.factorized_ns, a2.factorized_ns);
    }

    #[test]
    fn dmm_estimate_falls_back_for_non_pkfk_shapes() {
        let p = MachineProfile::REFERENCE;
        // An M:N-shaped left operand is outside appendix C.
        let s = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64 + 1.0);
        let r = DenseMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64 * 0.5);
        let a = NormalizedMatrix::mn_join(s.into(), &[0, 1, 2, 0], r.into(), &[0, 1, 1, 0]);
        let sb = DenseMatrix::from_fn(4, 1, |i, _| i as f64);
        let rb = DenseMatrix::from_fn(1, 3, |_, j| 2.0 + j as f64);
        let b = NormalizedMatrix::pk_fk(sb.into(), &[0, 0, 0, 0], rb.into());
        let e = estimate_dmm(&p, &a, &b);
        assert!(e.factorized_ns.is_finite() && e.factorized_ns > 0.0);
        // The fallback materializes the smaller operand, so its price is
        // at least that materialization.
        let smaller = materialize_ns(&p, &a).min(materialize_ns(&p, &b));
        assert!(e.factorized_ns >= smaller);
    }

    #[test]
    fn crossprod_factorized_advantage_grows_with_tuple_ratio() {
        let p = MachineProfile::REFERENCE;
        let low = estimate_op(&p, &pkfk(200, 5, 100, 10), OpKind::Crossprod);
        let high = estimate_op(&p, &pkfk(2_000, 5, 100, 10), OpKind::Crossprod);
        let ratio_low = low.materialized_op_ns / low.factorized_ns;
        let ratio_high = high.materialized_op_ns / high.factorized_ns;
        assert!(
            ratio_high > ratio_low,
            "crossprod speedup should grow with TR: {ratio_low} vs {ratio_high}"
        );
    }
}
