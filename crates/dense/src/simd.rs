//! Explicit-SIMD compute kernels: the packed-panel GEMM microkernel and
//! the fixed-lane reduction primitives every aggregation is built on.
//!
//! # GEMM microkernel
//!
//! The matrix-product drivers in [`crate::DenseMatrix`] all bottom out in
//! one packed-panel, register-blocked kernel (the BLIS decomposition):
//!
//! * **B** is packed once per product into `KC x NR` column panels
//!   ([`pack_b`]), zero-padded to a multiple of [`NR`] columns, shared
//!   read-only by every row band.
//! * **A** is packed per band and `KC` block into `MR`-row panels stored
//!   k-major ([`GemmBand::run`]), so the microkernel streams both operands
//!   contiguously. Packing reads through a strided [`MatSrc`] view, which
//!   is how the transposed drivers (`t_matmul`, `matmul_t`, `crossprod`,
//!   `tcrossprod`) reuse the identical kernel without materializing a
//!   transpose.
//! * The microkernel computes an `MR x NR` register tile: with AVX2+FMA,
//!   8 vector accumulators (4 rows x 2 lanes-of-4) updated by
//!   broadcast-FMA per `k` step.
//!
//! Three ISA levels implement the same tile contract ([`GemmIsa`]); which
//! one runs is decided at runtime ([`GemmIsa::active`]) from CPU feature
//! detection and the `MORPHEUS_SIMD` gate in `morpheus-runtime`.
//!
//! # Determinism contract
//!
//! Every output element is accumulated by a single fused-multiply-add (or
//! multiply-add, for [`GemmIsa::Portable`]) chain in ascending-`k` order,
//! regardless of which tile computed it — full tiles, row/column remainder
//! tiles, and band boundaries all replay the identical per-element chain.
//! Consequences, property-tested in `tests/parallel_kernels_proptest.rs`:
//!
//! * results are bit-identical run-to-run and across worker counts;
//! * [`GemmIsa::Avx2Fma`] and [`GemmIsa::ScalarFma`] produce **bit-equal**
//!   outputs (an FMA rounds the same whether issued per lane or per
//!   scalar), so `MORPHEUS_SIMD=off` on FMA hardware changes schedule, not
//!   bits;
//! * [`GemmIsa::Portable`] (multiply-then-add, no FMA anywhere) agrees to
//!   rounding tolerance — it exists for hardware without FMA.
//!
//! The reduction kernels ([`sum`], [`dot`], [`dot_indexed`], [`min`],
//! [`max`]) are stricter: they split the input into a **compile-time
//! fixed** [`LANES`]-wide set of independent accumulators (never a
//! CPU-feature-dependent width) and combine them in a fixed tree order, so
//! their results are identical across ISA levels, `MORPHEUS_SIMD`
//! settings, worker counts, and runs — the explicit AVX2 paths execute the
//! exact same additions the portable loop does, just four per instruction.

// `std::arch` intrinsics are inherently unsafe to call; every unsafe
// block in this module is a feature-gated intrinsic sequence reached only
// after `is_x86_feature_detected!` confirms the ISA (see `GemmIsa`).
#![allow(unsafe_code)]

use morpheus_runtime::Runtime;

/// Rows of one register tile of the GEMM microkernel.
pub const MR: usize = 4;

/// Columns of one register tile (two 4-wide f64 vectors under AVX2).
pub const NR: usize = 8;

/// k-extent of one packed block: the `KC x NR` B panel revisited by a row
/// band stays L1/L2-resident while the band streams over it.
pub const KC: usize = 256;

/// Accumulator count of the fixed-lane reductions. Compile-time constant
/// on purpose: the lane decomposition defines the result bits, so it must
/// not vary with the instruction set the machine happens to have.
pub const LANES: usize = 8;

/// The instruction-set levels of the GEMM microkernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmIsa {
    /// Packed vector microkernel: AVX2 broadcast + FMA, 8 accumulator
    /// vectors per tile.
    Avx2Fma,
    /// Scalar microkernel over the same packed panels, accumulating with
    /// `f64::mul_add` compiled for the `fma` target feature —
    /// bit-identical to [`GemmIsa::Avx2Fma`] and the reference the
    /// vector kernel is property-tested against.
    ScalarFma,
    /// Scalar microkernel with plain multiply-then-add — no FMA
    /// instruction or libm fallback anywhere, for hardware without FMA.
    Portable,
}

impl GemmIsa {
    /// The level the plain kernel entry points dispatch to right now:
    /// the best level the CPU supports — demoted to the scalar
    /// microkernel when `MORPHEUS_SIMD` is off (see
    /// [`Runtime::simd_enabled`]).
    pub fn active() -> GemmIsa {
        #[cfg(target_arch = "x86_64")]
        {
            let fma = std::arch::is_x86_feature_detected!("fma");
            if Runtime::simd_enabled() && fma && avx2_detected() {
                return GemmIsa::Avx2Fma;
            }
            if fma {
                return GemmIsa::ScalarFma;
            }
        }
        GemmIsa::Portable
    }
}

/// The AVX2 probe behind both dispatchers, injectable via the
/// `simd.detect` failpoint: any fired kind makes the probe report
/// "unavailable" (counted as a SIMD fallback in
/// [`morpheus_runtime::faults::stats`]). GEMM then demotes to the
/// scalar-FMA microkernel and the reductions to their scalar lane bodies
/// — both bit-identical to the vector paths, so a flaky feature probe
/// degrades speed, never results. The FMA probe stays honest: `ScalarFma`
/// genuinely requires the instruction.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_detected() -> bool {
    if morpheus_runtime::faults::check("simd.detect").is_some() {
        morpheus_runtime::faults::note(morpheus_runtime::faults::Degradation::SimdFallback);
        return false;
    }
    std::arch::is_x86_feature_detected!("avx2")
}

/// A strided read-only view of a row-major buffer: logical element
/// `(i, j)` lives at `data[i * rs + j * cs]`. `rs = row_len, cs = 1`
/// views the matrix as stored; `rs = 1, cs = row_len` views its
/// transpose — which is how every transposed product driver feeds the
/// same packing routines.
#[derive(Clone, Copy)]
pub struct MatSrc<'a> {
    /// Backing row-major buffer.
    pub data: &'a [f64],
    /// Stride between consecutive logical rows.
    pub rs: usize,
    /// Stride between consecutive logical columns.
    pub cs: usize,
}

impl MatSrc<'_> {
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// B packed for the microkernel: per `KC` block, `ceil(n / NR)` panels of
/// `kc x NR` laid out panel-major (`panel[kk * NR + jl]`), zero-padded in
/// the last panel's columns. Shared read-only across row bands.
pub struct PackedB {
    data: Vec<f64>,
    /// Inner (k) dimension of the product.
    pub k: usize,
    /// Logical column count (pre-padding).
    pub n: usize,
    /// Panel count per block: `ceil(n / NR)`.
    pub panels: usize,
}

/// Packs the `k x n` operand `b` (any [`MatSrc`] striding) into
/// [`PackedB`] form. Cost is one strided read per element — `O(k * n)`
/// against the `O(m * k * n)` product it feeds.
pub fn pack_b(b: MatSrc<'_>, k: usize, n: usize) -> PackedB {
    let panels = n.div_ceil(NR).max(1);
    let mut data = vec![0.0f64; panels * NR * k];
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        let block = &mut data[panels * NR * kb..panels * NR * (kb + kc)];
        for jp in 0..panels {
            let panel = &mut block[jp * kc * NR..(jp + 1) * kc * NR];
            let nr = NR.min(n - (jp * NR).min(n));
            for kk in 0..kc {
                for jl in 0..nr {
                    panel[kk * NR + jl] = b.at(kb + kk, jp * NR + jl);
                }
            }
        }
    }
    PackedB { data, k, n, panels }
}

/// One band of the packed-panel GEMM: accumulates
/// `C[i0 .. i0 + rows, :] += A[i0 .. i0 + rows, :] * B` into `out_band`
/// (row-major, `rows * n` elements). Bands own disjoint output rows, so
/// the band-parallel drivers dispatch this on the shared executor.
pub struct GemmBand<'a> {
    /// Left operand view (full matrix; the band offsets into it).
    pub a: MatSrc<'a>,
    /// Packed right operand, shared across bands.
    pub b: &'a PackedB,
    /// First global output row of this band.
    pub i0: usize,
    /// When set, tiles entirely left of the diagonal are skipped — the
    /// symmetric drivers (`crossprod`, `tcrossprod`) compute the upper
    /// triangle only and mirror afterwards. Skipping is tile-granular:
    /// a diagonal tile still computes its few below-diagonal elements
    /// (the mirror pass overwrites them), which keeps every
    /// upper-triangle element's accumulation chain independent of band
    /// and tile alignment.
    pub tri_upper: bool,
}

impl GemmBand<'_> {
    /// Runs the band with the given ISA level's microkernel.
    pub fn run(&self, isa: GemmIsa, out_band: &mut [f64]) {
        let n = self.b.n;
        if n == 0 {
            return;
        }
        let rows = out_band.len() / n;
        let k = self.b.k;
        let panels = self.b.panels;
        let mut apanel = [0.0f64; MR * KC];
        let mut ctile = [0.0f64; MR * NR];
        for kb in (0..k).step_by(KC) {
            let kc = KC.min(k - kb);
            let block = &self.b.data[panels * NR * kb..panels * NR * (kb + kc)];
            for it in (0..rows).step_by(MR) {
                let mr = MR.min(rows - it);
                if mr < MR {
                    apanel[..kc * MR].fill(0.0);
                }
                // Pack the tile's A rows k-major: apanel[kk * MR + r].
                for r in 0..mr {
                    let row = self.i0 + it + r;
                    for kk in 0..kc {
                        apanel[kk * MR + r] = self.a.at(row, kb + kk);
                    }
                }
                let jp_start = if self.tri_upper {
                    (self.i0 + it) / NR
                } else {
                    0
                };
                for jp in jp_start..panels {
                    let nr = NR.min(n - jp * NR);
                    let c0 = it * n + jp * NR;
                    if mr == MR && nr == NR {
                        microkernel(
                            isa,
                            kc,
                            &apanel,
                            &block[jp * kc * NR..],
                            &mut out_band[c0..],
                            n,
                        );
                    } else {
                        // Remainder tile: stage the valid C region in a
                        // zero-padded MR x NR buffer, run the identical
                        // kernel, and write the valid region back — the
                        // per-element chains match the full-tile path
                        // exactly.
                        ctile.fill(0.0);
                        for r in 0..mr {
                            ctile[r * NR..r * NR + nr]
                                .copy_from_slice(&out_band[c0 + r * n..c0 + r * n + nr]);
                        }
                        microkernel(isa, kc, &apanel, &block[jp * kc * NR..], &mut ctile, NR);
                        for r in 0..mr {
                            out_band[c0 + r * n..c0 + r * n + nr]
                                .copy_from_slice(&ctile[r * NR..r * NR + nr]);
                        }
                    }
                }
            }
        }
    }
}

/// Dispatches one `MR x NR` tile update `C += A_panel * B_panel` to the
/// ISA level's kernel. `c` holds the tile's top-left corner with row
/// stride `ldc`; `ap` is k-major (`ap[kk * MR + r]`), `bp` panel-major
/// (`bp[kk * NR + jl]`).
#[inline]
fn microkernel(isa: GemmIsa, kc: usize, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    debug_assert!(c.len() >= (MR - 1) * ldc + NR);
    match isa {
        #[cfg(target_arch = "x86_64")]
        GemmIsa::Avx2Fma => unsafe { kern_tile_avx2(kc, ap, bp, c, ldc) },
        #[cfg(not(target_arch = "x86_64"))]
        GemmIsa::Avx2Fma => kern_tile_scalar::<true>(kc, ap, bp, c, ldc),
        #[cfg(target_arch = "x86_64")]
        GemmIsa::ScalarFma => unsafe { kern_tile_scalar_fma(kc, ap, bp, c, ldc) },
        #[cfg(not(target_arch = "x86_64"))]
        GemmIsa::ScalarFma => kern_tile_scalar::<true>(kc, ap, bp, c, ldc),
        GemmIsa::Portable => kern_tile_scalar::<false>(kc, ap, bp, c, ldc),
    }
}

/// The scalar tile kernel: the reference semantics every other level must
/// reproduce (exactly, for the FMA levels). `FMA` selects fused
/// (`f64::mul_add`) vs plain multiply-add accumulation.
#[inline(always)]
fn kern_tile_scalar<const FMA: bool>(kc: usize, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize) {
    for kk in 0..kc {
        let arow = &ap[kk * MR..kk * MR + MR];
        let brow = &bp[kk * NR..kk * NR + NR];
        for r in 0..MR {
            let av = arow[r];
            let crow = &mut c[r * ldc..r * ldc + NR];
            for jl in 0..NR {
                crow[jl] = if FMA {
                    av.mul_add(brow[jl], crow[jl])
                } else {
                    crow[jl] + av * brow[jl]
                };
            }
        }
    }
}

/// [`kern_tile_scalar`] compiled with the `fma` target feature, so
/// `f64::mul_add` lowers to the hardware instruction instead of a libm
/// call. Callers must have verified `is_x86_feature_detected!("fma")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn kern_tile_scalar_fma(kc: usize, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize) {
    kern_tile_scalar::<true>(kc, ap, bp, c, ldc);
}

/// The AVX2+FMA tile kernel: 4 rows x 2 vectors of 4 accumulators, one
/// broadcast-FMA pair per row per `k` step — the identical per-element
/// chains as [`kern_tile_scalar::<true>`], four lanes at a time. Callers
/// must have verified `avx2` and `fma` support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kern_tile_avx2(kc: usize, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize) {
    use std::arch::x86_64::*;
    let cp = c.as_mut_ptr();
    // SAFETY: the dispatcher's debug-asserted bounds — c covers
    // (MR-1)*ldc + NR elements, ap covers kc*MR, bp covers kc*NR.
    unsafe {
        let mut acc = [[_mm256_setzero_pd(); 2]; MR];
        for (r, a) in acc.iter_mut().enumerate() {
            a[0] = _mm256_loadu_pd(cp.add(r * ldc));
            a[1] = _mm256_loadu_pd(cp.add(r * ldc + 4));
        }
        let a0 = ap.as_ptr();
        let b0 = bp.as_ptr();
        for kk in 0..kc {
            let bv0 = _mm256_loadu_pd(b0.add(kk * NR));
            let bv1 = _mm256_loadu_pd(b0.add(kk * NR + 4));
            for (r, a) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a0.add(kk * MR + r));
                a[0] = _mm256_fmadd_pd(av, bv0, a[0]);
                a[1] = _mm256_fmadd_pd(av, bv1, a[1]);
            }
        }
        for (r, a) in acc.iter().enumerate() {
            _mm256_storeu_pd(cp.add(r * ldc), a[0]);
            _mm256_storeu_pd(cp.add(r * ldc + 4), a[1]);
        }
    }
}

// ---------------------------------------------------------------------
// Fixed-lane reductions
// ---------------------------------------------------------------------

/// Combines the [`LANES`] accumulators in the fixed tree order that
/// defines the reduction results: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline(always)]
fn combine(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Below this length the additive reductions ([`sum`], [`dot`],
/// [`dot_indexed`]) use a plain serial fold: the lane machinery (combine
/// tree, dispatch check, tail loop) costs more than the independent
/// chains save, and factorized operands routinely reduce rows of 10–30
/// elements. Determinism is unaffected — the accumulation order remains
/// a pure function of the input length, shared by every ISA level and
/// both `MORPHEUS_SIMD` settings. The min/max folds skip the cutover:
/// their result is order-independent on numbers, and the select-based
/// lane fold is faster at every width.
const LANE_CUTOVER: usize = 32;

/// Whether the explicit AVX2 reduction bodies may run. Results are
/// identical either way (same lane algorithm); this only picks the
/// instruction sequence.
#[inline]
fn reductions_use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        Runtime::simd_enabled() && avx2_detected()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Sum of a slice with [`LANES`] independent accumulators: lane `l` sums
/// elements `l, l + LANES, l + 2·LANES, …`; the lanes are combined by
/// `combine` and the tail (`len % LANES` elements) is then added in
/// order. Slices shorter than `LANE_CUTOVER` take a serial fold
/// instead. Deterministic across runs, worker counts, ISAs, and the
/// `MORPHEUS_SIMD` gate (the order depends only on the length) — and
/// ~3x faster than the single serial dependency chain it replaces on
/// long inputs (8 chains in flight cover the FP add latency).
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    if xs.len() < LANE_CUTOVER {
        return xs.iter().sum();
    }
    if reductions_use_avx2() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 support was just detected.
        return unsafe { sum_avx2(xs) };
    }
    sum_portable(xs)
}

/// The portable body of [`sum`] — public as the reference the AVX2 body
/// is tested bit-equal against.
pub fn sum_portable(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v;
        }
    }
    let mut s = combine(acc);
    for &v in tail {
        s += v;
    }
    s
}

/// [`sum`] with two 4-wide vector accumulators — the same eight lane
/// sums and combine tree as [`sum_portable`], four additions per
/// instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_avx2(xs: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    // SAFETY: each chunk is exactly LANES = 8 elements.
    unsafe {
        let mut v0 = _mm256_setzero_pd();
        let mut v1 = _mm256_setzero_pd();
        for c in chunks {
            let p = c.as_ptr();
            v0 = _mm256_add_pd(v0, _mm256_loadu_pd(p));
            v1 = _mm256_add_pd(v1, _mm256_loadu_pd(p.add(4)));
        }
        let mut acc = [0.0f64; LANES];
        _mm256_storeu_pd(acc.as_mut_ptr(), v0);
        _mm256_storeu_pd(acc.as_mut_ptr().add(4), v1);
        let mut s = combine(acc);
        for &v in tail {
            s += v;
        }
        s
    }
}

/// Dot product with the fixed-lane decomposition of [`sum`], accumulating
/// `a[i] * b[i]` with multiply-then-add (never FMA — an FMA here would
/// make the result depend on the ISA level). Slices shorter than
/// `LANE_CUTOVER` take a serial fold. Panics are the caller's
/// concern; the slices are truncated to the shorter length like `zip`.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < LANE_CUTOVER {
        return a[..n]
            .iter()
            .zip(&b[..n])
            .fold(0.0f64, |s, (x, y)| s + x * y);
    }
    if reductions_use_avx2() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 support was just detected.
        return unsafe { dot_avx2(a, b) };
    }
    dot_portable(a, b)
}

/// The portable body of [`dot`] — the reference the AVX2 body is tested
/// bit-equal against.
pub fn dot_portable(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let mut i = 0;
    while i + LANES <= n {
        for l in 0..LANES {
            acc[l] += a[i + l] * b[i + l];
        }
        i += LANES;
    }
    let mut s = combine(acc);
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

/// [`dot`] with vector multiply + add (not FMA, matching the portable
/// body bit-for-bit).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    // SAFETY: all loads below stay within the first n elements.
    unsafe {
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut v0 = _mm256_setzero_pd();
        let mut v1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + LANES <= n {
            let p0 = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
            let p1 = _mm256_mul_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
            );
            v0 = _mm256_add_pd(v0, p0);
            v1 = _mm256_add_pd(v1, p1);
            i += LANES;
        }
        let mut acc = [0.0f64; LANES];
        _mm256_storeu_pd(acc.as_mut_ptr(), v0);
        _mm256_storeu_pd(acc.as_mut_ptr().add(4), v1);
        let mut s = combine(acc);
        while i < n {
            s += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        s
    }
}

/// Gathered dot product `Σ vals[t] * x[idx[t]]` — the inner loop of the
/// sparse row-dot kernel (width-1 SpMM). Same fixed-lane
/// decomposition as [`dot`], with the same `LANE_CUTOVER` serial path
/// for short rows (sparse rows are routinely a handful of non-zeros);
/// the gathers stay scalar (no `vgatherdpd`), the win is the eight
/// independent accumulation chains.
///
/// # Panics
/// Panics if an index is out of bounds of `x`.
#[inline]
pub fn dot_indexed(vals: &[f64], idx: &[usize], x: &[f64]) -> f64 {
    let n = vals.len().min(idx.len());
    let (vals, idx) = (&vals[..n], &idx[..n]);
    if n < LANE_CUTOVER {
        return vals
            .iter()
            .zip(idx)
            .fold(0.0f64, |s, (&v, &j)| s + v * x[j]);
    }
    let mut acc = [0.0f64; LANES];
    let mut i = 0;
    while i + LANES <= n {
        for l in 0..LANES {
            acc[l] += vals[i + l] * x[idx[i + l]];
        }
        i += LANES;
    }
    let mut s = combine(acc);
    while i < n {
        s += vals[i] * x[idx[i]];
        i += 1;
    }
    s
}

/// Minimum of a slice over [`LANES`] independent fold chains (empty input
/// yields `f64::INFINITY`). The fold step is the comparison-select
/// `if v < m { v } else { m }` — precisely the semantics of the x86
/// `minpd` instruction, so the compiler lowers each lane step to a single
/// vector op (`f64::min` would need extra NaN-fixup instructions that
/// kept the old fold 2–3x off the sum rate). NaN *data* is skipped
/// exactly like the `f64::min` fold skipped it (`NaN < m` is false and
/// the accumulator starts finite, so a NaN is never selected), and on
/// numbers min is associative/commutative — the lane decomposition
/// cannot change the result.
#[inline]
pub fn min(xs: &[f64]) -> f64 {
    fold_lanes(xs, f64::INFINITY, |m, v| if v < m { v } else { m })
}

/// Maximum counterpart of [`min`] (empty input yields
/// `f64::NEG_INFINITY`); the select lowers to `maxpd`.
#[inline]
pub fn max(xs: &[f64]) -> f64 {
    fold_lanes(xs, f64::NEG_INFINITY, |m, v| if v > m { v } else { m })
}

#[inline(always)]
fn fold_lanes(xs: &[f64], init: f64, f: impl Fn(f64, f64) -> f64 + Copy) -> f64 {
    let mut acc = [init; LANES];
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a = f(*a, v);
        }
    }
    let mut m = f(
        f(f(acc[0], acc[1]), f(acc[2], acc[3])),
        f(f(acc[4], acc[5]), f(acc[6], acc[7])),
    );
    for &v in tail {
        m = f(m, v);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn lane_sum_matches_reference_to_tolerance_and_is_exact_when_short() {
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let xs = series(n, n as u64 + 1);
            let serial: f64 = xs.iter().sum();
            let lane = sum(&xs);
            assert!(
                (lane - serial).abs() <= 1e-12 * serial.abs().max(1.0),
                "n={n}"
            );
            // Below the cutover the public entry IS the serial chain.
            if n < LANE_CUTOVER {
                assert_eq!(lane, serial, "n={n}");
            }
        }
    }

    #[test]
    fn avx2_reductions_bit_equal_portable() {
        // At and above the cutover the public entry dispatches to the
        // AVX2 body when available; it must match the portable lane
        // reference bit for bit (trivially true on non-AVX2 hosts).
        for n in [32, 33, 64, 257, 1000] {
            let a = series(n, 3);
            let b = series(n, 9);
            assert_eq!(sum(&a), sum_portable(&a), "sum n={n}");
            assert_eq!(dot(&a, &b), dot_portable(&a, &b), "dot n={n}");
        }
        // Below it, both the gate and the ISA are irrelevant: the serial
        // fold is shared.
        for n in [0, 1, 5, 8, 31] {
            let a = series(n, 3);
            let b = series(n, 9);
            assert_eq!(sum(&a), a.iter().sum::<f64>(), "short sum n={n}");
            let serial_dot = a.iter().zip(&b).fold(0.0f64, |s, (x, y)| s + x * y);
            assert_eq!(dot(&a, &b), serial_dot, "short dot n={n}");
        }
    }

    #[test]
    fn min_max_match_folds_and_ignore_nan() {
        let mut xs = series(100, 17);
        assert_eq!(min(&xs), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(
            max(&xs),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        assert_eq!(min(&[]), f64::INFINITY);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
        let true_min = min(&xs);
        xs[13] = f64::NAN;
        assert_eq!(min(&xs), true_min, "NaN must be ignored, like f64::min");
    }

    #[test]
    fn dot_indexed_matches_gather_loop() {
        let vals = series(37, 5);
        let x = series(11, 7);
        let idx: Vec<usize> = (0..37).map(|i| (i * 3) % 11).collect();
        let serial: f64 = vals.iter().zip(&idx).map(|(&v, &c)| v * x[c]).sum();
        let lane = dot_indexed(&vals, &idx, &x);
        assert!((lane - serial).abs() < 1e-12);
    }

    #[test]
    fn packed_gemm_levels_agree_on_remainder_shapes() {
        // Shapes straddling every tile boundary: m % MR, n % NR, k % KC
        // all non-zero somewhere.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 17), (13, 300, 11)] {
            let a = series(m * k, 11);
            let b = series(k * n, 13);
            let asrc = MatSrc {
                data: &a,
                rs: k,
                cs: 1,
            };
            let bsrc = MatSrc {
                data: &b,
                rs: n,
                cs: 1,
            };
            let run = |isa: GemmIsa| {
                let packed = pack_b(bsrc, k, n);
                let mut out = vec![0.0f64; m * n];
                GemmBand {
                    a: asrc,
                    b: &packed,
                    i0: 0,
                    tri_upper: false,
                }
                .run(isa, &mut out);
                out
            };
            let portable = run(GemmIsa::Portable);
            // Naive reference.
            let mut naive = vec![0.0f64; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a[i * k + kk] * b[kk * n + j];
                    }
                    naive[i * n + j] = acc;
                }
            }
            for (x, y) in portable.iter().zip(&naive) {
                assert!(
                    (x - y).abs() <= 1e-12 * y.abs().max(1.0),
                    "m={m} k={k} n={n}"
                );
            }
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("fma") {
                let scalar_fma = run(GemmIsa::ScalarFma);
                if std::arch::is_x86_feature_detected!("avx2") {
                    // The vector kernel must be BIT-identical to the
                    // scalar FMA microkernel, remainder tiles included.
                    assert_eq!(run(GemmIsa::Avx2Fma), scalar_fma, "m={m} k={k} n={n}");
                }
                for (x, y) in scalar_fma.iter().zip(&naive) {
                    assert!((x - y).abs() <= 1e-12 * y.abs().max(1.0));
                }
            }
        }
    }
}
