//! Cache-blocked, register-tiled GEMM microkernels.
//!
//! One generic BLIS-style implementation (packed A/B panels, an
//! `MR × NR` register tile, MC/KC/NC cache blocking) instantiated for
//! both `f64` and `f32`. The public drivers are *bitwise-identical* to
//! the naive loops in [`crate::dense`] — that is the load-bearing
//! contract, pinned by proptests against the retained naive oracles:
//!
//! * [`gemm_nn_blocked`] / [`gemm_tn_blocked`] replay the naive kernels'
//!   direct accumulation into `out`: for every output element the
//!   contributions arrive in ascending-`k` order, one rounded
//!   multiply-then-add per step, exactly as the ikj/kij loops do. KC
//!   panels are applied in ascending order so blocking never reorders
//!   the per-element op sequence.
//! * [`gemm_nn_narrow`], for outputs too narrow to pack, replays the
//!   same direct accumulation, holding a few columns of each row of
//!   `out` in registers while `k` ascends.
//! * [`gemm_nt_blocked`] mirrors `gemm_nt_into`'s `out += dot(a, b)`
//!   shape instead: a fresh zero-seeded accumulator swept over the
//!   *full* `k` extent (no KC split — splitting would add a rounded
//!   partial-sum merge the naive dot never performs), then a single add
//!   into `out`.
//!
//! No FMA contraction: `c += a * b` is a rounded multiply followed by a
//! rounded add in Rust scalar semantics, matching the naive kernels.
//! The tiles exist to keep `out` traffic in registers and to hand the
//! autovectorizer contiguous `NR`-wide inner loops, not to change the
//! arithmetic.
//!
//! Tail handling: partial strips are zero-padded to full `MR`/`NR`
//! width at pack time; the padded lanes accumulate garbage that is
//! never loaded from nor stored to `out`.

use std::cell::RefCell;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};
use std::thread::LocalKey;

/// Register tile height (rows of `out` held in registers).
pub const MR: usize = 4;
/// Register tile width; 8 f64 lanes = two AVX2 vectors per row.
pub const NR: usize = 8;
/// Row-panel height of the packed A block (L1-resident strips).
pub const MC: usize = 64;
/// Depth of one packed panel pair (L1/L2-resident).
pub const KC: usize = 256;
/// Column-panel width of the packed B block.
pub const NC: usize = 256;

/// Products below this many multiply-adds stay on the naive kernels:
/// MNA-sized SPICE systems (≈24³ ≈ 14k) lose to pack overhead, while
/// one GAT layer (64×32 · 32×32 = 65k) already wins.
pub const BLOCK_MIN_FLOPS: usize = 32 * 1024;

/// Outputs at most this many columns wide take [`gemm_nn_narrow`] in
/// `gemm_into`, whatever the other extents. Measured against the naive
/// and blocked kernels on a 2-vCPU Xeon (x86-64-v3) over 16–1171 rows
/// and depths 3–64: up to 24 columns the row kernel is faster on 20–24
/// of 24 shapes (geometric-mean time 0.25–0.75×), except at widths that
/// leave three single tail columns (7, 15: 10–12 of 24); wider outputs
/// lose up to 1.5× at depth 3, and from 40 columns it wins on about half.
pub const NARROW_MAX_COLS: usize = 3 * NR;

/// Dispatch predicate shared by every `gemm_*_into` entry point.
#[inline]
pub fn use_blocked(m: usize, n: usize, k: usize) -> bool {
    m.saturating_mul(n).saturating_mul(k) >= BLOCK_MIN_FLOPS
}

/// Scalar the dense kernels are generic over: `f64`, and `f32` for the
/// opt-in fast inference path. The blocked GEMM needs only the ring
/// operations (`Default` must be the additive identity); the rest is
/// what the tape-free network forward applies elementwise.
pub trait Scalar:
    Copy
    + Default
    + PartialOrd
    + AddAssign
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Converts from `f64` (exact for `f64`, rounding for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` (exact).
    fn to_f64(self) -> f64;
    /// The larger of two values (IEEE `maxNum`, as [`f64::max`]).
    fn max(self, other: Self) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Runs `f` with this scalar's thread-local pack buffers (A panel,
    /// B panel). Falls back to fresh buffers if re-entered, so a
    /// panicking caller can never poison the scratch.
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>, &mut Vec<Self>) -> R) -> R;
}

type Scratch<T> = RefCell<(Vec<T>, Vec<T>)>;

thread_local! {
    static SCRATCH_F64: Scratch<f64> = const { RefCell::new((Vec::new(), Vec::new())) };
    static SCRATCH_F32: Scratch<f32> = const { RefCell::new((Vec::new(), Vec::new())) };
}

fn with_pack_scratch<T, R>(
    key: &'static LocalKey<Scratch<T>>,
    f: impl FnOnce(&mut Vec<T>, &mut Vec<T>) -> R,
) -> R {
    key.with(|cell| match cell.try_borrow_mut() {
        Ok(mut guard) => {
            let (apack, bpack) = &mut *guard;
            f(apack, bpack)
        }
        Err(_) => f(&mut Vec::new(), &mut Vec::new()),
    })
}

impl Scalar for f64 {
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    fn exp(self) -> Self {
        f64::exp(self)
    }
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> R) -> R {
        with_pack_scratch(&SCRATCH_F64, f)
    }
}

impl Scalar for f32 {
    fn from_f64(v: f64) -> Self {
        crate::dense32::narrow(v)
    }
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    fn exp(self) -> Self {
        f32::exp(self)
    }
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
        with_pack_scratch(&SCRATCH_F32, f)
    }
}

/// Packs an `mc × kc` logical block of A into `MR`-row strips, k-major
/// within each strip (`out[strip][kk*MR + r]`), zero-padding the last
/// strip. `trans` reads the block from a transposed source layout
/// (`src[(k0+kk)*ld + row0+r]`), which is how the TN driver views
/// `self` without materializing `selfᵀ`.
// stco-hot
#[allow(clippy::too_many_arguments)]
fn pack_a<T: Scalar>(
    src: &[T],
    ld: usize,
    trans: bool,
    row0: usize,
    k0: usize,
    mc: usize,
    kc: usize,
    out: &mut Vec<T>,
) {
    let strips = mc.div_ceil(MR);
    out.clear();
    out.resize(strips * MR * kc, T::default());
    for s in 0..strips {
        let base = s * MR * kc;
        let rmax = (mc - s * MR).min(MR);
        for kk in 0..kc {
            let dst = &mut out[base + kk * MR..base + kk * MR + rmax];
            if trans {
                let row = &src[(k0 + kk) * ld + row0 + s * MR..];
                for (d, v) in dst.iter_mut().zip(row.iter()) {
                    *d = *v;
                }
            } else {
                for (r, d) in dst.iter_mut().enumerate() {
                    *d = src[(row0 + s * MR + r) * ld + k0 + kk];
                }
            }
        }
    }
}

/// Packs a `kc × nc` logical block of B into `NR`-column strips, k-major
/// within each strip (`out[strip][kk*NR + c]`), zero-padding the last
/// strip. `trans` reads the block from a transposed source layout
/// (`src[(col0+c)*ld + k0+kk]`), which is how the NT driver views `rhs`.
// stco-hot
#[allow(clippy::too_many_arguments)]
fn pack_b<T: Scalar>(
    src: &[T],
    ld: usize,
    trans: bool,
    k0: usize,
    col0: usize,
    kc: usize,
    nc: usize,
    out: &mut Vec<T>,
) {
    let strips = nc.div_ceil(NR);
    out.clear();
    out.resize(strips * NR * kc, T::default());
    for t in 0..strips {
        let base = t * NR * kc;
        let cmax = (nc - t * NR).min(NR);
        for kk in 0..kc {
            let dst = &mut out[base + kk * NR..base + kk * NR + cmax];
            if trans {
                for (c, d) in dst.iter_mut().enumerate() {
                    *d = src[(col0 + t * NR + c) * ld + k0 + kk];
                }
            } else {
                let row = &src[(k0 + kk) * ld + col0 + t * NR..];
                for (d, v) in dst.iter_mut().zip(row.iter()) {
                    *d = *v;
                }
            }
        }
    }
}

/// The register-tile inner loop: `c[m][n] += a[m] * b[n]` for each `kk`,
/// ascending. Strict multiply-then-add per element — the exact rounded
/// op sequence the naive kernels perform. The four accumulator rows are
/// separate flat arrays (not `[[T; NR]; MR]`) so scalar replacement
/// keeps them in registers, and `chunks_exact` hands the autovectorizer
/// bound-check-free `MR`/`NR`-wide strips.
// stco-hot
#[inline(always)]
fn micro_acc<T: Scalar>(kc: usize, a: &[T], b: &[T], c: &mut [[T; NR]; MR]) {
    let [c0, c1, c2, c3] = c;
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        let (a0, a1, a2, a3) = (av[0], av[1], av[2], av[3]);
        for j in 0..NR {
            let bj = bv[j];
            c0[j] += a0 * bj;
            c1[j] += a1 * bj;
            c2[j] += a2 * bj;
            c3[j] += a3 * bj;
        }
    }
}

/// Direct-accumulation tile: load the live `out` values, accumulate the
/// panel, store back. Used by the NN/TN drivers, once per KC panel.
/// The full-tile fast path holds exactly one inlined copy of
/// [`micro_acc`]; tail tiles take the out-of-line partial path so
/// register allocation of the hot path never degrades.
#[allow(clippy::too_many_arguments)]
#[inline]
// stco-hot
fn micro_tile_load_store<T: Scalar>(
    kc: usize,
    a: &[T],
    b: &[T],
    out: &mut [T],
    ldo: usize,
    row0: usize,
    col0: usize,
    mmax: usize,
    nmax: usize,
) {
    if mmax == MR && nmax == NR {
        let mut c = [[T::default(); NR]; MR];
        for (m, crow) in c.iter_mut().enumerate() {
            let orow = &out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + NR];
            crow.copy_from_slice(orow);
        }
        micro_acc(kc, a, b, &mut c);
        for (m, crow) in c.iter().enumerate() {
            let orow = &mut out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + NR];
            orow.copy_from_slice(crow);
        }
    } else {
        micro_tile_load_store_partial(kc, a, b, out, ldo, row0, col0, mmax, nmax);
    }
}

/// Tail-tile variant of [`micro_tile_load_store`], kept out of line.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
// stco-hot
fn micro_tile_load_store_partial<T: Scalar>(
    kc: usize,
    a: &[T],
    b: &[T],
    out: &mut [T],
    ldo: usize,
    row0: usize,
    col0: usize,
    mmax: usize,
    nmax: usize,
) {
    let mut c = [[T::default(); NR]; MR];
    for (m, crow) in c.iter_mut().enumerate().take(mmax) {
        let orow = &out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + nmax];
        for (cv, o) in crow.iter_mut().zip(orow.iter()) {
            *cv = *o;
        }
    }
    micro_acc(kc, a, b, &mut c);
    for (m, crow) in c.iter().enumerate().take(mmax) {
        let orow = &mut out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + nmax];
        for (o, cv) in orow.iter_mut().zip(crow.iter()) {
            *o = *cv;
        }
    }
}

/// Fresh-accumulator tile: zero-seeded registers swept over the full
/// `k` extent, then one rounded add into `out` — `gemm_nt_into`'s
/// `out += dot(...)` shape. Used by the NT driver. Split like
/// [`micro_tile_load_store`] so the hot full-tile path carries exactly
/// one inlined copy of [`micro_acc`].
#[allow(clippy::too_many_arguments)]
#[inline]
// stco-hot
fn micro_tile_fresh_add<T: Scalar>(
    k: usize,
    a: &[T],
    b: &[T],
    out: &mut [T],
    ldo: usize,
    row0: usize,
    col0: usize,
    mmax: usize,
    nmax: usize,
) {
    if mmax == MR && nmax == NR {
        let mut c = [[T::default(); NR]; MR];
        micro_acc(k, a, b, &mut c);
        for (m, crow) in c.iter().enumerate() {
            let orow = &mut out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + NR];
            for j in 0..NR {
                orow[j] += crow[j];
            }
        }
    } else {
        micro_tile_fresh_add_partial(k, a, b, out, ldo, row0, col0, mmax, nmax);
    }
}

/// Tail-tile variant of [`micro_tile_fresh_add`], kept out of line.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
// stco-hot
fn micro_tile_fresh_add_partial<T: Scalar>(
    k: usize,
    a: &[T],
    b: &[T],
    out: &mut [T],
    ldo: usize,
    row0: usize,
    col0: usize,
    mmax: usize,
    nmax: usize,
) {
    let mut c = [[T::default(); NR]; MR];
    micro_acc(k, a, b, &mut c);
    for (m, crow) in c.iter().enumerate().take(mmax) {
        let orow = &mut out[(row0 + m) * ldo + col0..(row0 + m) * ldo + col0 + nmax];
        for (o, cv) in orow.iter_mut().zip(crow.iter()) {
            *o += *cv;
        }
    }
}

/// Shared NN/TN driver: `out += A·B` with A read straight (`atrans =
/// false`, `lda = k`) or transposed (`atrans = true`, `lda = m`). The
/// KC loop sits outside the row-panel loop so each output element sees
/// its panels in ascending-`k` order — the bitwise contract.
// stco-hot
#[allow(clippy::too_many_arguments)]
fn gemm_direct_blocked<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    atrans: bool,
    b: &[T],
    out: &mut [T],
    apack: &mut Vec<T>,
    bpack: &mut Vec<T>,
) {
    debug_assert_eq!(out.len(), m * n);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, n, false, pc, jc, kc, nc, bpack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(a, lda, atrans, ic, pc, mc, kc, apack);
                for s in 0..mc.div_ceil(MR) {
                    let astrip = &apack[s * MR * kc..(s + 1) * MR * kc];
                    let mmax = (mc - s * MR).min(MR);
                    for t in 0..nc.div_ceil(NR) {
                        let bstrip = &bpack[t * NR * kc..(t + 1) * NR * kc];
                        let nmax = (nc - t * NR).min(NR);
                        micro_tile_load_store(
                            kc,
                            astrip,
                            bstrip,
                            out,
                            n,
                            ic + s * MR,
                            jc + t * NR,
                            mmax,
                            nmax,
                        );
                    }
                }
            }
        }
    }
}

/// Row kernel `out += A·B` for row-major `A: m×k`, `B: k×n`, `out: m×n`,
/// for outputs too narrow to amortize the blocked kernel's packing.
///
/// The columns of `out` go in groups of `NR`, then one group of `NR / 2`
/// if at least that many remain, then one by one. Within a group each
/// row's outputs are held in registers, seeded from `out` and summed in
/// ascending `k`: the naive ikj kernel's rounded op sequence per
/// element, without its store and reload of `out` at every `k`.
// stco-hot
pub fn gemm_nn_narrow<T: Scalar>(m: usize, n: usize, k: usize, a: &[T], b: &[T], out: &mut [T]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let full = n - n % NR;
    for c0 in (0..full).step_by(NR) {
        narrow_group::<T, NR>(m, n, k, a, b, out, c0);
    }
    let mut c0 = full;
    if n - full >= NR / 2 {
        narrow_group::<T, { NR / 2 }>(m, n, k, a, b, out, c0);
        c0 += NR / 2;
    }
    for c in c0..n {
        narrow_group::<T, 1>(m, n, k, a, b, out, c);
    }
}

/// Columns `c0..c0 + W` of [`gemm_nn_narrow`], row by row.
// stco-hot
#[inline(always)]
fn narrow_group<T: Scalar, const W: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    b: &[T],
    out: &mut [T],
    c0: usize,
) {
    for i in 0..m {
        let orow = &mut out[i * n + c0..i * n + c0 + W];
        let mut acc = [T::default(); W];
        acc.copy_from_slice(orow);
        for (&av, brow) in a[i * k..(i + 1) * k].iter().zip(b.chunks_exact(n)) {
            let brow = &brow[c0..c0 + W];
            for l in 0..W {
                acc[l] += av * brow[l];
            }
        }
        orow.copy_from_slice(&acc);
    }
}

/// Blocked `out += A·B` for row-major `A: m×k`, `B: k×n`, `out: m×n`.
/// Bitwise-identical to the naive ikj kernel.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_blocked<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    b: &[T],
    out: &mut [T],
    apack: &mut Vec<T>,
    bpack: &mut Vec<T>,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_direct_blocked(m, n, k, a, k, false, b, out, apack, bpack);
}

/// Blocked `out += Aᵀ·B` for row-major `A: k×m` (passed untransposed),
/// `B: k×n`, `out: m×n`. Bitwise-identical to the naive kij kernel.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn_blocked<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    b: &[T],
    out: &mut [T],
    apack: &mut Vec<T>,
    bpack: &mut Vec<T>,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    gemm_direct_blocked(m, n, k, a, m, true, b, out, apack, bpack);
}

/// Blocked `out += A·Bᵀ` for row-major `A: m×k`, `B: n×k` (passed
/// untransposed), `out: m×n`. Bitwise-identical to the naive
/// dot-product kernel: each tile accumulates from zero over the full
/// `k` extent (no KC split), then adds into `out` once. Pack memory is
/// `(MC + NC) × k` scalars, fine for the `k ≲ 10³` this workspace sees.
// stco-hot
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_blocked<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    b: &[T],
    out: &mut [T],
    apack: &mut Vec<T>,
    bpack: &mut Vec<T>,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        pack_b(b, k, true, 0, jc, k, nc, bpack);
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            pack_a(a, k, false, ic, 0, mc, k, apack);
            for s in 0..mc.div_ceil(MR) {
                let astrip = &apack[s * MR * k..(s + 1) * MR * k];
                let mmax = (mc - s * MR).min(MR);
                for t in 0..nc.div_ceil(NR) {
                    let bstrip = &bpack[t * NR * k..(t + 1) * NR * k];
                    let nmax = (nc - t * NR).min(NR);
                    micro_tile_fresh_add(
                        k,
                        astrip,
                        bstrip,
                        out,
                        n,
                        ic + s * MR,
                        jc + t * NR,
                        mmax,
                        nmax,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xorshift;

    fn naive_nn(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
    }

    fn random_vec(rng: &mut Xorshift, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.uniform_in(-2.0, 2.0)).collect()
    }

    #[test]
    fn blocked_nn_matches_naive_across_shapes() {
        let mut rng = Xorshift::new(3);
        for (m, n, k) in [
            (1, 1, 1),
            (4, 8, 16),
            (5, 9, 17),
            (64, 32, 32),
            (67, 33, 31),
            (MC + 3, NR + 1, KC + 5),
        ] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let mut want = random_vec(&mut rng, m * n);
            let mut got = want.clone();
            naive_nn(m, n, k, &a, &b, &mut want);
            let (mut ap, mut bp) = (Vec::new(), Vec::new());
            gemm_nn_blocked(m, n, k, &a, &b, &mut got, &mut ap, &mut bp);
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{m}x{n}x{k}");
            }
        }
    }

    #[test]
    fn empty_k_leaves_direct_out_untouched_and_adds_zero_for_nt() {
        let mut out = vec![-0.0_f64, 1.5];
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        gemm_nn_blocked(1, 2, 0, &[], &[], &mut out, &mut ap, &mut bp);
        assert_eq!(out[0].to_bits(), (-0.0_f64).to_bits());
        // NT performs `out += 0.0` even for k = 0, matching the naive
        // `out += dot(&[], &[])`; that add normalizes -0.0 to +0.0.
        gemm_nt_blocked(1, 2, 0, &[], &[], &mut out, &mut ap, &mut bp);
        assert_eq!(out[0].to_bits(), 0.0_f64.to_bits());
        assert_eq!(out[1], 1.5);
    }

    #[test]
    fn dispatch_threshold_splits_mna_from_gat() {
        assert!(!use_blocked(24, 24, 24));
        assert!(use_blocked(64, 32, 32));
    }

    #[test]
    fn f32_instantiation_multiplies() {
        let a: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        let b: Vec<f32> = vec![5.0, 6.0, 7.0, 8.0];
        let mut out = vec![0.0_f32; 4];
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        gemm_nn_blocked(2, 2, 2, &a, &b, &mut out, &mut ap, &mut bp);
        assert_eq!(out, vec![19.0, 22.0, 43.0, 50.0]);
    }
}
