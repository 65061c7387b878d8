//! Dense row-major `f32` matrices for the opt-in fast inference path.
//!
//! [`MatrixF32`] is the `f32` instantiation of [`Dense`]: it shares every
//! shape, storage and GEMM method with [`Matrix`], and adds only the
//! conversions from and to `f64`. It exists for
//! `InferencePrecision::F32` in the surrogate crate: weights are narrowed
//! once and the same tape-free forward as the `f64` path runs in `f32`,
//! trading the bitwise determinism contract for a property-tested
//! relative-error bound (DESIGN.md §15).

use crate::dense::{Dense, Matrix};

/// Narrows an `f64` to `f32`.
///
/// The one sanctioned lossy conversion in the workspace: the f32
/// inference path narrows weights and activations *by design*, and the
/// resulting end-to-end error is bounded and proptested (DESIGN.md §15).
#[inline]
pub fn narrow(v: f64) -> f32 {
    // stco-check: allow(no-lossy-cast, f32 fast-inference path narrows by design; end-to-end error bound proptested)
    v as f32
}

/// A dense row-major `rows × cols` matrix of `f32`.
pub type MatrixF32 = Dense<f32>;

impl MatrixF32 {
    /// Narrows an `f64` matrix element-by-element.
    pub fn from_f64(src: &Matrix) -> Self {
        MatrixF32::from_vec(
            src.rows(),
            src.cols(),
            src.as_slice().iter().map(|&v| narrow(v)).collect(),
        )
    }

    /// Widens back to `f64` (exact; every `f32` is representable).
    pub fn to_f64(&self) -> Matrix {
        Matrix::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice().iter().map(|&v| f64::from(v)).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;

    #[test]
    fn round_trip_through_f64_is_exact() {
        let m = Matrix::from_rows(&[&[1.5, -2.25], &[0.125, 3.0]]);
        let narrow = MatrixF32::from_f64(&m);
        assert_eq!(narrow.to_f64(), m);
    }

    #[test]
    fn f32_gemm_matches_hand_result() {
        let a = MatrixF32::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = MatrixF32::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut out = MatrixF32::zeros(2, 2);
        a.gemm_into(&b, &mut out);
        assert_eq!(out.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn narrow_matches_naive_bitwise() {
        let (m, k) = (7, 5);
        for n in [1, 4, 8, 13, 24] {
            let a = MatrixF32::from_vec(m, k, (0..m * k).map(|i| (i as f32).sin()).collect());
            let b = MatrixF32::from_vec(k, n, (0..k * n).map(|i| (i as f32).cos()).collect());
            let mut naive = MatrixF32::zeros(m, n);
            let mut narrow = MatrixF32::zeros(m, n);
            a.gemm_into_naive(&b, &mut naive);
            a.gemm_into_narrow(&b, &mut narrow);
            for (x, y) in naive.as_slice().iter().zip(narrow.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn blocked_matches_naive_bitwise() {
        let n = 40;
        let vals: Vec<f32> = (0..n * n)
            .map(|i| ((i * 37 % 201) as f32) / 100.0 - 1.0)
            .collect();
        let a = MatrixF32::from_vec(n, n, vals.clone());
        let b = MatrixF32::from_vec(n, n, vals);
        let mut naive = MatrixF32::zeros(n, n);
        let mut blocked = MatrixF32::zeros(n, n);
        a.gemm_into_naive(&b, &mut naive);
        a.gemm_into_blocked(&b, &mut blocked);
        for (x, y) in naive.as_slice().iter().zip(blocked.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
