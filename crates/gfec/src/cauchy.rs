//! Cauchy-matrix Reed-Solomon construction — the standard alternative to
//! Vandermonde-derived systematic codes (used by e.g. Jerasure and several
//! DFS EC implementations the paper surveys in Table III). Test-only: a
//! reference code the tests cross-check [`crate::ReedSolomon`] against.
//!
//! A Cauchy matrix `C[i][j] = 1/(x_i + y_j)` with all x_i, y_j distinct has
//! the property that *every* square submatrix is invertible, which gives
//! the MDS guarantee directly — no normalization pass needed for the
//! parity rows.

use crate::gf256;
use crate::matrix::Matrix;

/// Build an m×k Cauchy parity matrix with x_i = i + k, y_j = j
/// (all 2^8 > k + m elements distinct by construction).
pub(crate) fn cauchy_parity_matrix(k: usize, m: usize) -> Matrix {
    assert!(k + m <= 256, "k+m must fit the field");
    let mut out = Matrix::zero(m, k);
    for i in 0..m {
        for j in 0..k {
            let x = (i + k) as u8;
            let y = j as u8;
            out[(i, j)] = gf256::inv(x ^ y);
        }
    }
    out
}

/// Full systematic encoding matrix: identity on top, Cauchy parity below.
pub(crate) fn cauchy_encoding_matrix(k: usize, m: usize) -> Matrix {
    let parity = cauchy_parity_matrix(k, m);
    let mut out = Matrix::zero(k + m, k);
    for i in 0..k {
        out[(i, i)] = 1;
    }
    for i in 0..m {
        for j in 0..k {
            out[(k + i, j)] = parity[(i, j)];
        }
    }
    out
}

/// Encode parities with a Cauchy matrix (reference implementation used to
/// cross-check the Vandermonde-based [`crate::ReedSolomon`]).
pub(crate) fn cauchy_encode(k: usize, m: usize, data: &[&[u8]]) -> Vec<Vec<u8>> {
    assert_eq!(data.len(), k);
    let n = data[0].len();
    assert!(data.iter().all(|d| d.len() == n), "equal chunk sizes");
    let pm = cauchy_parity_matrix(k, m);
    let mut out = vec![vec![0u8; n]; m];
    for (i, parity) in out.iter_mut().enumerate() {
        for (j, chunk) in data.iter().enumerate() {
            gf256::mul_acc_slice(pm[(i, j)], chunk, parity);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_square_submatrix_is_invertible_small() {
        // Exhaustive over row/column subsets for k=4, m=3.
        let k = 4;
        let m = 3;
        let full = cauchy_encoding_matrix(k, m);
        // Any k rows of the full matrix must invert (MDS).
        let n = k + m;
        let mut count = 0;
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != k {
                continue;
            }
            let rows: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            let sub = full.select_rows(&rows);
            assert!(sub.invert().is_some(), "singular rows {rows:?}");
            count += 1;
        }
        assert_eq!(count, 35); // C(7,4)
    }

    #[test]
    fn cauchy_recovers_erasures_via_matrix_algebra() {
        let (k, m) = (3usize, 2usize);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|j| (0..257).map(|i| ((i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parities = cauchy_encode(k, m, &refs);
        let full = cauchy_encoding_matrix(k, m);

        // Erase data chunks 0 and 2; decode from chunk 1 + both parities.
        let surviving_rows = [1usize, 3, 4];
        let sub = full.select_rows(&surviving_rows);
        let dec = sub.invert().expect("invertible");
        let survivors: [&[u8]; 3] = [&data[1], &parities[0], &parities[1]];
        for out_idx in [0usize, 2] {
            let mut rec = vec![0u8; data[0].len()];
            for (c, s) in survivors.iter().enumerate() {
                gf256::mul_acc_slice(dec[(out_idx, c)], s, &mut rec);
            }
            assert_eq!(rec, data[out_idx], "chunk {out_idx}");
        }
    }

    #[test]
    fn parity_matrix_has_no_zero_entries() {
        let pm = cauchy_parity_matrix(8, 4);
        for i in 0..4 {
            assert!(pm.row(i).iter().all(|&c| c != 0));
        }
    }

    #[test]
    #[should_panic(expected = "must fit the field")]
    fn oversized_field_rejected() {
        cauchy_parity_matrix(200, 100);
    }
}
