//! Dense matrices over GF(2^8) with Gauss-Jordan inversion — the algebra
//! behind Reed-Solomon encode (Fig 12 of the paper: parity = encoding
//! matrix × data chunks) and erasure decode (inverting the surviving rows).

use crate::gf256;

#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        Ok(())
    }
}

impl Matrix {
    pub(crate) fn zero(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    pub(crate) fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Vandermonde matrix `v[i][j] = α^(i·j)`: any k of its rows are linearly
    /// independent, the property RS erasure tolerance rests on.
    pub(crate) fn vandermonde(rows: usize, cols: usize) -> Matrix {
        assert!(rows <= 255, "at most 255 distinct evaluation points");
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let x = gf256::pow(gf256::GENERATOR, i as u32);
            let mut acc = 1u8;
            for j in 0..cols {
                m[(i, j)] = acc;
                acc = gf256::mul(acc, x);
            }
        }
        m
    }

    pub(crate) fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u8] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Select a subset of rows (e.g. the surviving shards' rows).
    pub(crate) fn select_rows(&self, which: &[usize]) -> Matrix {
        let mut out = Matrix::zero(which.len(), self.cols);
        for (i, &r) in which.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    pub(crate) fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self[(i, l)];
                if a == 0 {
                    continue;
                }
                let rrow = rhs.row(l);
                let orow = out.row_mut(i);
                gf256::mul_acc_slice(a, rrow, orow);
            }
        }
        out
    }

    /// Gauss-Jordan inverse; `None` when singular.
    pub(crate) fn invert(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find pivot.
            let pivot = (col..n).find(|&r| a[(r, col)] != 0)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalize pivot row.
            let p = a[(col, col)];
            let pinv = gf256::inv(p);
            scale_row(a.row_mut(col), pinv);
            scale_row(inv.row_mut(col), pinv);
            // Eliminate the column elsewhere.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a[(r, col)];
                if f == 0 {
                    continue;
                }
                let (arow, acol) = a.two_rows(r, col);
                gf256::mul_acc_slice(f, acol, arow);
                let (irow, icol) = inv.two_rows(r, col);
                gf256::mul_acc_slice(f, icol, irow);
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * self.cols);
        head[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Mutable row `r` together with immutable row `other` (r != other).
    fn two_rows(&mut self, r: usize, other: usize) -> (&mut [u8], &[u8]) {
        assert_ne!(r, other);
        let c = self.cols;
        if r < other {
            let (head, tail) = self.data.split_at_mut(other * c);
            (&mut head[r * c..(r + 1) * c], &tail[..c])
        } else {
            let (head, tail) = self.data.split_at_mut(r * c);
            (&mut tail[..c], &head[other * c..(other + 1) * c])
        }
    }
}

fn scale_row(row: &mut [u8], c: u8) {
    for v in row {
        *v = gf256::mul(*v, c);
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = u8;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &u8 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut u8 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix with the given rows (all of one length).
    fn from_rows(rows: &[&[u8]]) -> Matrix {
        let mut m = Matrix::zero(rows.len(), rows[0].len());
        for (r, row) in rows.iter().enumerate() {
            m.row_mut(r).copy_from_slice(row);
        }
        m
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = Matrix::vandermonde(4, 4);
        let i = Matrix::identity(4);
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
    }

    #[test]
    fn vandermonde_top_square_inverts() {
        for n in 1..=8 {
            let v = Matrix::vandermonde(n, n);
            let vi = v.invert().expect("vandermonde square is invertible");
            assert_eq!(v.mul(&vi), Matrix::identity(n), "n={n}");
        }
    }

    #[test]
    fn singular_matrix_returns_none() {
        let m = from_rows(&[&[1, 2], &[1, 2]]);
        assert!(m.invert().is_none());
        let z = Matrix::zero(3, 3);
        assert!(z.invert().is_none());
    }

    #[test]
    fn inverse_with_row_swaps() {
        // Leading zero forces pivoting.
        let m = from_rows(&[&[0, 1, 2], &[3, 4, 5], &[6, 7, 1]]);
        let mi = m.invert().expect("invertible");
        assert_eq!(m.mul(&mi), Matrix::identity(3));
        assert_eq!(mi.mul(&m), Matrix::identity(3));
    }

    #[test]
    fn select_rows_picks_rows() {
        let m = Matrix::vandermonde(5, 3);
        let s = m.select_rows(&[4, 0]);
        assert_eq!(s.row(0), m.row(4));
        assert_eq!(s.row(1), m.row(0));
    }

    #[test]
    fn any_k_rows_of_tall_vandermonde_invert() {
        // The MDS property source: every k-subset of rows is invertible.
        let k = 4;
        let v = Matrix::vandermonde(8, k);
        // Exhaustive over C(8,4) = 70 subsets.
        let mut subset = [0usize; 4];
        fn rec(v: &Matrix, k: usize, start: usize, depth: usize, subset: &mut [usize; 4]) {
            if depth == k {
                let s = v.select_rows(&subset[..]);
                assert!(s.invert().is_some(), "singular subset {subset:?}");
                return;
            }
            for i in start..v.rows {
                subset[depth] = i;
                rec(v, k, i + 1, depth + 1, subset);
            }
        }
        rec(&v, k, 0, 0, &mut subset);
    }

    #[test]
    fn mul_dimensions_and_content() {
        let a = from_rows(&[&[1, 0], &[0, 2]]);
        let b = from_rows(&[&[5, 6, 7], &[8, 9, 10]]);
        let c = a.mul(&b);
        assert_eq!((c.rows, c.cols), (2, 3));
        assert_eq!(c.row(0), &[5, 6, 7]);
        assert_eq!(
            c.row(1),
            &[gf256::mul(2, 8), gf256::mul(2, 9), gf256::mul(2, 10)]
        );
    }
}
