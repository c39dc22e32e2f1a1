package linalg

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// EigenResult holds the eigendecomposition of a symmetric matrix:
// Values[i] is the i-th eigenvalue (ascending) and Vectors column i is
// the corresponding unit eigenvector.
type EigenResult struct {
	Values  []float64
	Vectors *Matrix // n x n, eigenvectors as columns
}

// maxQLIter bounds the implicit QL iterations spent on one eigenvalue.
// The shifted iteration converges cubically and needs one or two steps
// per eigenvalue in practice; hitting the bound means the input is not
// a well-formed symmetric matrix.
const maxQLIter = 64

// SymmetricEigen computes the full eigendecomposition of a real
// symmetric matrix: Householder reduction to tridiagonal form (tred2)
// followed by the implicit QL algorithm with accumulated eigenvectors
// (tql2), in the operation order of JAMA / EISPACK. The input is not
// modified. Eigenpairs are returned in ascending eigenvalue order, ties
// kept in the order tql2 produced them.
//
// ctx is checked before any work, once per Householder column and once
// per QL iteration; a cancelled or expired ctx returns ctx.Err().
func SymmetricEigen(ctx context.Context, m *Matrix) (*EigenResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: eigen of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	if !m.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("linalg: eigen of non-symmetric matrix")
	}
	n := m.Rows
	w := m.Transpose()
	d := make([]float64, n)
	e := make([]float64, n)
	if n > 0 {
		if err := tred2(ctx, n, w.Data, d, e); err != nil {
			return nil, err
		}
		if err := tql2(ctx, n, w.Data, d, e); err != nil {
			return nil, err
		}
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return d[order[i]] < d[order[j]] })
	res := &EigenResult{Values: make([]float64, n), Vectors: NewMatrix(n, n)}
	for rank, idx := range order {
		res.Values[rank] = d[idx]
		for r := 0; r < n; r++ {
			res.Vectors.Data[r*n+rank] = w.Data[idx*n+r]
		}
	}
	return res, nil
}

// tred2 reduces a symmetric n x n matrix to tridiagonal form by
// Householder similarity transformations, leaving the diagonal in d,
// the subdiagonal in e[1:] and the accumulated orthogonal
// transformation V in w. It is derived from the Algol procedure tred2
// by Bowdler, Martin, Reinsch and Wilkinson (Handbook for Automatic
// Computation, Vol. II) via EISPACK and JAMA, whose operation order it
// keeps.
//
// w holds V transposed (row-major, w[c*n+r] = V[r][c]) so that the
// algorithm's column sweeps run along contiguous memory; on entry it
// holds the input matrix transposed.
func tred2(ctx context.Context, n int, w, d, e []float64) error {
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
	}

	// Householder reduction to tridiagonal form.
	for i := n - 1; i > 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
				w[i*n+j] = 0
			}
		} else {
			// Generate the Householder vector.
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}

			// Apply the similarity transformation to the remaining
			// columns.
			for j := 0; j < i; j++ {
				f = d[j]
				w[i*n+j] = f
				col := w[j*n : j*n+i]
				g = e[j] + col[j]*f
				for k := j + 1; k < i; k++ {
					g += col[k] * d[k]
					e[k] += col[k] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				col := w[j*n : j*n+i]
				for k := j; k < i; k++ {
					col[k] -= f*e[k] + g*d[k]
				}
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
			}
		}
		d[i] = h
	}

	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w[i*n+n-1] = w[i*n+i]
		w[i*n+i] = 1
		h := d[i+1]
		next := w[(i+1)*n : (i+1)*n+i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = next[k] / h
			}
			for j := 0; j <= i; j++ {
				col := w[j*n : j*n+i+1]
				g := 0.0
				for k := 0; k <= i; k++ {
					g += next[k] * col[k]
				}
				for k := 0; k <= i; k++ {
					col[k] -= g * d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			next[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
		w[j*n+n-1] = 0
	}
	w[(n-1)*n+n-1] = 1
	e[0] = 0
	return nil
}

// tql2 diagonalises the symmetric tridiagonal matrix (d, e[1:]) left by
// tred2 with the implicit QL algorithm, accumulating the rotations into
// w (V transposed, as in tred2). On return d holds the unsorted
// eigenvalues and row j of w the unit eigenvector of d[j]. It is
// derived from the Algol procedure tql2 by Bowdler, Martin, Reinsch and
// Wilkinson via EISPACK and JAMA, whose operation order it keeps.
func tql2(ctx context.Context, n int, w, d, e []float64) error {
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	f, tst1 := 0.0, 0.0
	const eps = 0x1p-52
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}

		// If m == l, d[l] is already an eigenvalue; otherwise iterate.
		if m > l {
			for iter := 0; ; iter++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				if iter == maxQLIter {
					return fmt.Errorf("linalg: QL iteration did not converge for eigenvalue %d", l)
				}

				// Compute the implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h

				// Implicit QL transformation.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])

					// Accumulate the transformation.
					vi, vi1 := w[i*n:i*n+n], w[(i+1)*n:(i+1)*n+n]
					for k := range vi {
						h = vi1[k]
						vi1[k] = s*vi[k] + c*h
						vi[k] = c*vi[k] - s*h
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p

				// Check for convergence.
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
