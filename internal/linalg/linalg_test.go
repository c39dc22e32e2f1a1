package linalg

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixZero(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zero-initialised")
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 3.5)
	m.Add(0, 1, 1.5)
	if m.At(0, 1) != 5 {
		t.Fatalf("At = %v, want 5", m.At(0, 1))
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := Identity(2)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRowCol(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	r := m.Row(1)
	if r[0] != 10 || r[2] != 12 {
		t.Fatalf("Row(1) = %v", r)
	}
	c := m.Col(2)
	if c[0] != 2 || c[1] != 12 {
		t.Fatalf("Col(2) = %v", c)
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 2, 7)
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 0) != 7 {
		t.Fatalf("transpose wrong: %+v", tr)
	}
}

func TestMul(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := Identity(2)
	c := a.Mul(b)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != a.At(i, j) {
				t.Fatalf("A*I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched shapes did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 2))
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 3)
	got := m.MulVec([]float64{4, 5})
	if got[0] != 8 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestIsSymmetric(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 1)
	if m.IsSymmetric(1e-12) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	m.Set(1, 0, 1)
	if !m.IsSymmetric(1e-12) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(1) {
		t.Fatal("non-square matrix reported symmetric")
	}
}

func TestEigenRejectsNonSymmetric(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	if _, err := SymmetricEigen(context.Background(), m); err == nil {
		t.Fatal("accepted non-symmetric input")
	}
	if _, err := SymmetricEigen(context.Background(), NewMatrix(2, 3)); err == nil {
		t.Fatal("accepted non-square input")
	}
}

func TestEigenDiagonal(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	m.Set(2, 2, 2)
	res, err := SymmetricEigen(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if !almostEq(res.Values[i], w, 1e-9) {
			t.Fatalf("values = %v, want %v", res.Values, want)
		}
	}
}

func TestEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	res, err := SymmetricEigen(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Values[0], 1, 1e-9) || !almostEq(res.Values[1], 3, 1e-9) {
		t.Fatalf("values = %v, want [1 3]", res.Values)
	}
}

func randomSymmetric(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		n := 5 + trial*7
		m := randomSymmetric(n, rng)
		res, err := SymmetricEigen(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		// Check A*v = lambda*v for every eigenpair.
		for k := 0; k < n; k++ {
			v := res.Vectors.Col(k)
			av := m.MulVec(v)
			for i := 0; i < n; i++ {
				if !almostEq(av[i], res.Values[k]*v[i], 1e-7) {
					t.Fatalf("n=%d pair %d: A*v != lambda*v (%v vs %v)", n, k, av[i], res.Values[k]*v[i])
				}
			}
		}
	}
}

func TestEigenVectorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomSymmetric(12, rng)
	res, err := SymmetricEigen(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	n := 12
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += res.Vectors.At(i, a) * res.Vectors.At(i, b)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if !almostEq(dot, want, 1e-8) {
				t.Fatalf("v%d . v%d = %v, want %v", a, b, dot, want)
			}
		}
	}
}

func TestEigenValuesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res, err := SymmetricEigen(context.Background(), randomSymmetric(20, rng))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Values); i++ {
		if res.Values[i] < res.Values[i-1] {
			t.Fatalf("eigenvalues not ascending: %v", res.Values)
		}
	}
}

// Property: trace equals the sum of eigenvalues.
func TestQuickEigenTrace(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%10) + 2
		rng := rand.New(rand.NewSource(seed))
		m := randomSymmetric(n, rng)
		res, err := SymmetricEigen(context.Background(), m)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += m.At(i, i)
			sum += res.Values[i]
		}
		return almostEq(trace, sum, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenCancelledBeforeWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A non-square input would fail validation: getting ctx.Err()
	// instead shows the ctx check comes before any work.
	for _, m := range []*Matrix{NewMatrix(2, 3), Identity(4)} {
		res, err := SymmetricEigen(ctx, m)
		if err != context.Canceled || res != nil {
			t.Fatalf("%dx%d: got (%v, %v), want (nil, context.Canceled)", m.Rows, m.Cols, res, err)
		}
	}
}

// laplacian returns L = D - A of the undirected graph on n nodes with
// the given edges.
func laplacian(n int, edges [][2]int) *Matrix {
	m := NewMatrix(n, n)
	for _, e := range edges {
		m.Add(e[0], e[1], -1)
		m.Add(e[1], e[0], -1)
		m.Add(e[0], e[0], 1)
		m.Add(e[1], e[1], 1)
	}
	return m
}

func pathEdges(first, n int) [][2]int {
	var es [][2]int
	for i := 0; i+1 < n; i++ {
		es = append(es, [2]int{first + i, first + i + 1})
	}
	return es
}

func starEdges(first, n int) [][2]int {
	var es [][2]int
	for i := 1; i < n; i++ {
		es = append(es, [2]int{first, first + i})
	}
	return es
}

func cycleEdges(first, n int) [][2]int {
	return append(pathEdges(first, n), [2]int{first + n - 1, first})
}

// pathSpectrum and the like are the closed-form Laplacian spectra.
func pathSpectrum(n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = 2 - 2*math.Cos(math.Pi*float64(k)/float64(n))
	}
	return out
}

func starSpectrum(n int) []float64 {
	out := []float64{0, float64(n)}
	for i := 0; i < n-2; i++ {
		out = append(out, 1)
	}
	return out
}

func cycleSpectrum(n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = 2 - 2*math.Cos(2*math.Pi*float64(k)/float64(n))
	}
	return out
}

// checkEigen asserts that res is a valid ascending eigendecomposition
// of m with the given spectrum: matching values, small residuals
// ‖Av−λv‖∞ and orthonormal vectors, all within tol.
func checkEigen(t *testing.T, m *Matrix, res *EigenResult, spectrum []float64, tol float64) {
	t.Helper()
	n := m.Rows
	want := append([]float64(nil), spectrum...)
	sort.Float64s(want)
	for i := range want {
		if !almostEq(res.Values[i], want[i], tol) {
			t.Fatalf("value %d = %v, want %v", i, res.Values[i], want[i])
		}
	}
	for k := 0; k < n; k++ {
		v := res.Vectors.Col(k)
		av := m.MulVec(v)
		for i := range av {
			if !almostEq(av[i], res.Values[k]*v[i], tol) {
				t.Fatalf("pair %d: residual %v at row %d", k, av[i]-res.Values[k]*v[i], i)
			}
		}
	}
	vt := res.Vectors.Transpose()
	gram := vt.Mul(res.Vectors)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want := 0.0
			if a == b {
				want = 1
			}
			if !almostEq(gram.At(a, b), want, tol) {
				t.Fatalf("v%d . v%d = %v, want %v", a, b, gram.At(a, b), want)
			}
		}
	}
}

// threeComponents is a 4-node path, a 6-node cycle and a 5-node star
// side by side: 15 nodes whose Laplacian has eigenvalue 0 three times.
func threeComponents() [][2]int {
	return append(append(pathEdges(0, 4), cycleEdges(4, 6)...), starEdges(10, 5)...)
}

func TestEigenDegenerateLaplacians(t *testing.T) {
	three := threeComponents()
	threeSpectrum := append(append(pathSpectrum(4), cycleSpectrum(6)...), starSpectrum(5)...)
	cases := []struct {
		name     string
		n        int
		edges    [][2]int
		spectrum []float64
	}{
		{"path", 9, pathEdges(0, 9), pathSpectrum(9)},
		{"star", 12, starEdges(0, 12), starSpectrum(12)}, // 1 has multiplicity n-2
		{"cycle", 10, cycleEdges(0, 10), cycleSpectrum(10)},
		{"three components", 15, three, threeSpectrum}, // 0 has multiplicity 3
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := laplacian(c.n, c.edges)
			res, err := SymmetricEigen(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			checkEigen(t, m, res, c.spectrum, 1e-10)
		})
	}

	// The three zero-eigenvalue vectors span the component indicators:
	// each is constant on every component.
	m := laplacian(15, three)
	res, err := SymmetricEigen(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		for _, comp := range [][2]int{{0, 4}, {4, 10}, {10, 15}} {
			for i := comp[0] + 1; i < comp[1]; i++ {
				if !almostEq(res.Vectors.At(i, k), res.Vectors.At(comp[0], k), 1e-10) {
					t.Fatalf("null vector %d not constant on component %v", k, comp)
				}
			}
		}
	}
}

func TestEigenRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs := []*Matrix{
		randomSymmetric(40, rng),
		laplacian(15, threeComponents()),
	}
	for _, m := range inputs {
		first, err := SymmetricEigen(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			again, err := SymmetricEigen(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			want := append(first.Values, first.Vectors.Data...)
			got := append(again.Values, again.Vectors.Data...)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d repeat %d: output %d differs (%v vs %v)", m.Rows, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkSymmetricEigen decomposes a 500-node sparse graph Laplacian,
// the size and shape of a full-scale kernel's clustering input.
func BenchmarkSymmetricEigen(b *testing.B) {
	const n = 500
	rng := rand.New(rand.NewSource(1))
	edges := pathEdges(0, n)
	for i := 0; i < n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	m := laplacian(n, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SymmetricEigen(context.Background(), m)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

var benchSink *EigenResult
