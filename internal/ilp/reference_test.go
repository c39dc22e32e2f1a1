package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refSolver is the straightforward branch-and-bound the event-driven
// solver must reproduce node for node: every node re-sweeps every
// constraint until a full pass changes nothing, and backtracking
// restores copies of both domain arrays. Bound propagation is monotone,
// so sweeping in index order and revising from a queue reach the same
// fixpoint at every node; the two searches must therefore branch on
// the same variables in the same order.
type refSolver struct {
	m        *Model
	lo, hi   []int
	best     int
	bestAsg  []int
	feasible bool
	nodes    int
	maxNodes int
}

// refSolve solves m with refSolver under a node budget (0 = the
// default 2_000_000), reporting the result as Solve would.
func refSolve(m *Model, maxNodes int) *Result {
	if maxNodes <= 0 {
		maxNodes = 2_000_000
	}
	s := &refSolver{
		m:        m,
		lo:       make([]int, len(m.vars)),
		hi:       make([]int, len(m.vars)),
		best:     math.MaxInt,
		maxNodes: maxNodes,
	}
	for i, v := range m.vars {
		s.lo[i], s.hi[i] = v.lo, v.hi
	}
	s.dfs()
	res := &Result{Nodes: s.nodes}
	if s.feasible {
		res.Feasible = true
		res.Objective = s.best + m.objC
		res.Assign = s.bestAsg
	}
	switch {
	case s.nodes >= s.maxNodes:
		res.Status = Limit
	case s.feasible:
		res.Status = Optimal
	default:
		res.Status = Infeasible
	}
	return res
}

func (s *refSolver) dfs() {
	if s.nodes >= s.maxNodes {
		return
	}
	s.nodes++
	if !s.propagate() {
		return
	}
	lb := 0
	for _, t := range s.m.obj {
		lb += minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
	}
	if lb >= s.best && s.feasible {
		return
	}
	branch, bestSpan := -1, math.MaxInt
	for i := range s.lo {
		span := s.hi[i] - s.lo[i]
		if span > 0 && span < bestSpan {
			branch, bestSpan = i, span
			if span == 1 {
				break
			}
		}
	}
	if branch < 0 {
		obj := 0
		for _, t := range s.m.obj {
			obj += t.Coef * s.lo[t.Var]
		}
		if obj < s.best || !s.feasible {
			if obj < s.best {
				s.best = obj
			}
			s.feasible = true
			s.bestAsg = append([]int(nil), s.lo...)
		}
		return
	}
	coef := 0
	for _, t := range s.m.obj {
		if int(t.Var) == branch {
			coef += t.Coef
		}
	}
	var vals []int
	for v := s.lo[branch]; v <= s.hi[branch]; v++ {
		vals = append(vals, v)
	}
	if coef <= 0 {
		for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
	saveLo := append([]int(nil), s.lo...)
	saveHi := append([]int(nil), s.hi...)
	for _, val := range vals {
		s.lo[branch], s.hi[branch] = val, val
		s.dfs()
		copy(s.lo, saveLo)
		copy(s.hi, saveHi)
		if s.nodes >= s.maxNodes {
			return
		}
	}
}

// propagate sweeps all constraints until a pass changes nothing.
func (s *refSolver) propagate() bool {
	for {
		changed := false
		for ci := range s.m.cons {
			c := &s.m.cons[ci]
			minSum := 0
			for _, t := range c.terms {
				minSum += minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
			}
			if minSum > c.rhs {
				return false
			}
			for _, t := range c.terms {
				if t.Coef == 0 {
					continue
				}
				own := minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
				residual := c.rhs - (minSum - own)
				if t.Coef > 0 {
					if ub := floorDiv(residual, t.Coef); ub < s.hi[t.Var] {
						s.hi[t.Var] = ub
						if s.lo[t.Var] > ub {
							return false
						}
						changed = true
					}
				} else if lb := ceilDiv(residual, t.Coef); lb > s.lo[t.Var] {
					s.lo[t.Var] = lb
					if lb > s.hi[t.Var] {
						return false
					}
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// sameSearch reports how got (Solve) differs from want (refSolve), or
// "" when status, objective, assignment and node count all agree.
func sameSearch(got, want *Result) string {
	if got.Status != want.Status || got.Feasible != want.Feasible || got.Nodes != want.Nodes {
		return fmt.Sprintf("status/feasible/nodes = %v/%v/%d, reference %v/%v/%d",
			got.Status, got.Feasible, got.Nodes, want.Status, want.Feasible, want.Nodes)
	}
	if !got.Feasible {
		return ""
	}
	if got.Objective != want.Objective {
		return fmt.Sprintf("objective = %d, reference %d", got.Objective, want.Objective)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			return fmt.Sprintf("assign[%d] = %d, reference %d", i, got.Assign[i], want.Assign[i])
		}
	}
	return ""
}

// checkSame runs both solvers on m, unbounded and under a few small
// node budgets, and reports the first disagreement.
func checkSame(m *Model) string {
	for _, budget := range []int{0, 1, 2, 7, 40, 300} {
		if d := sameSearch(m.Solve(Options{MaxNodes: budget}), refSolve(m, budget)); d != "" {
			return fmt.Sprintf("MaxNodes=%d: %s", budget, d)
		}
	}
	return ""
}

// randomModel is the shape of TestQuickMatchesBruteForce: a few small
// integer variables, random <= / >= constraints, a random objective.
// Variables may repeat inside one constraint.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	ids := make([]VarID, rng.Intn(6)+2)
	for i := range ids {
		lo := rng.Intn(5) - 2
		ids[i] = m.IntVar("v", lo, lo+rng.Intn(4))
	}
	for c := rng.Intn(5) + 1; c > 0; c-- {
		var e Expr
		for i := range ids {
			if rng.Intn(2) == 0 {
				e = e.Plus(ids[i], rng.Intn(7)-3)
			}
		}
		if rng.Intn(4) == 0 {
			e = e.Plus(ids[rng.Intn(len(ids))], rng.Intn(5)-2)
		}
		rhs := rng.Intn(11) - 3
		switch rng.Intn(3) {
		case 0:
			m.AddLE(e, rhs, "c")
		case 1:
			m.AddGE(e, rhs, "c")
		default:
			m.AddEQ(e, rhs, "c")
		}
	}
	var obj Expr
	for i := range ids {
		obj = obj.Plus(ids[i], rng.Intn(9)-4)
	}
	if rng.Intn(4) == 0 {
		obj = obj.Plus(ids[0], rng.Intn(9)-4)
	}
	m.Minimize(obj)
	return m
}

// splitModel is shaped like the column-scatter split ILP: binary
// stay/push variables, an AbsVar size deviation, AbsVar cut terms on
// random edges, non-empty/cover bounds and the two big-M fork
// constraints per multi-degree node.
func splitModel(rng *rand.Rand) *Model {
	m := NewModel()
	n := rng.Intn(8) + 3
	vars := make([]VarID, n)
	sizes := make([]int, n)
	adj := make([][]int, n)
	for i := range vars {
		vars[i] = m.Binary("stay")
		sizes[i] = rng.Intn(6) + 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	var size Expr
	total := 0
	for i, v := range vars {
		size = size.Plus(v, sizes[i])
		total += sizes[i]
	}
	target := total / (rng.Intn(3) + 2)
	obj := NewExpr(Term{m.AbsVar("dev", size.PlusConst(-target), total+target), 3})
	for i := range vars {
		for _, j := range adj[i] {
			if j > i {
				cut := m.AbsVar("cut", NewExpr(Term{vars[i], 1}, Term{vars[j], -1}), 1)
				obj = obj.Plus(cut, rng.Intn(4)+1)
			}
		}
		if rng.Intn(3) == 0 {
			obj = obj.Plus(vars[i], -(rng.Intn(3) + 1))
		}
	}
	m.Minimize(obj)
	var count Expr
	for _, v := range vars {
		count = count.Plus(v, 1)
	}
	m.AddGE(count, 1, "stay nonempty")
	m.AddLE(count, n-1-rng.Intn(2), "push covers rows")
	z1, z2 := rng.Intn(3)+1, rng.Intn(3)+1
	eta := 2*n + z1 + z2 + 4
	for i, v := range vars {
		deg := len(adj[i])
		if deg < 2 {
			continue
		}
		var e Expr
		for _, j := range adj[i] {
			e = e.Plus(vars[j], 1)
		}
		e = e.Plus(v, deg-eta)
		m.AddLE(e, z1, "fork-pushed")
		m.AddGE(e, 2*deg-z2-eta, "fork-stay")
	}
	return m
}

// rowModel is shaped like the row-scatter ILP: c binary columns per
// node with a span equality and contiguity triples, AbsVar column
// balance, AbsVar centre distances between dependent nodes, and
// per-column coverage.
func rowModel(rng *rand.Rand) *Model {
	m := NewModel()
	n, c := rng.Intn(3)+2, rng.Intn(3)+3
	vars := make([][]VarID, n)
	spans := make([]int, n)
	share := make([]int, n)
	load := 0
	for i := range vars {
		spans[i] = rng.Intn(c-1) + 1
		share[i] = rng.Intn(4) + 1
		load += share[i] * spans[i]
		vars[i] = make([]VarID, c)
		var sum Expr
		for col := range vars[i] {
			vars[i][col] = m.Binary("v")
			sum = sum.Plus(vars[i][col], 1)
		}
		m.AddEQ(sum, spans[i], "span")
		for c1 := 0; c1 < c; c1++ {
			for c2 := c1 + 1; c2 < c; c2++ {
				for c3 := c2 + 1; c3 < c; c3++ {
					m.AddLE(NewExpr(Term{vars[i][c1], 1}, Term{vars[i][c2], -1}, Term{vars[i][c3], 1}), 1, "contig")
				}
			}
		}
	}
	var obj Expr
	for col := 0; col < c; col++ {
		var e Expr
		for i := range vars {
			e = e.Plus(vars[i][col], share[i])
		}
		obj = obj.Plus(m.AbsVar("bal", e.PlusConst(-load/c), 2*load), 3)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			var e Expr
			for col := 0; col < c; col++ {
				e = e.Plus(vars[i][col], col*spans[j])
				e = e.Plus(vars[j][col], -col*spans[i])
			}
			obj = obj.Plus(m.AbsVar("d", e, (c-1)*spans[i]*spans[j]+1), rng.Intn(3)+1)
		}
	}
	m.Minimize(obj)
	if rng.Intn(2) == 0 {
		for col := 0; col < c; col++ {
			var e Expr
			for i := range vars {
				e = e.Plus(vars[i][col], 1)
			}
			m.AddGE(e, 1, "coverage")
		}
	}
	return m
}

// Property: the solver explores exactly the reference search tree on
// random models and on models shaped like the two cluster-mapping ILPs.
func TestSolveMatchesReferenceSearch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*rand.Rand) *Model
		count int
	}{
		{"random", randomModel, 300},
		{"split", splitModel, 60},
		{"row", rowModel, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				if d := checkSame(tc.build(rand.New(rand.NewSource(seed)))); d != "" {
					t.Logf("seed %d: %s", seed, d)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: tc.count}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A constraint that repeats a variable with opposite signs can keep
// tightening itself: x - x <= -1 lowers x's upper bound by one per
// revision until the domain wipes out. The root must reach that
// fixpoint (infeasible, one node), as the reference does.
func TestPropagateRepeatedVariableToFixpoint(t *testing.T) {
	m := NewModel()
	x := m.IntVar("x", 0, 5)
	y := m.Binary("y")
	m.AddLE(NewExpr(Term{x, 1}, Term{y, 1}, Term{x, -1}), -1, "self")
	m.Minimize(NewExpr(Term{y, 1}))
	if d := checkSame(m); d != "" {
		t.Fatal(d)
	}
	if res := m.Solve(Options{}); res.Status != Infeasible || res.Nodes != 1 {
		t.Fatalf("status/nodes = %v/%d, want infeasible/1", res.Status, res.Nodes)
	}
}

// floorDiv returns floor(a/b) for b != 0.
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// ceilDiv returns ceil(a/b) for b != 0.
func ceilDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
