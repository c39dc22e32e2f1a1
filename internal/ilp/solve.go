package ilp

import (
	"context"
	"fmt"
	"math"
	"time"

	"panorama/internal/faultinject"
)

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	// Optimal: the returned assignment is a proven optimum.
	Optimal Status = iota
	// Infeasible: no assignment satisfies the constraints.
	Infeasible
	// Limit: a budget fired — the node budget, the wall-clock
	// Timeout, or the caller's context; Result holds the best
	// incumbent found so far (Feasible reports whether one exists).
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Limit:
		return "limit"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Options tunes the search.
type Options struct {
	MaxNodes int // branch-and-bound node budget (default 2_000_000)
	// Timeout is the wall-clock budget of one solve; 0 means none.
	// Like the node budget, expiry has anytime semantics: the solve
	// returns the best incumbent found so far with Status Limit.
	Timeout time.Duration
}

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	Feasible  bool  // an incumbent assignment exists
	Objective int   // objective of the incumbent (valid when Feasible)
	Assign    []int // variable values of the incumbent (valid when Feasible)
	Nodes     int   // nodes explored
}

// Value returns the incumbent value of v.
func (r *Result) Value(v VarID) int { return r.Assign[v] }

type solver struct {
	m        *Model
	lo, hi   []int
	best     int
	bestAsg  []int
	feasible bool
	nodes    int
	maxNodes int

	// occurs[v] lists the constraints v appears in; objCoef[v] sums
	// v's objective coefficients.
	occurs  [][]int
	objCoef []int
	// queue holds the constraints to revise before the current node is
	// at its propagation fixpoint; queued marks its members.
	queue  []int
	queued []bool
	// trail records every bound change, so backtracking restores a
	// node's domains by undoing the changes its subtree made.
	trail []undo

	ctx      context.Context
	deadline time.Time
	timed    bool
	stopped  bool // wall-clock budget or ctx fired mid-search
}

// undo is one trail entry: variable v's bounds before a change.
type undo struct{ v, lo, hi int }

// deadlineCheckInterval bounds how many branch-and-bound nodes may be
// explored between wall-clock/context checks; it caps the overrun past
// a deadline at that many nodes' propagation (well under a millisecond
// on the CDG-sized instances this solver sees).
const deadlineCheckInterval = 1024

// Solve runs branch-and-bound and returns the best assignment.
func (m *Model) Solve(opts Options) *Result {
	return m.SolveCtx(context.Background(), opts)
}

// SolveCtx is Solve with cancellation and deadline awareness. The
// search honours, in addition to the node budget: opts.Timeout, the
// context's deadline, and the context's cancellation — whichever
// fires first stops the search, which then returns the best feasible
// incumbent found so far with Status Limit (anytime semantics).
func (m *Model) SolveCtx(ctx context.Context, opts Options) *Result {
	if err := faultinject.Fire(faultinject.SiteILPSolve); err != nil {
		// An injected fault is indistinguishable from an instantly
		// expired budget: Limit with no incumbent.
		res := &Result{Status: Limit}
		record(ctx, m, res)
		return res
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 2_000_000
	}
	n := len(m.vars)
	s := &solver{
		m:        m,
		lo:       make([]int, n),
		hi:       make([]int, n),
		best:     math.MaxInt,
		maxNodes: opts.MaxNodes,
		occurs:   make([][]int, n),
		objCoef:  make([]int, n),
		queue:    make([]int, 0, len(m.cons)),
		queued:   make([]bool, len(m.cons)),
		ctx:      ctx,
	}
	if opts.Timeout > 0 {
		s.deadline, s.timed = time.Now().Add(opts.Timeout), true
	}
	if d, ok := ctx.Deadline(); ok && (!s.timed || d.Before(s.deadline)) {
		s.deadline, s.timed = d, true
	}
	for i, v := range m.vars {
		s.lo[i], s.hi[i] = v.lo, v.hi
	}
	for ci, c := range m.cons {
		for _, t := range c.terms {
			if o := s.occurs[t.Var]; len(o) == 0 || o[len(o)-1] != ci {
				s.occurs[t.Var] = append(o, ci)
			}
		}
		s.enqueue(ci) // the root revises every constraint
	}
	for _, t := range m.obj {
		s.objCoef[t.Var] += t.Coef
	}
	s.checkBudgets() // a pre-expired budget must not start the search
	s.dfs()

	res := &Result{Nodes: s.nodes}
	if s.feasible {
		res.Feasible = true
		res.Objective = s.best + m.objC
		res.Assign = s.bestAsg
	}
	switch {
	case s.stopped || s.nodes >= s.maxNodes:
		res.Status = Limit
	case s.feasible:
		res.Status = Optimal
	default:
		res.Status = Infeasible
	}
	record(ctx, m, res)
	return res
}

// checkBudgets samples the wall clock and the context; it flips
// stopped when either budget has fired.
func (s *solver) checkBudgets() {
	if s.timed && !time.Now().Before(s.deadline) {
		s.stopped = true
	}
	if s.ctx.Err() != nil {
		s.stopped = true
	}
}

// dfs explores the current node: propagate, bound, branch. On entry
// the queue holds the constraints touched since the last fixpoint.
func (s *solver) dfs() {
	if s.stopped || s.nodes >= s.maxNodes {
		return
	}
	s.nodes++
	if s.nodes%deadlineCheckInterval == 0 {
		if s.checkBudgets(); s.stopped {
			return
		}
	}
	if !s.propagate() {
		return
	}
	lb := s.objLowerBound()
	if lb >= s.best && s.feasible {
		return
	}
	branch := s.pickBranchVar()
	if branch < 0 {
		// All variables fixed: feasibility was proven by propagation,
		// and the objective bound is the objective.
		if lb < s.best || !s.feasible {
			if lb < s.best {
				s.best = lb
			}
			s.feasible = true
			s.bestAsg = append([]int(nil), s.lo...)
		}
		return
	}

	// Try the objective-friendly end of the domain first.
	lo, hi := s.lo[branch], s.hi[branch]
	val, step := lo, 1
	if s.objCoef[branch] <= 0 {
		val, step = hi, -1
	}
	mark := len(s.trail)
	for ; lo <= val && val <= hi; val += step {
		s.set(branch, val, val)
		s.dfs()
		s.undoTo(mark)
		if s.stopped || s.nodes >= s.maxNodes {
			return
		}
	}
}

// set changes v's bounds to [lo, hi], records the old ones on the
// trail and queues v's constraints for revision.
func (s *solver) set(v, lo, hi int) {
	s.trail = append(s.trail, undo{v, s.lo[v], s.hi[v]})
	s.lo[v], s.hi[v] = lo, hi
	for _, ci := range s.occurs[v] {
		s.enqueue(ci)
	}
}

func (s *solver) enqueue(ci int) {
	if !s.queued[ci] {
		s.queued[ci] = true
		s.queue = append(s.queue, ci)
	}
}

// undoTo restores every bound changed since the trail had length mark.
func (s *solver) undoTo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		u := s.trail[i]
		s.lo[u.v], s.hi[u.v] = u.lo, u.hi
	}
	s.trail = s.trail[:mark]
}

// propagate revises queued constraints until none is left (the bound
// consistency fixpoint); returns false on wipeout. Any revision order
// reaches the same fixpoint, because tightening is monotone.
func (s *solver) propagate() bool {
	for head := 0; head < len(s.queue); head++ {
		ci := s.queue[head]
		s.queued[ci] = false
		if !s.revise(ci) {
			for _, cj := range s.queue[head+1:] {
				s.queued[cj] = false
			}
			s.queue = s.queue[:0]
			return false
		}
	}
	s.queue = s.queue[:0]
	return true
}

// revise tightens the bounds of constraint ci's variables against its
// right-hand side; returns false on wipeout. With slack = rhs - (the
// minimum of the left-hand side) >= 0, a term coef*x can grow by at
// most slack over its minimum, so x <= lo + slack/coef for coef > 0 and
// x >= hi - slack/|coef| for coef < 0 — never past the other bound.
func (s *solver) revise(ci int) bool {
	c := &s.m.cons[ci]
	slack := c.rhs
	for _, t := range c.terms {
		slack -= minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
	}
	if slack < 0 {
		return false
	}
	for _, t := range c.terms {
		v := int(t.Var)
		lo, hi := s.lo[v], s.hi[v]
		switch {
		case t.Coef > 0 && slack < t.Coef*(hi-lo):
			s.set(v, lo, lo+slack/t.Coef)
		case t.Coef < 0 && slack < -t.Coef*(hi-lo):
			s.set(v, hi-slack/-t.Coef, hi)
		}
	}
	return true
}

// objLowerBound returns an optimistic (minimum possible) objective for
// the current domains.
func (s *solver) objLowerBound() int {
	lb := 0
	for _, t := range s.m.obj {
		lb += minProd(t.Coef, s.lo[t.Var], s.hi[t.Var])
	}
	return lb
}

// pickBranchVar returns the unfixed variable with the smallest domain,
// or -1 if all are fixed.
func (s *solver) pickBranchVar() int {
	best, bestSpan := -1, math.MaxInt
	for i := range s.lo {
		span := s.hi[i] - s.lo[i]
		if span > 0 && span < bestSpan {
			best, bestSpan = i, span
			if span == 1 {
				break
			}
		}
	}
	return best
}

// minProd returns the minimum of coef*x for x in [lo, hi].
func minProd(coef, lo, hi int) int {
	if coef >= 0 {
		return coef * lo
	}
	return coef * hi
}
