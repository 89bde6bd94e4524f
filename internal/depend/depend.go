// Package depend implements the forward data-dependence analysis of
// Section 2: given a target object whose type must change, find every
// object that can be assigned a value derived from it, rank dependents by
// the importance of their dependence chain (the strong/weak classification
// of Table 1, then shortest path), and reconstruct printable chains.
//
// The analysis is demand-driven in the CLA style: starting from the
// target, the block of each newly dependent object is loaded to discover
// forward flows; stores through pointers and loads through pointers are
// resolved with a points-to result. Only blocks of dependent objects and
// of pointers with non-empty points-to sets are ever read.
//
// A query costs what it reaches. Loads through pointers are found with a
// per-query index of the d = *u and *d = *u entries keyed by pointee (a
// compressed sparse row of int32 offsets, built once per query and
// dropped with it); *d = *u keeps d factored and expands pts(d) only when
// the entry fires, and each pointer's entries fire at most once per chain
// strength. Per-object state lives in slices indexed by SymID plus a list
// of reached objects, so ranking and chain output touch only what the
// traversal reached. Nothing is cached across queries.
package depend

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"cla/internal/prim"
	"cla/internal/pts"
)

// Pointer supplies points-to facts to the dependence analysis.
type Pointer interface {
	PointsTo(sym prim.SymID) []prim.SymID
}

// Options configures an analysis.
type Options struct {
	// NonTargets are objects the user asserts are not dependent; the
	// traversal neither reports nor crosses them (Section 2's mechanism
	// for cutting join-point explosions).
	NonTargets map[prim.SymID]bool
	// IncludeWeak includes chains through weak operations (default true
	// via Analyze; set DropWeak to exclude them).
	DropWeak bool
}

// Step is one edge of a dependence chain: Sym took a value at Loc through
// operation Op.
type Step struct {
	Sym      prim.SymID
	Loc      prim.Loc
	Op       prim.Op
	Strength prim.Strength
}

// Dependent is one object reachable from the target.
type Dependent struct {
	Sym prim.SymID
	// Strength is the chain class: the minimum strength along the best
	// path (Strong beats Weak).
	Strength prim.Strength
	// Dist is the length of the best chain.
	Dist int
}

// Result holds the dependence relation from one analysis run.
type Result struct {
	src     pts.Source
	targets []prim.SymID
	// states holds one entry per reached object in first-reach order;
	// slot maps a SymID to its index there, or to unreached/blocked.
	states []state
	slot   []int32
	// Loaded counts block entries read, for CLA accounting.
	Loaded int
}

// Markers in Result.slot for objects without a state.
const (
	unreached int32 = -1
	blocked   int32 = -2 // a NonTarget: never reported, never crossed
)

type state struct {
	sym      prim.SymID
	strength prim.Strength
	edgeStr  prim.Strength
	op       prim.Op
	dist     int32
	// prev chains toward the target; NoSym at a target.
	prev prim.SymID
	loc  prim.Loc
}

// Analyze runs the forward dependence analysis from the given targets.
func Analyze(src pts.Source, ptr Pointer, targets []prim.SymID, opts Options) (*Result, error) {
	n := src.NumSyms()
	r := &Result{src: src, targets: targets, slot: make([]int32, n)}
	for i := range r.slot {
		r.slot[i] = unreached
	}
	for id, on := range opts.NonTargets {
		if on && id >= 0 && int(id) < n {
			r.slot[id] = blocked
		}
	}
	for _, t := range targets {
		if t < 0 || int(t) >= n {
			return nil, fmt.Errorf("depend: target symbol %d out of range [0,%d)", t, n)
		}
	}
	a := &analyzer{src: src, ptr: ptr, dropWeak: opts.DropWeak, res: r}
	if err := a.run(targets); err != nil {
		return nil, err
	}
	return r, nil
}

type analyzer struct {
	src      pts.Source
	ptr      Pointer
	dropWeak bool
	res      *Result
	// reads is built on the first expansion, so a query whose targets
	// are all NonTargets loads nothing.
	reads *derefIndex
	pq    workQueue
}

// derefIndex holds the d = *u and *d = *u entries of every pointer u with
// a non-empty points-to set, indexed by pointee: the pointers reading
// object v are ptrs[at[start[v]:start[v+1]]], in ascending u order. Each
// pointer's records sit contiguously in block order, and a *d = *u record
// keeps d itself — pts(d) is expanded only when the record fires, so the
// index is O(records + Σ|pts(u)|), never the |pts(d)|×|pts(u)| product.
type derefIndex struct {
	recs  []derefRec
	ptrs  []derefPtr
	start []int32
	at    []int32
}

// derefPtr is one pointer u with deref records recs[first:end].
type derefPtr struct {
	pts        []prim.SymID
	first, end int32
	// fired is the chain strength of the pop that last fired the
	// records (None: never). See expand for why that is all it needs.
	fired prim.Strength
}

type derefRec struct {
	dst  prim.SymID
	copy bool // *dst = *u: the readers are pts(dst), not dst
	op   prim.Op
	str  prim.Strength
	loc  prim.Loc
}

// item is a priority-queue entry: stronger chains first, then shorter.
type item struct {
	sym      prim.SymID
	strength prim.Strength
	dist     int32
}

type workQueue []item

func (q workQueue) Len() int { return len(q) }
func (q workQueue) Less(i, j int) bool {
	if q[i].strength != q[j].strength {
		return q[i].strength > q[j].strength
	}
	return q[i].dist < q[j].dist
}
func (q workQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *workQueue) Push(x any)   { *q = append(*q, x.(item)) }
func (q *workQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (a *analyzer) run(targets []prim.SymID) error {
	r := a.res
	for _, t := range targets {
		i := r.slot[t]
		if i == blocked {
			continue
		}
		if i == unreached {
			i = int32(len(r.states))
			r.slot[t] = i
			r.states = append(r.states, state{})
		}
		r.states[i] = state{sym: t, strength: prim.Strong, prev: prim.NoSym}
		heap.Push(&a.pq, item{sym: t, strength: prim.Strong})
	}
	for a.pq.Len() > 0 {
		it := heap.Pop(&a.pq).(item)
		st := &r.states[r.slot[it.sym]]
		if st.strength != it.strength || st.dist != it.dist {
			continue // stale entry
		}
		if err := a.expand(it.sym, st.strength, st.dist); err != nil {
			return err
		}
	}
	return nil
}

// relax offers dst a chain through via that extends a chain of the given
// strength and length by one edge.
func (a *analyzer) relax(dst, via prim.SymID, edge prim.Strength, loc prim.Loc, op prim.Op, strength prim.Strength, dist int32) {
	if edge == prim.None {
		return
	}
	r := a.res
	i := r.slot[dst]
	if i == blocked {
		return
	}
	if edge < strength {
		strength = edge
	}
	if a.dropWeak && strength < prim.Strong {
		return
	}
	dist++
	if i == unreached {
		i = int32(len(r.states))
		r.slot[dst] = i
		r.states = append(r.states, state{})
	} else if cur := &r.states[i]; cur.strength > strength || (cur.strength == strength && cur.dist <= dist) {
		return
	}
	r.states[i] = state{
		sym: dst, strength: strength, dist: dist,
		prev: via, loc: loc, op: op, edgeStr: edge,
	}
	heap.Push(&a.pq, item{sym: dst, strength: strength, dist: dist})
}

// expand follows every forward flow out of sym, whose best chain has the
// given strength and length.
func (a *analyzer) expand(sym prim.SymID, strength prim.Strength, dist int32) error {
	// 1. Assignments whose source is sym, demand-loaded from its block.
	block, err := a.src.Block(sym)
	if err != nil {
		return err
	}
	a.res.Loaded += len(block)
	for _, e := range block {
		switch e.Kind {
		case prim.Simple:
			// d = sym.
			a.relax(e.Dst, sym, e.Strength, e.Loc, e.Op, strength, dist)
		case prim.StoreInd:
			// *p = sym: everything p points to takes sym's value.
			for _, v := range a.ptr.PointsTo(e.Dst) {
				a.relax(v, sym, e.Strength, e.Loc, e.Op, strength, dist)
			}
		case prim.LoadInd, prim.CopyInd:
			// d = *sym copies pointees' values, not sym's value: no
			// dependence on sym itself. (*d = *sym likewise.)
		}
	}
	// 2. Reads of sym through pointers: d = *u with sym ∈ pts(u).
	if a.reads == nil {
		if a.reads, err = a.buildDerefIndex(); err != nil {
			return err
		}
	}
	x := a.reads
	for _, pi := range x.at[x.start[sym]:x.start[sym+1]] {
		p := &x.ptrs[pi]
		// Pops come out in non-increasing (strength, -dist) order, and
		// relax rejects keys no better than the current one. A record
		// that fired from a pop of the same chain strength therefore
		// already offered each destination a key at least as good as
		// this pop can, so it is skipped. After the chain strength
		// drops, a record whose own strength exceeds the new chain
		// strength offers a weaker key than before and is skipped too;
		// one at or below it caps both firings at its own strength and
		// may now offer a shorter chain, so it fires again.
		if p.fired == strength {
			continue
		}
		refire := p.fired != prim.None
		p.fired = strength
		for _, rec := range x.recs[p.first:p.end] {
			if refire && rec.str > strength {
				continue
			}
			if !rec.copy {
				a.relax(rec.dst, sym, rec.str, rec.loc, rec.op, strength, dist)
				continue
			}
			for _, w := range a.ptr.PointsTo(rec.dst) {
				a.relax(w, sym, rec.str, rec.loc, rec.op, strength, dist)
			}
		}
	}
	return nil
}

// buildDerefIndex scans the blocks of every pointer with a non-empty
// points-to set for d = *u and *d = *u entries and indexes them by
// pointee as a compressed sparse row: count, prefix-sum, fill.
func (a *analyzer) buildDerefIndex() (*derefIndex, error) {
	n := a.src.NumSyms()
	x := &derefIndex{start: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		u := prim.SymID(i)
		pset := a.ptr.PointsTo(u)
		if len(pset) == 0 {
			continue
		}
		block, err := a.src.Block(u)
		if err != nil {
			return nil, err
		}
		a.res.Loaded += len(block)
		first := int32(len(x.recs))
		for _, e := range block {
			if e.Kind == prim.LoadInd || e.Kind == prim.CopyInd {
				x.recs = append(x.recs, derefRec{
					dst: e.Dst, copy: e.Kind == prim.CopyInd,
					op: e.Op, str: e.Strength, loc: e.Loc,
				})
			}
		}
		if end := int32(len(x.recs)); end > first {
			x.ptrs = append(x.ptrs, derefPtr{pts: pset, first: first, end: end})
			for _, v := range pset {
				x.start[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		x.start[v+1] += x.start[v]
	}
	// Fill with start[v] as v's cursor, then shift the cursors (each now
	// at its row's end) back one row to restore the offsets.
	x.at = make([]int32, x.start[n])
	for pi := range x.ptrs {
		for _, v := range x.ptrs[pi].pts {
			x.at[x.start[v]] = int32(pi)
			x.start[v]++
		}
	}
	copy(x.start[1:], x.start[:n])
	x.start[0] = 0
	return x, nil
}

// Dependents returns all dependent objects (excluding the targets
// themselves), ranked by chain importance: strong chains first, shorter
// chains first within a class, then by symbol id for determinism.
func (r *Result) Dependents() []Dependent {
	out := make([]Dependent, 0, len(r.states))
	for i := range r.states {
		st := &r.states[i]
		if st.prev == prim.NoSym {
			continue // a target
		}
		out = append(out, Dependent{Sym: st.sym, Strength: st.strength, Dist: int(st.dist)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Strength != out[j].Strength {
			return out[i].Strength > out[j].Strength
		}
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Sym < out[j].Sym
	})
	return out
}

// lookup returns sym's state, or nil if it was never reached.
func (r *Result) lookup(sym prim.SymID) *state {
	if sym < 0 || int(sym) >= len(r.slot) || r.slot[sym] < 0 {
		return nil
	}
	return &r.states[r.slot[sym]]
}

// IsDependent reports whether sym depends on the target.
func (r *Result) IsDependent(sym prim.SymID) bool { return r.lookup(sym) != nil }

// Chain reconstructs the best dependence chain from sym back to the
// target, starting at sym.
func (r *Result) Chain(sym prim.SymID) []Step {
	var steps []Step
	cur := sym
	for {
		st := r.lookup(cur)
		if st == nil {
			return nil
		}
		steps = append(steps, Step{Sym: cur, Loc: st.loc, Op: st.op, Strength: st.edgeStr})
		if st.prev == prim.NoSym {
			break
		}
		cur = st.prev
		if len(steps) > len(r.states)+1 {
			break // cycle guard; cannot happen with consistent states
		}
	}
	return steps
}

// FormatChain renders a chain in the paper's Figure 1 style:
//
//	w/short <eg1.c:3> ! u/short <eg1.c:7> ! target/short <eg1.c:6> where target/short <eg1.c:1>
func (r *Result) FormatChain(sym prim.SymID) string {
	steps := r.Chain(sym)
	if len(steps) == 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteString(" ! ")
		}
		symb := r.src.Sym(s.Sym)
		loc := s.Loc
		if i == len(steps)-1 || loc.IsZero() {
			loc = symb.Loc
		}
		fmt.Fprintf(&b, "%s/%s <%s>", symb.Name, symb.Type, loc)
	}
	t := r.src.Sym(steps[len(steps)-1].Sym)
	fmt.Fprintf(&b, " where %s/%s <%s>", t.Name, t.Type, t.Loc)
	return b.String()
}
