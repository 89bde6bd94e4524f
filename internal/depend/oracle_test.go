package depend

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"cla/internal/prim"
	"cla/internal/pts"
)

// refAnalyze is the reference implementation the tests compare Analyze
// against: a map-keyed best-state table and a whole-program deref index
// holding one record per (pointee, load) pair and, for *d = *u, one per
// |pts(d)|×|pts(u)| product. It is deliberately naive; its output (the
// ranking, every chain's predecessor and tie-break, and the Loaded
// count) defines what Analyze must reproduce byte for byte.
func refAnalyze(src pts.Source, ptr Pointer, targets []prim.SymID, opts Options) (*refResult, error) {
	r := &refResult{src: src, targets: targets, best: map[prim.SymID]*refState{}}
	a := &refAnalyzer{src: src, ptr: ptr, opts: opts, res: r}
	if err := a.run(targets); err != nil {
		return nil, err
	}
	return r, nil
}

type refResult struct {
	src     pts.Source
	targets []prim.SymID
	best    map[prim.SymID]*refState
	Loaded  int
}

type refState struct {
	strength prim.Strength
	dist     int
	prev     prim.SymID
	prevSet  bool
	loc      prim.Loc
	op       prim.Op
	edgeStr  prim.Strength
}

type refAnalyzer struct {
	src        pts.Source
	ptr        Pointer
	opts       Options
	res        *refResult
	derefReads map[prim.SymID][]refDerefRead
	built      bool
	pq         refQueue
}

type refItem struct {
	sym      prim.SymID
	strength prim.Strength
	dist     int
}

type refQueue []refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].strength != q[j].strength {
		return q[i].strength > q[j].strength
	}
	return q[i].dist < q[j].dist
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

type refDerefRead struct {
	dst prim.SymID
	loc prim.Loc
	op  prim.Op
	str prim.Strength
}

func (a *refAnalyzer) run(targets []prim.SymID) error {
	for _, t := range targets {
		if a.opts.NonTargets[t] {
			continue
		}
		a.res.best[t] = &refState{strength: prim.Strong, dist: 0}
		heap.Push(&a.pq, refItem{sym: t, strength: prim.Strong, dist: 0})
	}
	for a.pq.Len() > 0 {
		it := heap.Pop(&a.pq).(refItem)
		st := a.res.best[it.sym]
		if st == nil || st.strength != it.strength || st.dist != it.dist {
			continue
		}
		if err := a.expand(it.sym, st); err != nil {
			return err
		}
	}
	return nil
}

func (a *refAnalyzer) relax(dst, via prim.SymID, edge prim.Strength, loc prim.Loc, op prim.Op, from *refState) {
	if edge == prim.None {
		return
	}
	if a.opts.NonTargets[dst] {
		return
	}
	strength := from.strength
	if edge < strength {
		strength = edge
	}
	if a.opts.DropWeak && strength < prim.Strong {
		return
	}
	dist := from.dist + 1
	cur := a.res.best[dst]
	if cur != nil {
		if cur.strength > strength || (cur.strength == strength && cur.dist <= dist) {
			return
		}
	}
	a.res.best[dst] = &refState{
		strength: strength, dist: dist,
		prev: via, prevSet: true, loc: loc, op: op, edgeStr: edge,
	}
	heap.Push(&a.pq, refItem{sym: dst, strength: strength, dist: dist})
}

func (a *refAnalyzer) expand(sym prim.SymID, st *refState) error {
	block, err := a.src.Block(sym)
	if err != nil {
		return err
	}
	a.res.Loaded += len(block)
	for _, e := range block {
		switch e.Kind {
		case prim.Simple:
			a.relax(e.Dst, sym, e.Strength, e.Loc, e.Op, st)
		case prim.StoreInd:
			for _, v := range a.ptr.PointsTo(e.Dst) {
				a.relax(v, sym, e.Strength, e.Loc, e.Op, st)
			}
		}
	}
	if err := a.buildDerefIndex(); err != nil {
		return err
	}
	for _, dr := range a.derefReads[sym] {
		a.relax(dr.dst, sym, dr.str, dr.loc, dr.op, st)
	}
	return nil
}

func (a *refAnalyzer) buildDerefIndex() error {
	if a.built {
		return nil
	}
	a.built = true
	a.derefReads = map[prim.SymID][]refDerefRead{}
	n := a.src.NumSyms()
	for i := 0; i < n; i++ {
		u := prim.SymID(i)
		pset := a.ptr.PointsTo(u)
		if len(pset) == 0 {
			continue
		}
		block, err := a.src.Block(u)
		if err != nil {
			return err
		}
		a.res.Loaded += len(block)
		for _, e := range block {
			switch e.Kind {
			case prim.LoadInd:
				for _, v := range pset {
					a.derefReads[v] = append(a.derefReads[v], refDerefRead{
						dst: e.Dst, loc: e.Loc, op: e.Op, str: e.Strength,
					})
				}
			case prim.CopyInd:
				for _, w := range a.ptr.PointsTo(e.Dst) {
					for _, v := range pset {
						a.derefReads[v] = append(a.derefReads[v], refDerefRead{
							dst: w, loc: e.Loc, op: e.Op, str: e.Strength,
						})
					}
				}
			}
		}
	}
	return nil
}

func (r *refResult) Dependents() []Dependent {
	var out []Dependent
	tset := map[prim.SymID]bool{}
	for _, t := range r.targets {
		tset[t] = true
	}
	for sym, st := range r.best {
		if tset[sym] {
			continue
		}
		out = append(out, Dependent{Sym: sym, Strength: st.strength, Dist: st.dist})
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

func (r *refResult) Chain(sym prim.SymID) []Step {
	var steps []Step
	cur := sym
	for {
		st, ok := r.best[cur]
		if !ok {
			return nil
		}
		steps = append(steps, Step{Sym: cur, Loc: st.loc, Op: st.op, Strength: st.edgeStr})
		if !st.prevSet {
			break
		}
		cur = st.prev
		if len(steps) > len(r.best)+1 {
			break
		}
	}
	return steps
}

func (r *refResult) FormatChain(sym prim.SymID) string {
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

func (r *refResult) FormatTree(maxDepth int) string {
	children := map[prim.SymID][]prim.SymID{}
	tset := map[prim.SymID]bool{}
	for _, t := range r.targets {
		tset[t] = true
	}
	for sym, st := range r.best {
		if tset[sym] || !st.prevSet {
			continue
		}
		children[st.prev] = append(children[st.prev], sym)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool {
			a, b := r.best[kids[i]], r.best[kids[j]]
			if a.strength != b.strength {
				return a.strength > b.strength
			}
			return kids[i] < kids[j]
		})
	}
	var b strings.Builder
	var walk func(sym prim.SymID, prefix string, depth int)
	walk = func(sym prim.SymID, prefix string, depth int) {
		kids := children[sym]
		if maxDepth > 0 && depth >= maxDepth {
			if len(kids) > 0 {
				fmt.Fprintf(&b, "%s... (%d more below)\n", prefix, len(kids))
			}
			return
		}
		for i, kid := range kids {
			connector := "├─ "
			childPrefix := prefix + "│  "
			if i == len(kids)-1 {
				connector = "└─ "
				childPrefix = prefix + "   "
			}
			st := r.best[kid]
			s := r.src.Sym(kid)
			fmt.Fprintf(&b, "%s%s%s/%s <%s> [%s]\n",
				prefix, connector, s.Name, s.Type, st.loc, st.edgeStr)
			walk(kid, childPrefix, depth+1)
		}
	}
	for _, t := range r.targets {
		s := r.src.Sym(t)
		fmt.Fprintf(&b, "%s/%s <%s>\n", s.Name, s.Type, s.Loc)
		walk(t, "", 0)
	}
	return b.String()
}
