package depend

import (
	"strings"
	"testing"

	"cla/internal/core"
	"cla/internal/frontend"
	"cla/internal/prim"
	"cla/internal/pts"
)

// analyze compiles src, runs points-to, and analyzes dependence from the
// named target.
func analyze(t *testing.T, src, target string, opts Options) (*prim.Program, *Result) {
	t.Helper()
	p, err := frontend.CompileSource("eg1.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	msrc := pts.NewMemSource(p)
	ptr, err := core.Solve(msrc, core.DefaultConfig())
	if err != nil {
		t.Fatalf("points-to: %v", err)
	}
	id := p.SymIDByName(target)
	if id == prim.NoSym {
		t.Fatalf("no symbol %q", target)
	}
	res, err := Analyze(msrc, ptr, []prim.SymID{id}, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return p, res
}

// depNames returns the dependent names in rank order.
func depNames(p *prim.Program, r *Result, programOnly bool) []string {
	var out []string
	for _, d := range r.Dependents() {
		s := p.Sym(d.Sym)
		if programOnly {
			switch s.Kind {
			case prim.SymGlobal, prim.SymStatic, prim.SymLocal, prim.SymField:
			default:
				continue
			}
		}
		out = append(out, s.Name)
	}
	return out
}

func has(names []string, want ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, w := range want {
		if !set[w] {
			return nil
		}
	}
	return set
}

func TestIntroductionExample(t *testing.T) {
	// From Section 1: changing x requires changing y, z, v, p but not w.
	src := `short x, y, z, *p, v, w;
void m(void) {
	y = x;
	z = y+1;
	p = &v;
	*p = z;
	w = 1;
}`
	p, r := analyze(t, src, "x", Options{})
	names := depNames(p, r, true)
	set := has(names, "y", "z", "v")
	if set == nil {
		t.Fatalf("dependents = %v, want y,z,v", names)
	}
	if set["w"] {
		t.Errorf("w must not be dependent: %v", names)
	}
	if set["p"] {
		// p holds &v, not x's value: pointer itself is not value-dependent.
		t.Logf("note: p reported dependent (paper says 'probably p')")
	}
}

func TestPaperFigure1Structs(t *testing.T) {
	// Figure 1: target -> u (via u = target), w (via *v = u), S.x (via
	// s.x = w).
	src := `short target;
struct S { short x; short y; };
short u, *v, w;
struct S s, t;
void m(void) {
	v = &w;
	u = target;
	*v = u;
	s.x = w;
}`
	p, r := analyze(t, src, "target", Options{})
	names := depNames(p, r, true)
	if has(names, "u", "w", "S.x") == nil {
		t.Fatalf("dependents = %v, want u,w,S.x", names)
	}
	set := has(names, "u")
	if set["S.y"] {
		t.Errorf("S.y must not be dependent: %v", names)
	}
	// Chain for S.x should pass through w and u back to target.
	chain := r.FormatChain(p.SymIDByName("S.x"))
	for _, part := range []string{"S.x/short", "w/short", "u/short", "target/short", "where target/short"} {
		if !strings.Contains(chain, part) {
			t.Errorf("chain %q missing %q", chain, part)
		}
	}
}

func TestStrengthRanking(t *testing.T) {
	// strongdep via +, weakdep via *, nodep via !.
	src := `int target;
int strongdep, weakdep, nodep;
void m(void) {
	strongdep = target + 1;
	weakdep = target * 3;
	nodep = !target;
}`
	p, r := analyze(t, src, "target", Options{})
	deps := r.Dependents()
	byName := map[string]Dependent{}
	for _, d := range deps {
		byName[p.Sym(d.Sym).Name] = d
	}
	if d, ok := byName["strongdep"]; !ok || d.Strength != prim.Strong {
		t.Errorf("strongdep = %+v", d)
	}
	if d, ok := byName["weakdep"]; !ok || d.Strength != prim.Weak {
		t.Errorf("weakdep = %+v", d)
	}
	if _, ok := byName["nodep"]; ok {
		t.Error("nodep must not be dependent")
	}
	// Ranking: strong before weak.
	names := depNames(p, r, true)
	si, wi := -1, -1
	for i, n := range names {
		if n == "strongdep" {
			si = i
		}
		if n == "weakdep" {
			wi = i
		}
	}
	if si > wi {
		t.Errorf("ranking wrong: %v", names)
	}
}

func TestWeakestLinkOnPath(t *testing.T) {
	// target -> a (strong) -> b (weak) -> c (strong): c's chain is weak.
	src := `int target, a, b, c;
void m(void) {
	a = target;
	b = a * 2;
	c = b + 1;
}`
	p, r := analyze(t, src, "target", Options{})
	for _, d := range r.Dependents() {
		if p.Sym(d.Sym).Name == "c" && d.Strength != prim.Weak {
			t.Errorf("c chain strength = %v, want Weak", d.Strength)
		}
	}
}

func TestStrongPathPreferredOverShortWeak(t *testing.T) {
	// Two routes to far: short weak (far = target*2) and long strong
	// (far = mid, mid = target). Strong must win.
	src := `int target, mid, far;
void m(void) {
	far = target * 2;
	mid = target;
	far = mid;
}`
	p, r := analyze(t, src, "target", Options{})
	for _, d := range r.Dependents() {
		if p.Sym(d.Sym).Name == "far" {
			if d.Strength != prim.Strong || d.Dist != 2 {
				t.Errorf("far = %+v, want Strong dist 2", d)
			}
		}
	}
}

func TestShortestAmongEqualStrength(t *testing.T) {
	src := `int target, a, b, direct;
void m(void) {
	a = target;
	b = a;
	direct = target;
	direct = b;
}`
	p, r := analyze(t, src, "target", Options{})
	for _, d := range r.Dependents() {
		if p.Sym(d.Sym).Name == "direct" && d.Dist != 1 {
			t.Errorf("direct dist = %d, want 1", d.Dist)
		}
	}
}

func TestPointerStoreDependence(t *testing.T) {
	src := `int target, sink, *p;
void m(void) {
	p = &sink;
	*p = target;
}`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "sink") == nil {
		t.Errorf("dependents = %v, want sink", depNames(p, r, true))
	}
}

func TestPointerLoadDependence(t *testing.T) {
	// reader = *p where p may point to target: reader depends on target.
	src := `int target, reader, *p;
void m(void) {
	p = &target;
	reader = *p;
}`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "reader") == nil {
		t.Errorf("dependents = %v, want reader", depNames(p, r, true))
	}
}

func TestCopyIndirectDependence(t *testing.T) {
	src := `int target, sink, *ps, *pt;
void m(void) {
	ps = &sink;
	pt = &target;
	*ps = *pt;
}`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "sink") == nil {
		t.Errorf("dependents = %v, want sink", depNames(p, r, true))
	}
}

func TestInterproceduralDependence(t *testing.T) {
	src := `int target, out;
int pass(int v) { return v; }
void m(void) { out = pass(target); }`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "out") == nil {
		t.Errorf("dependents = %v, want out", depNames(p, r, true))
	}
}

func TestNonTargets(t *testing.T) {
	// hub is a central object; marking it a non-target cuts everything
	// downstream of it.
	src := `int target, hub, downstream, direct;
void m(void) {
	hub = target;
	downstream = hub;
	direct = target;
}`
	p0, err := frontend.CompileSource("eg1.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msrc := pts.NewMemSource(p0)
	ptr, err := core.Solve(msrc, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hub := p0.SymIDByName("hub")
	res, err := Analyze(msrc, ptr, []prim.SymID{p0.SymIDByName("target")},
		Options{NonTargets: map[prim.SymID]bool{hub: true}})
	if err != nil {
		t.Fatal(err)
	}
	names := depNames(p0, res, true)
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	if set["hub"] || set["downstream"] {
		t.Errorf("non-target not respected: %v", names)
	}
	if !set["direct"] {
		t.Errorf("direct missing: %v", names)
	}
}

func TestDropWeak(t *testing.T) {
	src := `int target, s, w;
void m(void) { s = target; w = target * 2; }`
	p, r := analyze(t, src, "target", Options{DropWeak: true})
	names := depNames(p, r, true)
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	if !set["s"] || set["w"] {
		t.Errorf("DropWeak: %v", names)
	}
}

func TestMultipleTargetsByName(t *testing.T) {
	src := `int t1, t2, d1, d2;
void m(void) { d1 = t1; d2 = t2; }`
	p, err := frontend.CompileSource("eg1.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msrc := pts.NewMemSource(p)
	ptr, err := core.Solve(msrc, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(msrc, ptr,
		[]prim.SymID{p.SymIDByName("t1"), p.SymIDByName("t2")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := depNames(p, res, true)
	if has(names, "d1", "d2") == nil {
		t.Errorf("dependents = %v", names)
	}
}

func TestChainEndsAtTarget(t *testing.T) {
	src := `int target, a, b;
void m(void) { a = target; b = a; }`
	p, r := analyze(t, src, "target", Options{})
	chain := r.Chain(p.SymIDByName("b"))
	if len(chain) != 3 {
		t.Fatalf("chain = %v", chain)
	}
	if p.Sym(chain[0].Sym).Name != "b" || p.Sym(chain[2].Sym).Name != "target" {
		t.Errorf("chain endpoints wrong")
	}
}

func TestNoDependents(t *testing.T) {
	src := `int target, unrelated;
void m(void) { unrelated = 1; }`
	p, r := analyze(t, src, "target", Options{})
	if n := depNames(p, r, true); len(n) != 0 {
		t.Errorf("dependents = %v", n)
	}
	if r.IsDependent(p.SymIDByName("unrelated")) {
		t.Error("unrelated reported dependent")
	}
}

func TestChainOfMissingSymEmpty(t *testing.T) {
	src := `int target; void m(void) {}`
	p, r := analyze(t, src, "target", Options{})
	if c := r.Chain(p.SymIDByName("m") + 100); c != nil {
		t.Errorf("chain = %v", c)
	}
	if s := r.FormatChain(prim.SymID(9999)); s != "" {
		t.Errorf("format = %q", s)
	}
}

func TestDependenceThroughFieldBased(t *testing.T) {
	// All objects sharing the field S.x are coupled, per the paper's
	// rationale for uniform field treatment.
	src := `struct S { short x; } s, t;
short target, out;
void m(void) {
	s.x = target;
	out = t.x;
}`
	p, r := analyze(t, src, "target", Options{})
	if has(depNames(p, r, true), "S.x", "out") == nil {
		t.Errorf("dependents = %v, want S.x and out", depNames(p, r, true))
	}
}

func TestLoadedAccounting(t *testing.T) {
	src := `int target, a; void m(void) { a = target; }`
	_, r := analyze(t, src, "target", Options{})
	if r.Loaded == 0 {
		t.Error("no load accounting")
	}
}

func TestFormatTree(t *testing.T) {
	src := `short target;
short a, b, c;
void m(void) {
	a = target;
	b = a;
	c = target * 2;
}`
	p, r := analyze(t, src, "target", Options{})
	tree := r.FormatTree(0)
	for _, want := range []string{"target/short", "a/short", "b/short", "c/short", "└─", "[strong]", "[weak]"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	// b must be nested under a (indented deeper).
	ai := strings.Index(tree, "a/short")
	bi := strings.Index(tree, "b/short")
	if ai < 0 || bi < 0 || bi < ai {
		t.Errorf("ordering wrong:\n%s", tree)
	}
	_ = p
}

func TestFormatTreeDepthLimit(t *testing.T) {
	src := `short target, a, b, c;
void m(void) { a = target; b = a; c = b; }`
	_, r := analyze(t, src, "target", Options{})
	tree := r.FormatTree(1)
	if strings.Contains(tree, "b/short") {
		t.Errorf("depth limit ignored:\n%s", tree)
	}
	if !strings.Contains(tree, "more below") {
		t.Errorf("no elision marker:\n%s", tree)
	}
}

func TestWeakLoadRefiresAfterStrengthDrops(t *testing.T) {
	// v1 is reached by a strong chain of length 5 and v2 by a weak one
	// of length 1; both are read through u by a weak load. The weak
	// chain pops after the strong one, and its re-fired load gives d the
	// shorter chain: d = *u from v2 at distance 2, not from v1 at 6.
	src := `int target, a1, a2, a3, a4, v1, v2, d, *u;
void m(void) {
	a1 = target; a2 = a1; a3 = a2; a4 = a3; v1 = a4;
	v2 = target * 2;
	u = &v1; u = &v2;
	d = *u * 3;
}`
	p, r := analyze(t, src, "target", Options{})
	d := p.SymIDByName("d")
	var got *Dependent
	for _, dep := range r.Dependents() {
		if dep.Sym == d {
			got = &dep
		}
	}
	if got == nil || got.Strength != prim.Weak || got.Dist != 2 {
		t.Fatalf("d = %+v, want weak at distance 2", got)
	}
	if chain := r.FormatChain(d); !strings.Contains(chain, "v2/") || strings.Contains(chain, "v1/") {
		t.Errorf("chain = %s, want it through v2", chain)
	}
}
