package linker

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/prim"
)

func compileUnit(t *testing.T, name, src string) *prim.Program {
	t.Helper()
	p, err := frontend.CompileSource(name, src, nil, frontend.Options{})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return p
}

func symNames(p *prim.Program, name string) int {
	n := 0
	for i := range p.Syms {
		if p.Syms[i].Name == name {
			n++
		}
	}
	return n
}

func assignSet(p *prim.Program) map[string]int {
	out := map[string]int{}
	for _, a := range p.Assigns {
		out[frontend.FormatAssign(p, a)]++
	}
	return out
}

func TestLinkMergesGlobals(t *testing.T) {
	a := compileUnit(t, "a.c", "int shared;\nint x;\nvoid f(void) { x = shared; }")
	b := compileUnit(t, "b.c", "extern int shared;\nint y;\nvoid g(void) { shared = y; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("linked program invalid: %v", err)
	}
	if n := symNames(merged, "shared"); n != 1 {
		t.Errorf("shared appears %d times, want 1", n)
	}
	as := assignSet(merged)
	if as["x = shared"] != 1 || as["shared = y"] != 1 {
		t.Errorf("assigns = %v", as)
	}
}

func TestLinkKeepsStaticsDistinct(t *testing.T) {
	a := compileUnit(t, "a.c", "static int priv;\nint xa;\nvoid f(void) { xa = priv; }")
	b := compileUnit(t, "b.c", "static int priv;\nint xb;\nvoid g(void) { xb = priv; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "priv"); n != 2 {
		t.Errorf("priv appears %d times, want 2", n)
	}
}

func TestLinkKeepsLocalsDistinct(t *testing.T) {
	a := compileUnit(t, "a.c", "int ga; void f(void) { int l; l = ga; }")
	b := compileUnit(t, "b.c", "int gb; void g(void) { int l; l = gb; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "l"); n != 2 {
		t.Errorf("l appears %d times, want 2", n)
	}
}

func TestLinkFunctionCallAcrossUnits(t *testing.T) {
	def := compileUnit(t, "def.c", "int get(int k) { return k; }")
	use := compileUnit(t, "use.c", "int get(int);\nint r, a;\nvoid m(void) { r = get(a); }")
	merged, err := Link([]*prim.Program{def, use})
	if err != nil {
		t.Fatal(err)
	}
	// get$1 and get$ret must each be one merged symbol.
	if n := symNames(merged, "get$1"); n != 1 {
		t.Errorf("get$1 appears %d times", n)
	}
	if n := symNames(merged, "get$ret"); n != 1 {
		t.Errorf("get$ret appears %d times", n)
	}
	as := assignSet(merged)
	for _, want := range []string{"k = get$1", "get$ret = k", "get$1 = a", "r = get$ret"} {
		if as[want] != 1 {
			t.Errorf("missing %q in %v", want, as)
		}
	}
}

func TestLinkFieldSymbolsMerge(t *testing.T) {
	hdr := "struct S { int *p; };\n"
	a := compileUnit(t, "a.c", hdr+"struct S sa; int va;\nvoid f(void) { sa.p = &va; }")
	b := compileUnit(t, "b.c", hdr+"struct S sb; int *qb;\nvoid g(void) { qb = sb.p; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "S.p"); n != 1 {
		t.Errorf("S.p appears %d times, want 1", n)
	}
}

func TestLinkFuncRecordMerge(t *testing.T) {
	// One unit calls with 1 arg, definition has 2 params: record keeps 2.
	def := compileUnit(t, "def.c", "int two(int a, int b) { return a; }")
	use := compileUnit(t, "use.c", "int r; void m(void) { r = two(1); }")
	merged, err := Link([]*prim.Program{use, def})
	if err != nil {
		t.Fatal(err)
	}
	var rec *prim.FuncRecord
	for i := range merged.Funcs {
		if merged.Sym(merged.Funcs[i].Func).Name == "two" {
			rec = &merged.Funcs[i]
		}
	}
	if rec == nil {
		t.Fatal("no record for two")
	}
	if len(rec.Params) != 2 {
		t.Errorf("params = %d, want 2", len(rec.Params))
	}
	if rec.Ret == prim.NoSym {
		t.Error("ret missing")
	}
	count := 0
	for i := range merged.Funcs {
		if merged.Sym(merged.Funcs[i].Func).Name == "two" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("two has %d records, want 1", count)
	}
}

func TestLinkStaticFunctionsStayDistinct(t *testing.T) {
	a := compileUnit(t, "a.c", "static int helper(int v) { return v; }\nint ra; void fa(void) { ra = helper(1); }")
	b := compileUnit(t, "b.c", "static int helper(int v) { return v; }\nint rb; void fb(void) { rb = helper(2); }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "helper"); n != 2 {
		t.Errorf("helper appears %d times, want 2", n)
	}
	if n := symNames(merged, "helper$1"); n != 2 {
		t.Errorf("helper$1 appears %d times, want 2", n)
	}
}

func TestLinkFuncPtrFlagPropagates(t *testing.T) {
	a := compileUnit(t, "a.c", "int (*cb)(int);\nint use(void) { return cb(1); }")
	b := compileUnit(t, "b.c", "extern int (*cb)(int);\nint f(int v) { return v; }\nvoid set(void) { cb = f; }")
	merged, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	id := merged.SymIDByName("cb")
	if id == prim.NoSym || !merged.Sym(id).FuncPtr {
		t.Error("cb lost FuncPtr flag")
	}
}

func TestLinkIncompatibleKinds(t *testing.T) {
	a := &prim.Program{}
	a.AddSym(prim.Symbol{Name: "clash", Kind: prim.SymField})
	b := &prim.Program{}
	b.AddSym(prim.Symbol{Name: "clash", Kind: prim.SymFunc})
	if _, err := Link([]*prim.Program{a, b}); err == nil {
		t.Error("field/function clash accepted")
	}
}

func TestLinkBadAssignRejected(t *testing.T) {
	a := &prim.Program{}
	a.AddSym(prim.Symbol{Name: "x", Kind: prim.SymGlobal})
	a.Assigns = append(a.Assigns, prim.Assign{Kind: prim.Simple, Dst: 0, Src: 42})
	if _, err := Link([]*prim.Program{a}); err == nil {
		t.Error("bad assignment accepted")
	}
	// A function record's parameters and return are checked too, in a
	// duplicate record as well as a first one.
	for _, rec := range []prim.FuncRecord{
		{Func: 0, Params: []prim.SymID{42}, Ret: prim.NoSym},
		{Func: 0, Ret: 42},
	} {
		f := &prim.Program{}
		f.AddSym(prim.Symbol{Name: "f", Kind: prim.SymFunc})
		f.Funcs = []prim.FuncRecord{{Func: 0, Ret: prim.NoSym}, rec}
		if _, err := Link([]*prim.Program{f}); err == nil {
			t.Errorf("bad function record %+v accepted", rec)
		}
	}
}

func TestLinkFilesEndToEnd(t *testing.T) {
	dir := t.TempDir()
	a := compileUnit(t, "a.c", "int shared; void f(void) { shared = 1; }")
	b := compileUnit(t, "b.c", "extern int shared; int y; void g(void) { y = shared; }")
	pa := filepath.Join(dir, "a.clo")
	pb := filepath.Join(dir, "b.clo")
	if err := objfile.WriteFile(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := objfile.WriteFile(pb, b); err != nil {
		t.Fatal(err)
	}
	merged, err := LinkFiles([]string{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "shared"); n != 1 {
		t.Errorf("shared = %d", n)
	}
	// The merged program must itself be writable and re-readable — the
	// "executable" has the same format as object files.
	exe := filepath.Join(dir, "all.cla")
	if err := objfile.WriteFile(exe, merged); err != nil {
		t.Fatal(err)
	}
	r, err := objfile.Open(exe)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumSyms() != len(merged.Syms) {
		t.Errorf("reread syms = %d, want %d", r.NumSyms(), len(merged.Syms))
	}
}

func TestLinkFilesMissing(t *testing.T) {
	if _, err := LinkFiles([]string{"/nonexistent/x.clo"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLinkManyUnitsScales(t *testing.T) {
	var units []*prim.Program
	for i := 0; i < 20; i++ {
		src := "extern int hub;\nint local" + string(rune('a'+i)) + ";\n" +
			"void f" + string(rune('a'+i)) + "(void) { hub = local" + string(rune('a'+i)) + "; }"
		units = append(units, compileUnit(t, "u.c", src))
	}
	merged, err := Link(units)
	if err != nil {
		t.Fatal(err)
	}
	if n := symNames(merged, "hub"); n != 1 {
		t.Errorf("hub = %d", n)
	}
	as := assignSet(merged)
	total := 0
	for k, v := range as {
		if strings.HasPrefix(k, "hub = ") {
			total += v
		}
	}
	if total != 20 {
		t.Errorf("hub assignments = %d, want 20", total)
	}
}

func TestLinkDeterministic(t *testing.T) {
	a := compileUnit(t, "a.c", "int g1, g2; void f(void) { g1 = g2; }")
	b := compileUnit(t, "b.c", "extern int g1; int h; void g(void) { h = g1; }")
	m1, err := Link([]*prim.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	a2 := compileUnit(t, "a.c", "int g1, g2; void f(void) { g1 = g2; }")
	b2 := compileUnit(t, "b.c", "extern int g1; int h; void g(void) { h = g1; }")
	m2, err := Link([]*prim.Program{a2, b2})
	if err != nil {
		t.Fatal(err)
	}
	n1 := make([]string, len(m1.Syms))
	n2 := make([]string, len(m2.Syms))
	for i := range m1.Syms {
		n1[i] = m1.Syms[i].Name
	}
	for i := range m2.Syms {
		n2[i] = m2.Syms[i].Name
	}
	sort.Strings(n1)
	sort.Strings(n2)
	if strings.Join(n1, ",") != strings.Join(n2, ",") {
		t.Error("linking is not deterministic")
	}
}

// manyUnits compiles n synthetic translation units with cross-unit
// references: every unit defines its own globals and assigns through the
// shared pointer table, so link order is observable in the merged symbol
// table and assignment list.
func manyUnits(t *testing.T, n int) []*prim.Program {
	t.Helper()
	units := make([]*prim.Program, n)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`extern int *shared;
int obj%[1]d, *loc%[1]d;
void f%[1]d(void) { loc%[1]d = &obj%[1]d; shared = loc%[1]d; }`, i)
		if i == 0 {
			src = "int *shared;\n" + src
		}
		units[i] = compileUnit(t, fmt.Sprintf("u%d.c", i), src)
	}
	return units
}

func dumpProgram(t *testing.T, p *prim.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := objfile.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// treeLink is the oracle: the pairwise tree merge the linker used to run,
// adjacent units merged in rounds until one program is left. Link is one
// left fold; the two must agree byte for byte.
func treeLink(t *testing.T, units []*prim.Program) *prim.Program {
	t.Helper()
	cur := units
	for len(cur) > 1 {
		next := make([]*prim.Program, 0, (len(cur)+1)/2)
		for i := 0; i < len(cur); i += 2 {
			if i+1 == len(cur) {
				next = append(next, cur[i])
				continue
			}
			p, err := Link([]*prim.Program{cur[i], cur[i+1]})
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, p)
		}
		cur = next
	}
	p, err := Link(cur)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// genUnits compiles a generated profile with its unit count set to files.
func genUnits(t *testing.T, name string, scale float64, files int) []*prim.Program {
	t.Helper()
	p, ok := gen.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	p = p.Scale(scale)
	p.Files = files
	p.Funcs = max(p.Funcs, files)
	code := gen.Generate(p, 1)
	var units []*prim.Program
	for _, u := range code.Units() {
		prog, err := frontend.CompileSource(u, code.Files[u], code.Loader(), frontend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		units = append(units, prog)
	}
	return units
}

func TestLinkMatchesTreeOracle(t *testing.T) {
	// Unit counts that do not divide evenly into pairs give the tree
	// passthroughs at several levels.
	inputs := map[string][]*prim.Program{}
	for _, n := range []int{1, 2, 3, 7, 33} {
		inputs[fmt.Sprintf("many%d", n)] = manyUnits(t, n)
	}
	inputs["nethack"] = genUnits(t, "nethack", 0.2, 7)
	inputs["emacs"] = genUnits(t, "emacs", 0.05, 5)
	inputs["povray"] = genUnits(t, "povray", 0.05, 9)
	inputs["gimp"] = genUnits(t, "gimp", 0.01, 11)

	dir := filepath.Join("..", "..", "examples", "corpus")
	paths, err := filepath.Glob(filepath.Join(dir, "*.c"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus units: %v %v", paths, err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := frontend.CompileSource(path, string(src), cpp.OSLoader{Dirs: []string{dir}}, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		inputs["corpus"] = append(inputs["corpus"], p)
	}

	for name, units := range inputs {
		got, err := Link(units)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := treeLink(t, units)
		if !bytes.Equal(dumpProgram(t, got), dumpProgram(t, want)) {
			t.Errorf("%s: Link differs from the tree merge", name)
		}
		if got.Digest() != want.Digest() {
			t.Errorf("%s: digest %x, tree merge %x", name, got.Digest(), want.Digest())
		}
		// Link mutates nothing, so the units relink identically.
		again, err := LinkParallel(units, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dumpProgram(t, again), dumpProgram(t, got)) {
			t.Errorf("%s: relink differs", name)
		}
	}
}

func TestLinkParallelMatchesSequential(t *testing.T) {
	// The deprecated LinkParallel entry point must stay byte-identical to
	// the left fold for every worker count, including unit counts that do
	// not divide evenly into pairs.
	for _, n := range []int{1, 2, 3, 7, 33} {
		units := manyUnits(t, n)
		seq, err := Link(units)
		if err != nil {
			t.Fatal(err)
		}
		want := dumpProgram(t, seq)
		for _, jobs := range []int{1, 2, 8} {
			// Link mutates nothing, so the same units can be relinked.
			par, err := LinkParallel(units, jobs)
			if err != nil {
				t.Fatalf("n=%d jobs=%d: %v", n, jobs, err)
			}
			if !bytes.Equal(want, dumpProgram(t, par)) {
				t.Errorf("n=%d jobs=%d: parallel link differs from sequential fold", n, jobs)
			}
		}
	}
}

func TestLinkTreeMemoMatchesPlainLink(t *testing.T) {
	// Units that all define their own pointer to one shared global: the
	// pairwise tree merge (which the memoized relink used to cache) must
	// agree with the plain fold on every unit count.
	for _, n := range []int{1, 2, 3, 5, 8} {
		units := make([]*prim.Program, n)
		for i := range units {
			units[i] = compileUnit(t, "u.c", fmt.Sprintf("int shared;\nint *u%c = &shared;\n", 'a'+i))
		}
		got, err := Link(units)
		if err != nil {
			t.Fatal(err)
		}
		want := treeLink(t, units)
		if !bytes.Equal(dumpProgram(t, got), dumpProgram(t, want)) {
			t.Errorf("n=%d: Link differs from the tree merge", n)
		}
		if c := symNames(got, "shared"); c != 1 {
			t.Errorf("n=%d: %d symbols named shared, want 1", n, c)
		}
	}
}

// TestLinkAllocBound guards the pre-sized fold: one link of gimp@0.05
// (10 units) allocated 2.4MB when the bound was set, against 9.6MB for
// the fold without pre-sizing and 33MB for the pairwise tree.
func TestLinkAllocBound(t *testing.T) {
	units := genUnits(t, "gimp", 0.05, 10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Link(units); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 2 * 2_400_000
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("Link allocated %d bytes, bound %d", got, bound)
	}
}

func TestLinkObsMatchesAndIsDeterministic(t *testing.T) {
	// The instrumented link must produce the same program as the
	// uninstrumented one and record one "link" span and the unit count.
	units := manyUnits(t, 7)
	seq, err := Link(units)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	p, err := LinkObs(units, o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpProgram(t, seq), dumpProgram(t, p)) {
		t.Error("instrumented link differs from Link")
	}
	if n := o.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
	var b strings.Builder
	for _, e := range o.Events() {
		fmt.Fprintf(&b, "%d %s\n", e.Track, e.Name)
	}
	for _, m := range o.Counters() {
		fmt.Fprintf(&b, "%s=%d\n", m.Name, m.Value)
	}
	if got, want := b.String(), "0 link\nlink.units=7\n"; got != want {
		t.Errorf("recorded shape:\n%s\nwant:\n%s", got, want)
	}
}
