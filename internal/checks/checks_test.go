package checks

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/prim"
	"cla/internal/pts"
)

// compile lowers src as one translation unit named test.c.
func compile(t *testing.T, src string) *prim.Program {
	t.Helper()
	prog, err := frontend.CompileSource("test.c", src, nil, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return prog
}

// solve runs the named solver over prog.
func solve(t *testing.T, prog *prim.Program, s driver.Solver) pts.Result {
	t.Helper()
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(prog), s, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("solve %v: %v", s, err)
	}
	return res
}

// runAll compiles src and runs every check with the default solver.
func runAll(t *testing.T, src string) (*prim.Program, *Report) {
	t.Helper()
	prog := compile(t, src)
	res := solve(t, prog, driver.PreTransitive)
	rep, err := Run(prog, res, Options{})
	if err != nil {
		t.Fatalf("checks: %v", err)
	}
	return prog, rep
}

// diagStrings renders all diagnostics of one check.
func diagStrings(rep *Report, c Check) []string {
	var out []string
	for _, d := range rep.Diags {
		if d.Check == c {
			out = append(out, d.String())
		}
	}
	return out
}

func wantDiags(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\ngot:  %q\nwant: %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// ---------- call graph ----------

const dispatchSrc = `
void fa(void) { }
void fb(void) { }
void (*fp)(void);
void pick(int which) {
	if (which) { fp = fa; } else { fp = fb; }
}
void run(void) {
	fa();
	fp();
}
`

func TestCallGraphResolvesIndirectSite(t *testing.T) {
	_, rep := runAll(t, dispatchSrc)
	if rep.Graph == nil {
		t.Fatal("no call graph")
	}
	var indirect *Site
	for i := range rep.Graph.Sites {
		if rep.Graph.Sites[i].Indirect {
			if indirect != nil {
				t.Fatalf("expected one indirect site, got more: %+v", rep.Graph.Sites)
			}
			indirect = &rep.Graph.Sites[i]
		}
	}
	if indirect == nil {
		t.Fatal("no indirect call site recorded")
	}
	if indirect.Via != "fp" || indirect.Caller != "run" {
		t.Errorf("site via=%q caller=%q, want fp/run", indirect.Via, indirect.Caller)
	}
	if indirect.Loc.File != "test.c" || indirect.Loc.Line != 10 {
		t.Errorf("site at %s, want test.c:10", indirect.Loc)
	}
	if got, want := strings.Join(indirect.Callees, ","), "fa,fb"; got != want {
		t.Errorf("callees = %s, want %s", got, want)
	}
	// The direct edge is folded in too, and no unresolved diagnostics.
	callees := rep.Graph.CalleesOf()
	if got, want := strings.Join(callees["run"], ","), "fa,fb"; got != want {
		t.Errorf("callees of run = %s, want %s", got, want)
	}
	if ds := diagStrings(rep, CallGraph); len(ds) != 0 {
		t.Errorf("unexpected callgraph diagnostics: %q", ds)
	}
}

func TestCallGraphUnresolvedSite(t *testing.T) {
	_, rep := runAll(t, `
void (*dead)(void);
void trip(void) { dead(); }
`)
	wantDiags(t, diagStrings(rep, CallGraph), []string{
		"test.c:3: [callgraph] indirect call through 'dead' resolves to no function (points-to set has no function targets) (in trip)",
	})
}

func TestCallGraphDOTAndJSON(t *testing.T) {
	_, rep := runAll(t, dispatchSrc)
	dot := rep.Graph.DOT()
	for _, want := range []string{
		"digraph callgraph {",
		`"run" -> "fa";`,                // direct call
		`"run" -> "fa" [style=dashed];`, // via fp
		`"run" -> "fb" [style=dashed];`, // via fp
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	js, err := rep.Graph.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !bytes.Contains(js, []byte(`"indirect": true`)) {
		t.Errorf("JSON missing indirect site:\n%s", js)
	}
}

// ---------- MOD/REF ----------

func modrefByFunc(rep *Report) map[string]Summary {
	out := map[string]Summary{}
	for _, s := range rep.ModRef {
		out[s.Func] = s
	}
	return out
}

func TestModRefDirectAndTransitive(t *testing.T) {
	_, rep := runAll(t, `
int g1, g2, val;
int *p, *q;
void setup(void) { p = &g1; q = &g2; }
void writer(void) { *p = val; }
void reader(int x) { x = *q; }
void outer(void) { writer(); reader(0); }
`)
	byFunc := modrefByFunc(rep)
	if got := strings.Join(byFunc["writer"].DirectMod, ","); got != "g1" {
		t.Errorf("writer direct MOD = %q, want g1", got)
	}
	if got := strings.Join(byFunc["reader"].DirectRef, ","); got != "g2" {
		t.Errorf("reader direct REF = %q, want g2", got)
	}
	// outer has no derefs of its own but inherits both callees' effects.
	out := byFunc["outer"]
	if len(out.DirectMod) != 0 || len(out.DirectRef) != 0 {
		t.Errorf("outer direct sets should be empty: %+v", out)
	}
	if got := strings.Join(out.Mod, ","); got != "g1" {
		t.Errorf("outer MOD = %q, want g1", got)
	}
	if got := strings.Join(out.Ref, ","); got != "g2" {
		t.Errorf("outer REF = %q, want g2", got)
	}
}

func TestModRefThroughIndirectCall(t *testing.T) {
	_, rep := runAll(t, `
int cell, val;
int *wp;
void hit(void) { *wp = val; }
void (*h)(void);
void install(void) { wp = &cell; h = hit; }
void fire(void) { h(); }
`)
	byFunc := modrefByFunc(rep)
	if got := strings.Join(byFunc["fire"].Mod, ","); got != "cell" {
		t.Errorf("fire MOD = %q, want cell (via indirect call to hit)", got)
	}
}

func TestModRefRecursionConverges(t *testing.T) {
	_, rep := runAll(t, `
int a, b;
int *pa, *pb;
void odd(int n);
void even(int n) { *pa = n; odd(n); }
void odd(int n) { *pb = n; even(n); }
void init(void) { pa = &a; pb = &b; }
`)
	byFunc := modrefByFunc(rep)
	for _, f := range []string{"even", "odd"} {
		if got := strings.Join(byFunc[f].Mod, ","); got != "a,b" {
			t.Errorf("%s MOD = %q, want a,b", f, got)
		}
	}
}

// ---------- escape ----------

func TestEscapeToGlobalAndReturn(t *testing.T) {
	_, rep := runAll(t, `
int *leak;
int *grab(void) {
	int x;
	int y;
	leak = &x;
	return &y;
}
`)
	wantDiags(t, diagStrings(rep, Escape), []string{
		"test.c:4: [escape] address of local 'x' may be stored in global 'leak', outliving its frame (in grab)",
		"test.c:5: [escape] address of local 'y' may be returned by 'grab', outliving its frame (in grab)",
	})
}

func TestEscapeViaHeapAndField(t *testing.T) {
	_, rep := runAll(t, `
struct node { int *slot; };
struct node box;
int **mem;
void *malloc(unsigned long);
void stash(void) {
	int v;
	int w;
	box.slot = &v;
	*mem = &w;
}
void seed(void) { mem = (int**)malloc(8); }
`)
	wantDiags(t, diagStrings(rep, Escape), []string{
		"test.c:7: [escape] address of local 'v' may be stored in field 'node.slot', outliving its frame (in stash)",
		"test.c:8: [escape] address of local 'w' may be stored in heap 'heap@test.c:12#1', outliving its frame (in stash)",
	})
}

func TestNoEscapeForSafeLocals(t *testing.T) {
	_, rep := runAll(t, `
int observe(int *p) { return *p; }
int use(void) {
	int x;
	int *lp;
	lp = &x;
	return observe(&x);
}
`)
	if ds := diagStrings(rep, Escape); len(ds) != 0 {
		t.Errorf("safe locals flagged: %q", ds)
	}
}

// ---------- deref ----------

func TestDerefEmptySet(t *testing.T) {
	_, rep := runAll(t, `
int g, val;
int *set, *unset;
void init(void) { set = &g; }
void ok(void)   { *set = val; }
void bad(void)  { *unset = val; }
void worse(int x) { x = *unset; }
`)
	wantDiags(t, diagStrings(rep, Deref), []string{
		"test.c:6: [deref] dereference of 'unset' whose points-to set is empty (null or uninitialized pointer?) (in bad)",
		"test.c:7: [deref] dereference of 'unset' whose points-to set is empty (null or uninitialized pointer?) (in worse)",
	})
}

func TestDerefCopyBothSides(t *testing.T) {
	_, rep := runAll(t, `
int *dst, *src;
void move(void) { *dst = *src; }
`)
	got := diagStrings(rep, Deref)
	if len(got) != 2 {
		t.Fatalf("want both sides of *dst = *src reported, got %q", got)
	}
}

// ---------- engine ----------

func TestCheckSelection(t *testing.T) {
	prog := compile(t, dispatchSrc)
	res := solve(t, prog, driver.PreTransitive)
	rep, err := Run(prog, res, Options{Checks: []Check{Deref}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graph != nil || rep.ModRef != nil {
		t.Error("disabled checks produced output")
	}
	// modref alone builds the graph internally but does not attach it.
	rep, err = Run(prog, res, Options{Checks: []Check{ModRef}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graph != nil {
		t.Error("graph attached without callgraph check")
	}
	if rep.ModRef == nil {
		t.Error("modref missing")
	}
}

func TestParseChecks(t *testing.T) {
	if _, err := ParseChecks([]string{"callgraph", "deref"}); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	if _, err := ParseChecks([]string{"nosuch"}); err == nil {
		t.Error("bad name accepted")
	}
}

func TestDiagnosticsSortedByLocation(t *testing.T) {
	_, rep := runAll(t, `
int w;
int *u1, *u2;
void z(void) { *u2 = w; }
void a(void) { *u1 = w; }
`)
	if len(rep.Diags) < 2 {
		t.Fatalf("want at least 2 diagnostics, got %d", len(rep.Diags))
	}
	for i := 1; i < len(rep.Diags); i++ {
		if rep.Diags[i].Loc.Line < rep.Diags[i-1].Loc.Line {
			t.Fatalf("diagnostics not in line order: %v", rep.Diags)
		}
	}
}

// TestAllSolversResolveDispatch runs the call-graph check under every
// solver; subset solvers give the exact callee set, unification solvers
// may widen it, but nobody may leave the indirect site unresolved.
func TestAllSolversResolveDispatch(t *testing.T) {
	prog := compile(t, dispatchSrc)
	for _, s := range []driver.Solver{
		driver.PreTransitive, driver.Worklist, driver.BitVector,
		driver.Steensgaard, driver.OneLevel,
	} {
		res := solve(t, prog, s)
		rep, err := Run(prog, res, Options{})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rep.Graph == nil {
			t.Fatalf("%v: no graph", s)
		}
		for _, site := range rep.Graph.Sites {
			if site.Indirect && len(site.Callees) == 0 {
				t.Errorf("%v: unresolved indirect site %+v", s, site)
			}
		}
	}
}

func ExampleReport_Format() {
	prog, _ := frontend.CompileSource("ex.c", `
int x;
int *wild;
void boom(void) { *wild = x; }
`, nil, frontend.Options{})
	res, _ := driver.Analyze(context.Background(), pts.NewMemSource(prog), driver.PreTransitive, core.DefaultConfig(), nil)
	rep, _ := Run(prog, res, Options{})
	rep.Format(os.Stdout)
	// Output:
	// ex.c:4: [deref] dereference of 'wild' whose points-to set is empty (null or uninitialized pointer?) (in boom)
}
