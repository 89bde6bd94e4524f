package driver

import (
	"context"
	"testing"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/linker"
	"cla/internal/prim"
	"cla/internal/pts"
)

// link compiles each source on its own and links them in order.
func link(t *testing.T, files cpp.MapLoader, units ...string) *prim.Program {
	t.Helper()
	var progs []*prim.Program
	for _, u := range units {
		p, err := frontend.CompileSource(u, files[u], files, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	prog, err := linker.Link(progs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestCompileUnitsAndAnalyze(t *testing.T) {
	files := cpp.MapLoader{
		"a.c": "int g; int *p;\nvoid f(void) { p = &g; }\n",
		"b.c": "extern int *p; int *q;\nvoid h(void) { q = p; }\n",
	}
	prog := link(t, files, "a.c", "b.c")
	for _, solver := range []Solver{PreTransitive, Worklist, Steensgaard, BitVector, OneLevel} {
		res, err := Analyze(context.Background(), pts.NewMemSource(prog), solver, core.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		q := prog.SymIDByName("q")
		if len(res.PointsTo(q)) == 0 {
			t.Errorf("%v: pts(q) empty", solver)
		}
	}
}

func TestParseSolver(t *testing.T) {
	cases := map[string]Solver{
		"pretrans": PreTransitive, "pre-transitive": PreTransitive, "core": PreTransitive,
		"worklist": Worklist, "andersen-closed": Worklist,
		"steens": Steensgaard, "steensgaard": Steensgaard, "unify": Steensgaard,
		"bitvec": BitVector, "bitvector": BitVector,
		"onelevel": OneLevel, "one-level": OneLevel, "das": OneLevel,
	}
	for name, want := range cases {
		got, err := ParseSolver(name)
		if err != nil || got != want {
			t.Errorf("ParseSolver(%q) = %v, %v", name, got, err)
		}
	}
	for _, bad := range []string{"magic", ""} {
		if _, err := ParseSolver(bad); err == nil {
			t.Errorf("unknown solver %q accepted", bad)
		}
	}
}

func TestSolverString(t *testing.T) {
	want := map[Solver]string{
		PreTransitive: "pre-transitive", Worklist: "worklist", Steensgaard: "steensgaard",
		BitVector: "bitvec", OneLevel: "one-level",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
		// The canonical label parses back: snapshots record it.
		if back, err := ParseSolver(name); err != nil || back != s {
			t.Errorf("ParseSolver(%q) = %v, %v", name, back, err)
		}
	}
	if got := Solver(99).String(); got != "Solver(99)" {
		t.Errorf("Solver(99).String() = %q", got)
	}
}

func TestAnalyzeUnknownSolver(t *testing.T) {
	prog := link(t, cpp.MapLoader{"a.c": "int x;"}, "a.c")
	if _, err := Analyze(context.Background(), pts.NewMemSource(prog), Solver(99), core.DefaultConfig(), nil); err == nil {
		t.Error("unknown solver accepted")
	}
}
