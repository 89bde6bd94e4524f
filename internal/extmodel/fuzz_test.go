package extmodel_test

import (
	"context"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/linker"
	"cla/internal/prim"
	"cla/internal/pts"
)

// FuzzExterns feeds arbitrary translation units through the full
// incomplete-program path: compile, link, apply each extern model, solve at
// jobs 1 and 8. Inputs that do not compile are skipped; for the rest the
// target asserts the invariants the rest of the PR relies on — the model
// never breaks Validate, the solve is deterministic across jobs, and the
// models are monotone (unsound ⊆ blanket ⊆ escape on original symbols).
func FuzzExterns(f *testing.F) {
	f.Add("extern int *p; int *q; void f(void) { q = p; }")
	f.Add("extern char *dup(char *s); char *c; void g(void) { c = dup(c); }")
	f.Add("extern void (*cb)(int *); int x; void h(void) { cb(&x); }")
	f.Add("extern int **t; int peek(void) { return **t; }")
	f.Add("extern void reg(void *p); void s(void) { int v; reg(&v); }")
	f.Add("int a; int *b = &a;")

	f.Fuzz(func(t *testing.T, src string) {
		unit, err := frontend.CompileSource("fuzz.c", src, nil, frontend.Options{})
		if err != nil {
			t.Skip()
		}
		base, err := linker.Link([]*prim.Program{unit})
		if err != nil || base.Validate() != nil {
			t.Skip()
		}
		orig := len(base.Syms)

		var prev []int // per-symbol pts sizes from the previous (weaker) model
		for _, m := range extmodel.Models() {
			p, _ := extmodel.ApplyClone(base, m)
			if err := p.Validate(); err != nil {
				t.Fatalf("%v: model output fails Validate: %v", m, err)
			}
			res, err := driver.Analyze(context.Background(), pts.NewMemSource(p), driver.PreTransitive, core.DefaultConfig(), nil)
			if err != nil {
				t.Fatalf("%v: solve: %v", m, err)
			}
			cfg := core.DefaultConfig()
			cfg.Jobs = 8
			par, err := driver.Analyze(context.Background(), pts.NewMemSource(p), driver.PreTransitive, cfg, nil)
			if err != nil {
				t.Fatalf("%v: parallel solve: %v", m, err)
			}

			sizes := make([]int, orig)
			for i := 0; i < orig; i++ {
				seq := res.PointsTo(prim.SymID(i))
				if got := par.PointsTo(prim.SymID(i)); len(got) != len(seq) {
					t.Fatalf("%v: pts(%s) differs between jobs 1 and 8", m, p.Sym(prim.SymID(i)).Name)
				}
				sizes[i] = len(seq)
			}
			if prev != nil {
				for i := 0; i < orig; i++ {
					if sizes[i] < prev[i] {
						t.Fatalf("%v: pts(%s) shrank versus the weaker model", m, p.Sym(prim.SymID(i)).Name)
					}
				}
			}
			prev = sizes
		}
	})
}
