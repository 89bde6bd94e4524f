package worklist

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"cla/internal/claerr"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/linker"
	"cla/internal/prim"
	"cla/internal/pts"
)

// waveSnippets are small programs covering every rule the wave scheduler
// defers: simple edges, loads, stores, copy-indirection temps, cycles
// and function-pointer linking.
var waveSnippets = []string{
	"int a, b, *x, *y; void m(void) { x = &a; y = x; x = &b; }",
	"int v, *a, *b, **pp;\nvoid m(void) { pp = &a; *pp = &v; b = *pp; }",
	"int v, *a, *b, **p, **q;\nvoid m(void) { p = &a; q = &b; a = &v; *q = *p; }",
	`int obj;
int *id(int *a) { return a; }
int *(*fp)(int *);
int *res;
void m(void) { fp = id; res = fp(&obj); }`,
	`int v, *a, *b, *c;
void m(void) { a = b; b = c; c = a; b = &v; }`,
	`int o1, o2, *x, *y, **p, **q, **r;
void m(void) { p = &x; q = &y; r = p; r = q; *r = &o1; x = &o2; y = *p; }`,
}

// buildGenProgram compiles and links a scaled Table 2 workload without
// going through internal/incr (whose solver dispatch imports this
// package back).
func buildGenProgram(t *testing.T, name string, scale float64) *prim.Program {
	t.Helper()
	p, ok := gen.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	code := gen.Generate(p.Scale(scale), 1)
	loader := code.Loader()
	var units []*prim.Program
	for _, u := range code.Units() {
		prog, err := frontend.CompileSource(u, code.Files[u], loader, frontend.Options{})
		if err != nil {
			t.Fatalf("compile %s: %v", u, err)
		}
		units = append(units, prog)
	}
	prog, err := linker.Link(units)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// comparePts asserts byte-identical points-to sets for every symbol.
func comparePts(t *testing.T, prog *prim.Program, want, got *Result, label string) {
	t.Helper()
	bad := 0
	for i := range prog.Syms {
		id := prim.SymID(i)
		w, g := want.PointsTo(id), got.PointsTo(id)
		if len(w) != len(g) {
			t.Errorf("%s: pts(%s): len %d != %d", label, prog.Syms[i].Name, len(g), len(w))
			if bad++; bad > 5 {
				t.FailNow()
			}
			continue
		}
		for k := range w {
			if w[k] != g[k] {
				t.Errorf("%s: pts(%s)[%d] = %v, want %v", label, prog.Syms[i].Name, k, g[k], w[k])
				if bad++; bad > 5 {
					t.FailNow()
				}
				break
			}
		}
	}
}

func TestWaveMatchesSequentialSnippets(t *testing.T) {
	for si, src := range waveSnippets {
		prog, err := frontend.CompileSource("t.c", src, nil, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Solve(pts.NewMemSource(prog))
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []int{2, 3, 8} {
			wave, err := SolveJobs(pts.NewMemSource(prog), jobs)
			if err != nil {
				t.Fatal(err)
			}
			comparePts(t, prog, seq, wave, fmt.Sprintf("snippet %d -j %d", si, jobs))
		}
	}
}

func TestWaveMatchesSequentialGenerated(t *testing.T) {
	prog := buildGenProgram(t, "povray", 0.05)
	src := pts.NewMemSource(prog)
	seq, err := Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8} {
		wave, err := SolveJobs(pts.NewMemSource(prog), jobs)
		if err != nil {
			t.Fatal(err)
		}
		comparePts(t, prog, seq, wave, fmt.Sprintf("povray -j %d", jobs))
		wm := wave.Metrics()
		if wm.Waves == 0 || wm.SCCRounds == 0 || wm.WaveWidth == 0 {
			t.Errorf("-j %d wave metrics not populated: %+v", jobs, wm)
		}
		sm := seq.Metrics()
		if wm.PointerVars != sm.PointerVars || wm.Relations != sm.Relations {
			t.Errorf("-j %d relations %d/%d, want %d/%d",
				jobs, wm.PointerVars, wm.Relations, sm.PointerVars, sm.Relations)
		}
	}
}

// TestWaveDeterministicMetrics pins the schedule itself: the wave
// counters (waves, SCC rounds, width, merge bytes, edges) must not
// depend on the worker count, only the worker count 1 vs >= 2 path
// selection matters.
func TestWaveDeterministicMetrics(t *testing.T) {
	prog := buildGenProgram(t, "burlap", 0.1)
	var base pts.Metrics
	for i, jobs := range []int{2, 4, 8} {
		r, err := SolveJobs(pts.NewMemSource(prog), jobs)
		if err != nil {
			t.Fatal(err)
		}
		m := r.Metrics()
		if i == 0 {
			base = m
			continue
		}
		if m != base {
			t.Errorf("-j %d metrics differ from -j 2:\n%+v\n%+v", jobs, m, base)
		}
	}
}

// TestWaveRace exercises the parallel path under the race detector (the
// Makefile runs this package with -race as a tier-1 extra).
func TestWaveRace(t *testing.T) {
	prog := buildGenProgram(t, "vortex", 0.05)
	if _, err := SolveJobs(pts.NewMemSource(prog), 8); err != nil {
		t.Fatal(err)
	}
}

// countdownCtx reports cancellation after a fixed number of Err checks,
// making mid-wave cancellation deterministic.
type countdownCtx struct {
	context.Context
	checks atomic.Int64
	after  int64
}

func (c *countdownCtx) Err() error {
	if c.checks.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestWaveMidSolveCancellation(t *testing.T) {
	prog := buildGenProgram(t, "burlap", 0.1)
	// Let the solve get past setup, then cancel mid-wave. The solver
	// checks per wave and per few hundred rule applications, so the
	// cancellation must surface within a bounded number of checks.
	ctx := &countdownCtx{Context: context.Background(), after: 20}
	_, err := SolveJobsCtx(ctx, pts.NewMemSource(prog), 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checked := ctx.checks.Load()
	if checked > 20+256 {
		t.Errorf("cancellation surfaced after %d further checks", checked-20)
	}
	if got := claerr.HTTPStatus(claerr.New(claerr.PhaseAnalyze, err)); got != 499 {
		t.Errorf("HTTPStatus = %d, want 499", got)
	}
}

// TestWaveCancelDuringSequentialRules covers the tightened sequential
// path too: a huge delta must not starve the per-application check.
func TestWaveCancelDuringSequentialRules(t *testing.T) {
	prog := buildGenProgram(t, "burlap", 0.1)
	ctx := &countdownCtx{Context: context.Background(), after: 3}
	_, err := SolveCtx(ctx, pts.NewMemSource(prog))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
