package bench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cla/internal/checks"
	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/prim"
	"cla/internal/pts"
)

// solveOutcome captures everything a consumer can observe from one
// solve: the points-to sets of every symbol, the rendered checks report
// and the call-graph shape derived from it.
type solveOutcome struct {
	sets   [][]prim.SymID
	report string
	funcs  int
	sites  int
}

func solveAt(t *testing.T, w *Workload, solver driver.Solver, jobs int) solveOutcome {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(w.FieldBased), solver, cfg, nil)
	if err != nil {
		t.Fatalf("%s -j%d: %v", solver, jobs, err)
	}
	out := solveOutcome{sets: make([][]prim.SymID, len(w.FieldBased.Syms))}
	for i := range out.sets {
		out.sets[i] = res.PointsTo(prim.SymID(i))
	}
	rep, err := checks.Run(w.FieldBased, res, checks.Options{Jobs: jobs})
	if err != nil {
		t.Fatalf("checks %s -j%d: %v", solver, jobs, err)
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	out.report = buf.String()
	out.funcs = len(rep.Graph.Funcs)
	out.sites = len(rep.Graph.Sites)
	return out
}

// TestWaveDeterminismAllWorkloads pins the acceptance bar of the wave
// fixpoint across every Table 2 workload: for both wave-capable solvers,
// the points-to sets, the call graph and the rendered checks report must
// be identical at -j 1 (sequential reference), -j 2 and -j 8.
func TestWaveDeterminismAllWorkloads(t *testing.T) {
	ws, err := BuildAll(0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for _, solver := range SolveSolvers {
			want := solveAt(t, w, solver, 1)
			for _, jobs := range []int{2, 8} {
				got := solveAt(t, w, solver, jobs)
				if !reflect.DeepEqual(want.sets, got.sets) {
					t.Errorf("%s/%s: points-to sets differ at -j%d vs -j1",
						w.Profile.Name, solver, jobs)
				}
				if want.funcs != got.funcs || want.sites != got.sites {
					t.Errorf("%s/%s: call graph differs at -j%d (funcs %d/%d sites %d/%d)",
						w.Profile.Name, solver, jobs,
						want.funcs, got.funcs, want.sites, got.sites)
				}
				if want.report != got.report {
					t.Errorf("%s/%s: checks report differs at -j%d vs -j1",
						w.Profile.Name, solver, jobs)
				}
			}
		}
	}
}

func TestRunSolveSweep(t *testing.T) {
	w := smallWorkload(t, "burlap")
	rows, err := RunSolve(w, []int{1, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SolveSolvers)*3 {
		t.Fatalf("rows = %d, want %d", len(rows), len(SolveSolvers)*3)
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s/%s -j%d not identical", r.Name, r.Solver, r.Jobs)
		}
		if r.Relations == 0 {
			t.Errorf("%s/%s -j%d: no relations", r.Name, r.Solver, r.Jobs)
		}
		if r.Jobs == 1 {
			if r.Waves != 0 {
				t.Errorf("%s/%s -j1 took the wave path: %+v", r.Name, r.Solver, r)
			}
		} else if r.Waves == 0 {
			t.Errorf("%s/%s -j%d missed the wave path: %+v", r.Name, r.Solver, r.Jobs, r)
		}
	}
	var buf bytes.Buffer
	FormatSolve(&buf, rows)
	out := buf.String()
	for _, want := range []string{"waves", "scc rounds", "identical", "burlap"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
	path := filepath.Join(t.TempDir(), "BENCH_solve.json")
	if err := WriteSolveJSON(path, rows, NewMeta("parallel-solve", 8, 0.03, 1)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"parallel-solve\"", "\"waves\"", "\"delta_merge_bytes\"", "\"speedup\""} {
		if !strings.Contains(string(data), want) {
			t.Errorf("json missing %s", want)
		}
	}
}
