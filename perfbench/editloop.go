package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cla"
)

// pollsPerEdit is the number of no-op Refresh polls after each edit, as a
// watch loop would issue between saves.
const pollsPerEdit = 2

// addLine is the edit appended to a unit: a fresh global and a pointer to
// it, so the expected answer is known without a solver.
func addLine(cycle int) (g, p, line string) {
	g, p = fmt.Sprintf("zbench_g%d", cycle), fmt.Sprintf("zbench_p%d", cycle)
	return g, p, fmt.Sprintf("int %s; int *%s = &%s;\n", g, p, g)
}

// editLoop measures edit → fresh answer on one open workspace. Each cycle
// edits the next unit of a seeded round-robin order (add), restores it (revert), and polls
// with no-op refreshes after each; the tree is the original one after
// every cycle, so the program does not grow over the run.
func editLoop(e *env, r *report) error {
	ctx := context.Background()
	t, err := writeTree(filepath.Join(e.work, "tree"), coldScale, e.treeSeed)
	if err != nil {
		return err
	}
	opts := &cla.WorkspaceOptions{Jobs: jobs}
	pm := &pathMetrics{
		answer: &samples{name: "edit_add_p50_ms"},
		alt:    &samples{name: "edit_revert_p50_ms"},
		light:  &samples{name: "noop_refresh_p50_ms"},
	}
	var ws *cla.Workspace
	var base uint64
	for i := 0; i < setupReps; i++ {
		ws = nil
		base = heapAlloc()
		d := timed(func() { ws, err = cla.OpenWorkspace(ctx, t.dir, opts) })
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		pm.setup = append(pm.setup, d.Seconds())
	}

	poll := func() {
		cur := ws.Analysis()
		var a *cla.Analysis
		var err error
		runtime.GC()
		pm.light.add(timed(func() { a, err = ws.Refresh(ctx) }))
		if err == nil && a != cur {
			err = fmt.Errorf("no-op refresh produced generation %d after %d", a.Generation(), cur.Generation())
		}
		r.op(err)
	}
	// edit writes content to path and times Update plus the pointsto
	// query for p.
	edit := func(s *samples, path string, content []byte, p string) (cla.QueryResult, error) {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			return cla.QueryResult{}, err
		}
		gen := ws.Generation()
		runtime.GC()
		var res []cla.QueryResult
		var err error
		s.add(timed(func() {
			var a *cla.Analysis
			if a, err = ws.Update(ctx, path); err == nil {
				res, err = a.Query(ctx, []cla.Query{{Kind: "pointsto", Name: p}})
			}
		}))
		if err != nil {
			return cla.QueryResult{}, err
		}
		if ws.Generation() != gen+1 {
			return res[0], fmt.Errorf("edit of %s: generation %d after %d", path, ws.Generation(), gen)
		}
		return res[0], nil
	}

	order := rand.New(rand.NewSource(e.seed)).Perm(len(t.units))
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for c := 0; c < 2 || time.Now().Before(deadline); c++ {
		path := t.units[order[c%len(order)]]
		g, p, line := addLine(c)
		res, err := edit(pm.answer, path, append(append([]byte(nil), t.orig[path]...), line...), p)
		if err == nil && (res.Err != nil || len(res.Objects) != 1 || res.Objects[0].Name != g) {
			err = fmt.Errorf("after adding %q to %s: pointsto %s = %+v, want {%s}", line, path, p, res, g)
		}
		r.op(err)
		for k := 0; k < pollsPerEdit; k++ {
			poll()
		}

		res, err = edit(pm.alt, path, t.orig[path], p)
		if err == nil && (res.Err == nil || res.Err.Status != 404) {
			err = fmt.Errorf("after reverting %s: pointsto %s = %+v, want not found", path, p, res)
		}
		r.op(err)
		for k := 0; k < pollsPerEdit; k++ {
			poll()
		}
	}
	if live := heapAlloc(); live > base {
		pm.liveHeap = live - base
	}
	final := ws.Analysis()

	// The last generation must equal a from-scratch open of the same tree.
	scratch, err := cla.OpenWorkspace(ctx, t.dir, opts)
	if err != nil {
		return err
	}
	n1, d1 := relationDigest(final)
	n2, d2 := relationDigest(scratch.Analysis())
	if n1 != n2 || d1 != d2 {
		r.fail(fmt.Errorf("generation %d relation (%d pairs, digest %x) differs from a scratch open (%d pairs, digest %x)",
			final.Generation(), n1, d1, n2, d2))
	}
	fmt.Printf("detail final generation %d: %d points-to pairs, equal to a scratch open: %v\n",
		final.Generation(), n1, n1 == n2 && d1 == d2)

	busy := (pm.answer.sum() + pm.alt.sum()) / 1000
	pm.opsPerS = float64(len(pm.answer.d)+len(pm.alt.d)) / busy
	if pm.peakRSS, err = vmHWM(0); err != nil {
		return err
	}
	pm.answer.describe(1, "ms")
	pm.alt.describe(1, "ms")
	pm.light.describe(1, "ms")
	pm.publish(r)
	return nil
}
