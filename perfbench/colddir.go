package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cla"
)

// Operations per cold open: a snapshot open is about ten times cheaper,
// and an in-process query about ten thousand times, so these even out
// the sample counts.
const (
	snapReps   = 3
	inprocReps = 10
)

// coldDir measures source directory → first answer. Each iteration opens
// the tree cold (no cache directory) and answers one pointsto query, then
// answers every probe on the opened analysis, then opens the snapshot of
// the same tree and answers the first query again.
func coldDir(e *env, r *report) error {
	ctx := context.Background()
	t, err := writeTree(filepath.Join(e.work, "tree"), coldScale, e.treeSeed)
	if err != nil {
		return err
	}
	opts := &cla.WorkspaceOptions{Jobs: jobs}
	snap := filepath.Join(e.work, "tree.snap")

	pm := &pathMetrics{
		answer: &samples{name: "cold_open_p50_s"},
		alt:    &samples{name: "snap_open_p50_ms"},
		light:  &samples{name: "inproc_pointsto_us"},
	}
	// Set-up builds the snapshot: a full open, then SaveSnapshot with the
	// absolute source paths.
	var ws *cla.Workspace
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d := timed(func() {
			if ws, err = cla.OpenWorkspace(ctx, t.dir, opts); err == nil {
				err = ws.Analysis().SaveSnapshot(snap, &cla.SnapshotOptions{Sources: t.files})
			}
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		pm.setup = append(pm.setup, d.Seconds())
	}
	ref, err := newReference(ws.Analysis().Database(), e.seed)
	if err != nil {
		return err
	}
	ws = nil

	var lives []float64
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		probe := ref.probes[i%len(ref.probes)]
		q := []cla.Query{{Kind: "pointsto", Name: probe}}

		base := heapAlloc()
		var a *cla.Analysis
		var res []cla.QueryResult
		d := timed(func() {
			var w *cla.Workspace
			if w, err = cla.OpenWorkspace(ctx, t.dir, opts); err != nil {
				return
			}
			a = w.Analysis()
			res, err = a.Query(ctx, q)
		})
		pm.answer.add(d)
		if err == nil {
			err = ref.checkAnswer(probe, res[0])
		}
		r.op(err)
		if a != nil {
			lives = append(lives, float64(heapAlloc())-float64(base))
			if err := ref.answerProbes(ctx, a, pm.light, inprocReps); err != nil {
				r.fail(fmt.Errorf("cold open: %w", err))
			}
		}

		for k := 0; k < snapReps; k++ {
			runtime.GC()
			var sa *cla.Analysis
			d := timed(func() {
				if sa, err = cla.OpenSnapshot(snap, nil); err == nil {
					res, err = sa.Query(ctx, q)
				}
			})
			pm.alt.add(d)
			if err == nil {
				err = ref.checkAnswer(probe, res[0])
			}
			r.op(err)
			if sa != nil {
				if k == 0 {
					if err := ref.answerProbes(ctx, sa, nil, 1); err != nil {
						r.fail(fmt.Errorf("snapshot: %w", err))
					}
				}
				sa.Close()
			}
		}
	}

	pm.opsPerS = float64(len(pm.answer.d)) / (pm.answer.sum() / 1000)
	pm.liveHeap = uint64(median(lives))
	if pm.peakRSS, err = vmHWM(0); err != nil {
		return err
	}
	pm.answer.describe(1.0/1000, "s")
	pm.alt.describe(1, "ms")
	pm.light.describe(1000, "us")
	fmt.Printf("detail tree lines=%d units=%d\n", t.lines, len(t.units))
	pm.publish(r)
	return nil
}
