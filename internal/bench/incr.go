package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"cla/internal/core"
	"cla/internal/incr"
)

// RowIncr records one path through the incremental pipeline on a
// workload: the cold open (full parse+link+solve), the warm refreshes
// an editing session actually pays (no-op probe, a touched file, a
// one-unit edit), and a store-served reopen. The refresh_ns column is
// the watch-mode loop latency; speedup_vs_cold is the incremental
// pitch — how much of the cold pipeline an edit avoids re-running.
type RowIncr struct {
	Name string `json:"name"`
	// Mode is "cold-open", "warm-noop", "warm-touch", "warm-edit" or
	// "reopen-cached".
	Mode string `json:"mode"`
	Jobs int    `json:"jobs"`
	// Units is the workload's translation-unit count; Recompiled is how
	// many this mode re-parsed (the incremental claim is that it tracks
	// the edit, not the tree).
	Units      int `json:"units"`
	Recompiled int `json:"recompiled"`
	// Refresh is the wall time of the whole generation build.
	Refresh time.Duration `json:"refresh_ns"`
	// SolveReused marks refreshes that proved the fixpoint unchanged
	// instead of re-solving.
	SolveReused bool `json:"solve_reused,omitempty"`
	// Speedup is cold-open refresh / this row's refresh; informational.
	Speedup float64 `json:"speedup_vs_cold,omitempty"`
}

// RunIncr measures the incremental pipeline on one workload. The
// generated tree is written to disk (the pipeline works on real files,
// like watch mode does), opened cold, then refreshed through the three
// warm paths, and finally reopened in a fresh session served from the
// on-disk unit store.
func RunIncr(w *Workload, jobs int) ([]RowIncr, error) {
	dir, err := os.MkdirTemp("", "clabench-incr-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for name, content := range w.Code.Files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return nil, err
		}
	}
	ccfg := core.DefaultConfig()
	ccfg.Jobs = jobs
	cfg := incr.Config{
		Dir:      dir,
		Core:     ccfg,
		Jobs:     jobs,
		CacheDir: filepath.Join(dir, ".clacache"),
	}
	ctx := context.Background()

	mkRow := func(mode string, st incr.RefreshStats, d time.Duration) RowIncr {
		return RowIncr{
			Name: w.Profile.Name, Mode: mode, Jobs: jobs,
			Units: st.Units, Recompiled: st.Recompiled,
			Refresh: d, SolveReused: st.SolveReused,
		}
	}

	// Cold open: every unit parses, the full tree links, the fixpoint
	// solves from nothing — what a non-incremental CompileDir+Analyze
	// pays on every run.
	start := time.Now()
	p, err := incr.Open(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s cold open: %w", w.Profile.Name, err)
	}
	cold := mkRow("cold-open", p.Current().Stats, time.Since(start))
	out := []RowIncr{cold}

	speedup := func(r RowIncr) RowIncr {
		if r.Refresh > 0 {
			r.Speedup = float64(cold.Refresh) / float64(r.Refresh)
		}
		return r
	}

	// Warm no-op: the steady-state watch poll — hash checks only.
	start = time.Now()
	_, st, err := p.Refresh(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s warm-noop: %w", w.Profile.Name, err)
	}
	out = append(out, speedup(mkRow("warm-noop", st, time.Since(start))))

	// Warm touch: one file's mtime moves but its content hash does not
	// (a save with no change); the refresh must stop at the hash.
	unit := filepath.Join(dir, w.Code.Units()[0])
	content, err := os.ReadFile(unit)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(unit, content, 0o644); err != nil {
		return nil, err
	}
	start = time.Now()
	if _, st, err = p.Update(ctx, unit); err != nil {
		return nil, fmt.Errorf("%s warm-touch: %w", w.Profile.Name, err)
	}
	out = append(out, speedup(mkRow("warm-touch", st, time.Since(start))))

	// Warm edit: one unit gains a new points-to fact. Exactly that unit
	// recompiles, the units relink, and the changed database
	// re-solves — the full edit-to-answer latency of watch mode.
	edited := append(content, []byte("\nint clabench_incr_g;\nint *clabench_incr_p = &clabench_incr_g;\n")...)
	if err := os.WriteFile(unit, edited, 0o644); err != nil {
		return nil, err
	}
	start = time.Now()
	if _, st, err = p.Update(ctx, unit); err != nil {
		return nil, fmt.Errorf("%s warm-edit: %w", w.Profile.Name, err)
	}
	editRow := speedup(mkRow("warm-edit", st, time.Since(start)))
	if st.Recompiled != 1 {
		return nil, fmt.Errorf("%s warm-edit recompiled %d units, want 1", w.Profile.Name, st.Recompiled)
	}
	out = append(out, editRow)

	// Reopen from the unit store: a fresh session (editor restart, CI
	// worker) finds every compiled unit on disk and skips the parse
	// entirely — it still links and solves.
	start = time.Now()
	p2, err := incr.Open(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s reopen-cached: %w", w.Profile.Name, err)
	}
	reopen := mkRow("reopen-cached", p2.Current().Stats, time.Since(start))
	if reopen.Recompiled != 0 {
		return nil, fmt.Errorf("%s reopen-cached recompiled %d units, want 0 (store miss)",
			w.Profile.Name, reopen.Recompiled)
	}
	out = append(out, speedup(reopen))
	return out, nil
}

// FormatIncr renders the incremental-refresh table.
func FormatIncr(wr io.Writer, rows []RowIncr) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmode\tjobs\tunits\trecompiled\trefresh\tsolve\tspeedup")
	for _, r := range rows {
		solve := "solved"
		if r.SolveReused {
			solve = "reused"
		}
		speed := "-"
		if r.Speedup > 0 {
			speed = fmt.Sprintf("%.1fx", r.Speedup)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\t%s\t%s\n",
			r.Name, r.Mode, r.Jobs, r.Units, r.Recompiled, fmtDur(r.Refresh), solve, speed)
	}
	tw.Flush()
}

// WriteIncrJSON records the rows under the shared Meta header.
func WriteIncrJSON(path string, rows []RowIncr, meta Meta) error {
	meta.Table = "incremental-refresh"
	return writeBenchJSON(path, meta, rows)
}
