package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/obs"
	"cla/internal/pts"
)

// RowSolve records one (workload, solver, jobs) solve measurement for the
// phase-parallel wave fixpoint: wall clock, wave-schedule counters and
// the heap high-water mark, with the -j 1 sequential reference of the
// same workload and solver as the speedup baseline. Identical must
// always be true — the wave schedule is required to reproduce the
// sequential points-to sets byte for byte at every -j.
type RowSolve struct {
	Name   string `json:"name"`
	Solver string `json:"solver"`
	Jobs   int    `json:"jobs"`

	Time    time.Duration `json:"time_ns"`
	Speedup float64       `json:"speedup"`

	// Wave-schedule counters (zero on the -j 1 sequential path).
	Waves           int   `json:"waves"`
	SCCRounds       int   `json:"scc_rounds"`
	WaveWidth       int   `json:"wave_width"`
	DeltaMergeBytes int64 `json:"delta_merge_bytes"`

	// PeakHeap is the heap high-water mark sampled during the solve.
	PeakHeap int64 `json:"peak_heap_bytes"`

	Relations int  `json:"relations"`
	Identical bool `json:"identical"`
}

// SolveJobs is the fixed -j sweep of the wave-fixpoint table.
var SolveJobs = []int{1, 2, 4, 8}

// SolveSolvers are the two solvers with a wave fixpoint.
var SolveSolvers = []driver.Solver{driver.PreTransitive, driver.Worklist}

// measureWave runs one solver at one -j and reports the row (without
// Speedup/Identical, which need the -j 1 reference) plus the points-to
// digest used for the identity check.
func measureWave(w *Workload, solver driver.Solver, jobs int) (RowSolve, uint64, error) {
	src := pts.NewMemSource(w.FieldBased)
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs

	runtime.GC()
	g := new(obs.Gauge)
	stopHeap := obs.WatchHeap(g, 0)
	start := time.Now()
	res, err := driver.Analyze(context.Background(), src, solver, cfg, nil)
	elapsed := time.Since(start)
	stopHeap()
	if err != nil {
		return RowSolve{}, 0, err
	}
	m := res.Metrics()
	row := RowSolve{
		Name: w.Profile.Name, Solver: solver.String(), Jobs: jobs,
		Time:            elapsed,
		Waves:           m.Waves,
		SCCRounds:       m.SCCRounds,
		WaveWidth:       m.WaveWidth,
		DeltaMergeBytes: m.DeltaMergeBytes,
		PeakHeap:        g.Value(),
		Relations:       m.Relations,
	}
	return row, setsDigest(len(w.FieldBased.Syms), res), nil
}

// RunSolve sweeps one workload over SolveSolvers × jobsList, verifying
// every run reproduces the -j 1 points-to sets.
func RunSolve(w *Workload, jobsList []int) ([]RowSolve, error) {
	if len(jobsList) == 0 {
		jobsList = SolveJobs
	}
	var out []RowSolve
	for _, solver := range SolveSolvers {
		var baseTime time.Duration
		var baseDigest uint64
		var baseRel int
		for i, jobs := range jobsList {
			row, digest, err := measureWave(w, solver, jobs)
			if err != nil {
				return nil, fmt.Errorf("%s/%s -j%d: %w", w.Profile.Name, solver, jobs, err)
			}
			if i == 0 {
				baseTime, baseDigest, baseRel = row.Time, digest, row.Relations
			}
			row.Identical = digest == baseDigest && row.Relations == baseRel
			if !row.Identical {
				return nil, fmt.Errorf("%s/%s: -j%d result differs from -j%d",
					w.Profile.Name, solver, jobs, jobsList[0])
			}
			if row.Time > 0 {
				row.Speedup = float64(baseTime) / float64(row.Time)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// RunSolveAll sweeps every workload.
func RunSolveAll(ws []*Workload, jobsList []int) ([]RowSolve, error) {
	var out []RowSolve
	for _, w := range ws {
		rows, err := RunSolve(w, jobsList)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// FormatSolve renders the wave-fixpoint sweep.
func FormatSolve(wr io.Writer, rows []RowSolve) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tsolver\tjobs\ttime\tspeedup\twaves\tscc rounds\twave width\tmerged\tpeak heap\tidentical")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.2fx\t%d\t%d\t%d\t%s\t%s\t%v\n",
			r.Name, r.Solver, r.Jobs, fmtDur(r.Time), r.Speedup,
			r.Waves, r.SCCRounds, r.WaveWidth,
			fmtBytes(int(r.DeltaMergeBytes)), fmtBytes(int(r.PeakHeap)),
			r.Identical)
	}
	tw.Flush()
}

// WriteSolveJSON records the rows under the shared Meta header so runs
// are comparable across hosts and revisions.
func WriteSolveJSON(path string, rows []RowSolve, meta Meta) error {
	meta.Table = "parallel-solve"
	return writeBenchJSON(path, meta, rows)
}
