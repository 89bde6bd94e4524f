package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"cla/internal/checks"
	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/pts"
)

// RowChecks records the analysis-client layer's cost and yield on one
// workload: how long the checks take on top of an already-solved
// analysis, and what they find. The paper's pitch is that aliasing this
// cheap becomes a platform; this table measures the platform's first
// clients.
type RowChecks struct {
	Name string `json:"name"`
	// Funcs is the number of functions in the call graph.
	Funcs int `json:"funcs"`
	// Sites and Indirect count call sites; Resolved counts indirect
	// sites with a non-empty callee set.
	Sites    int `json:"sites"`
	Indirect int `json:"indirect"`
	Resolved int `json:"resolved"`
	// Diagnostics per check.
	Unresolved int `json:"unresolved"`
	Escapes    int `json:"escapes"`
	Derefs     int `json:"derefs"`
	// SolveTime is the points-to solve; CheckTime is all four checks.
	SolveTime time.Duration `json:"solve_ns"`
	CheckTime time.Duration `json:"check_ns"`
}

// RunChecks solves one workload's field-based database and times the
// full check suite over the result.
func RunChecks(w *Workload, jobs int) (RowChecks, error) {
	row := RowChecks{Name: w.Profile.Name}

	cfg := core.DefaultConfig()
	cfg.Jobs = jobs
	start := time.Now()
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(w.FieldBased), driver.PreTransitive, cfg, nil)
	if err != nil {
		return row, fmt.Errorf("%s: %w", w.Profile.Name, err)
	}
	row.SolveTime = time.Since(start)

	start = time.Now()
	rep, err := checks.Run(w.FieldBased, res, checks.Options{Jobs: jobs})
	if err != nil {
		return row, fmt.Errorf("%s: %w", w.Profile.Name, err)
	}
	row.CheckTime = time.Since(start)

	row.Funcs = len(rep.Graph.Funcs)
	row.Sites = len(rep.Graph.Sites)
	for _, s := range rep.Graph.Sites {
		if s.Indirect {
			row.Indirect++
			if len(s.Callees) > 0 {
				row.Resolved++
			}
		}
	}
	counts := rep.CountByCheck()
	row.Unresolved = counts[checks.CallGraph]
	row.Escapes = counts[checks.Escape]
	row.Derefs = counts[checks.Deref]
	return row, nil
}

// RunChecksAll measures the check suite over every workload.
func RunChecksAll(ws []*Workload, jobs int) ([]RowChecks, error) {
	var out []RowChecks
	for _, w := range ws {
		r, err := RunChecks(w, jobs)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatChecks renders the analysis-client table.
func FormatChecks(wr io.Writer, rows []RowChecks) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tfuncs\tsites\tindirect\tresolved\tunresolved\tescapes\tderefs\tsolve\tchecks")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			r.Name, r.Funcs, r.Sites, r.Indirect, r.Resolved,
			r.Unresolved, r.Escapes, r.Derefs,
			fmtDur(r.SolveTime), fmtDur(r.CheckTime))
	}
	tw.Flush()
}

// WriteChecksJSON records the rows under the shared Meta header so runs
// are comparable across hosts and revisions.
func WriteChecksJSON(path string, rows []RowChecks, meta Meta) error {
	meta.Table = "analysis-clients"
	return writeBenchJSON(path, meta, rows)
}
