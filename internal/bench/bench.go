// Package bench regenerates the paper's evaluation tables on the
// synthetic Table 2 workloads: benchmark characteristics (Table 2),
// points-to analysis results with demand-loading statistics (Table 3), the
// field-based vs field-independent comparison (Table 4), the Section 5
// caching/cycle-elimination ablation, and a three-solver comparison
// corresponding to the Section 6 related-work discussion.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/incr"
	"cla/internal/linker"
	"cla/internal/objfile"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/xform"
)

// Workload is one generated-and-compiled benchmark, reusable across
// tables.
type Workload struct {
	Profile gen.Profile
	Code    *gen.Code
	// FieldBased and FieldIndependent are the linked databases under the
	// two struct modes.
	FieldBased       *prim.Program
	FieldIndependent *prim.Program
	// ObjectBytes is the serialized size of the field-based database.
	ObjectBytes int
	CompileTime time.Duration
}

// compileUnits compiles units through the one compile path and links
// them (jobs <= 0 means GOMAXPROCS); the output is identical at any jobs.
func compileUnits(units []string, loader cpp.Loader, opts frontend.Options, jobs int) (*prim.Program, error) {
	progs, err := incr.Compile(context.Background(), incr.Config{Frontend: opts, Jobs: jobs}, units, loader)
	if err != nil {
		return nil, err
	}
	return linker.Link(progs)
}

// BuildWorkload generates and compiles one profile at the given scale.
func BuildWorkload(p gen.Profile, scale float64, seed int64) (*Workload, error) {
	sp := p.Scale(scale)
	code := gen.Generate(sp, seed)
	start := time.Now()
	fb, err := compileUnits(code.Units(), code.Loader(), frontend.Options{Mode: frontend.FieldBased}, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	compileTime := time.Since(start)
	fi, err := compileUnits(code.Units(), code.Loader(), frontend.Options{Mode: frontend.FieldIndependent}, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	var buf bytes.Buffer
	if err := objfile.Write(&buf, fb); err != nil {
		return nil, err
	}
	return &Workload{
		Profile:          sp,
		Code:             code,
		FieldBased:       fb,
		FieldIndependent: fi,
		ObjectBytes:      buf.Len(),
		CompileTime:      compileTime,
	}, nil
}

// BuildAll builds every Table 2 workload.
func BuildAll(scale float64, seed int64) ([]*Workload, error) {
	var out []*Workload
	for _, p := range gen.Table2 {
		w, err := BuildWorkload(p, scale, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// ---------- Table 2 ----------

// Row2 is one Table 2 row: benchmark characteristics.
type Row2 struct {
	Name        string
	SourceLines int
	ObjectBytes int
	Variables   int
	Counts      [prim.NumKinds]int
}

// Table2Row measures one workload.
func Table2Row(w *Workload) Row2 {
	st := pts.NewMemSource(w.FieldBased)
	vars := 0
	for i := 0; i < st.NumSyms(); i++ {
		if pts.CountedAsPointerVar(st.Sym(prim.SymID(i)).Kind) {
			vars++
		}
	}
	return Row2{
		Name:        w.Profile.Name,
		SourceLines: w.Code.TotalLines(),
		ObjectBytes: w.ObjectBytes,
		Variables:   vars,
		Counts:      w.FieldBased.CountByKind(),
	}
}

// FormatTable2 renders rows in the paper's Table 2 layout.
func FormatTable2(wr io.Writer, rows []Row2) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tLOC\tobject\tvariables\tx=y\tx=&y\t*x=y\t*x=*y\tx=*y")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Name, r.SourceLines, fmtBytes(r.ObjectBytes), r.Variables,
			r.Counts[prim.Simple], r.Counts[prim.Base],
			r.Counts[prim.StoreInd], r.Counts[prim.CopyInd],
			r.Counts[prim.LoadInd])
	}
	tw.Flush()
}

// ---------- Table 3 ----------

// Row3 is one Table 3 row: points-to results with CLA accounting.
type Row3 struct {
	Name        string
	PointerVars int
	Relations   int
	Time        time.Duration
	SpaceMB     float64
	InCore      int
	Loaded      int
	InFile      int
}

// Table3Row runs the default (field-based, pre-transitive, demand-loaded)
// analysis on a workload.
func Table3Row(w *Workload) (Row3, error) {
	src := pts.NewMemSource(w.FieldBased)
	before := heapMB()
	start := time.Now()
	res, err := core.Solve(src, core.DefaultConfig())
	if err != nil {
		return Row3{}, err
	}
	elapsed := time.Since(start)
	after := heapMB()
	m := res.Metrics()
	return Row3{
		Name:        w.Profile.Name,
		PointerVars: m.PointerVars,
		Relations:   m.Relations,
		Time:        elapsed,
		SpaceMB:     after - before,
		InCore:      m.InCore,
		Loaded:      m.Loaded,
		InFile:      m.InFile,
	}, nil
}

// FormatTable3 renders rows in the paper's Table 3 layout.
func FormatTable3(wr io.Writer, rows []Row3) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tpointer vars\trelations\ttime\tspace\tin core\tloaded\tin file")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%.1fMB\t%d\t%d\t%d\n",
			r.Name, r.PointerVars, fmtCount(r.Relations), fmtDur(r.Time),
			r.SpaceMB, r.InCore, r.Loaded, r.InFile)
	}
	tw.Flush()
}

// ---------- Table 4 ----------

// Row4 compares struct modes on one benchmark.
type Row4 struct {
	Name                string
	FBVars, FBRelations int
	FBTime              time.Duration
	FIVars, FIRelations int
	FITime              time.Duration
}

// Table4Row runs the analysis under both struct modes.
func Table4Row(w *Workload) (Row4, error) {
	r := Row4{Name: w.Profile.Name}
	startFB := time.Now()
	fb, err := core.Solve(pts.NewMemSource(w.FieldBased), core.DefaultConfig())
	if err != nil {
		return r, err
	}
	r.FBTime = time.Since(startFB)
	mb := fb.Metrics()
	r.FBVars, r.FBRelations = mb.PointerVars, mb.Relations

	startFI := time.Now()
	fi, err := core.Solve(pts.NewMemSource(w.FieldIndependent), core.DefaultConfig())
	if err != nil {
		return r, err
	}
	r.FITime = time.Since(startFI)
	mi := fi.Metrics()
	r.FIVars, r.FIRelations = mi.PointerVars, mi.Relations
	return r, nil
}

// FormatTable4 renders the struct-mode comparison.
func FormatTable4(wr io.Writer, rows []Row4) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tfield-based\t\t\tfield-independent\t\t")
	fmt.Fprintln(tw, "benchmark\tpointers\trelations\ttime\tpointers\trelations\ttime")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\t%s\t%s\n",
			r.Name, r.FBVars, fmtCount(r.FBRelations), fmtDur(r.FBTime),
			r.FIVars, fmtCount(r.FIRelations), fmtDur(r.FITime))
	}
	tw.Flush()
}

// ---------- Ablation (Section 5) ----------

// RowAblation is one solver configuration's cost on a fixed workload.
type RowAblation struct {
	Config string
	Time   time.Duration
	Passes int
	Cache  int64 // cache hits
	Unify  int
}

// AblationConfigs are the four cache × cycle-elimination settings.
func AblationConfigs() []struct {
	Name string
	Cfg  core.Config
} {
	return []struct {
		Name string
		Cfg  core.Config
	}{
		{"cache+cycle (paper)", core.Config{Cache: true, CycleElim: true, DemandLoad: true}},
		{"cache only", core.Config{Cache: true, CycleElim: false, DemandLoad: true}},
		{"cycle only", core.Config{Cache: false, CycleElim: true, DemandLoad: true}},
		{"neither (naive)", core.Config{Cache: false, CycleElim: false, DemandLoad: true}},
	}
}

// RunAblation measures each configuration on the workload.
func RunAblation(w *Workload) ([]RowAblation, error) {
	var out []RowAblation
	for _, c := range AblationConfigs() {
		start := time.Now()
		res, err := core.Solve(pts.NewMemSource(w.FieldBased), c.Cfg)
		if err != nil {
			return nil, err
		}
		m := res.Metrics()
		out = append(out, RowAblation{
			Config: c.Name,
			Time:   time.Since(start),
			Passes: m.Passes,
			Cache:  m.CacheHits,
			Unify:  m.Unifications,
		})
	}
	return out, nil
}

// FormatAblation renders the ablation rows.
func FormatAblation(wr io.Writer, name string, rows []RowAblation) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "ablation on %s\ttime\tslowdown\tpasses\tcache hits\tunifications\n", name)
	var base time.Duration
	for i, r := range rows {
		if i == 0 {
			base = r.Time
		}
		slow := "1.0x"
		if base > 0 && i > 0 {
			slow = fmt.Sprintf("%.1fx", float64(r.Time)/float64(base))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\n",
			r.Config, fmtDur(r.Time), slow, r.Passes, r.Cache, r.Unify)
	}
	tw.Flush()
}

// ---------- Solver comparison (Section 6) ----------

// RowSolver compares algorithms on one benchmark.
type RowSolver struct {
	Name      string
	Solver    string
	Time      time.Duration
	Relations int
}

// Solvers is the fixed comparison order of the Section 6 table.
var Solvers = []driver.Solver{
	driver.PreTransitive, driver.Worklist, driver.BitVector,
	driver.OneLevel, driver.Steensgaard,
}

// RunSolvers measures every solver on a workload through the shared
// driver entry point — all five publish the same pts.Metrics, so no
// per-solver cases remain here.
func RunSolvers(w *Workload) ([]RowSolver, error) {
	var out []RowSolver
	for _, solver := range Solvers {
		src := pts.NewMemSource(w.FieldBased)
		start := time.Now()
		res, err := driver.Analyze(context.Background(), src, solver, core.DefaultConfig(), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, RowSolver{
			Name: w.Profile.Name, Solver: solver.String(),
			Time: time.Since(start), Relations: res.Metrics().Relations,
		})
	}
	return out, nil
}

// FormatSolvers renders the solver comparison.
func FormatSolvers(wr io.Writer, rows []RowSolver) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tsolver\ttime\trelations")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.Name, r.Solver, fmtDur(r.Time), fmtCount(r.Relations))
	}
	tw.Flush()
}

// ---------- formatting helpers ----------

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func fmtCount(n int) string {
	if n >= 1000 {
		return fmt.Sprintf("%dK", n/1000)
	}
	return fmt.Sprintf("%d", n)
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ---------- Transformations (Section 4) ----------

// RowXform measures the effect of a pre-analysis database transformation.
type RowXform struct {
	Name      string
	Variant   string
	Assigns   int
	Time      time.Duration
	Relations int
}

// RunXforms measures baseline vs offline-variable-substituted vs
// context-duplicated databases on one workload.
func RunXforms(w *Workload) ([]RowXform, error) {
	var out []RowXform
	run := func(variant string, prog *prim.Program) error {
		start := time.Now()
		res, err := core.Solve(pts.NewMemSource(prog), core.DefaultConfig())
		if err != nil {
			return err
		}
		out = append(out, RowXform{
			Name: w.Profile.Name, Variant: variant,
			Assigns: len(prog.Assigns), Time: time.Since(start),
			Relations: res.Metrics().Relations,
		})
		return nil
	}
	if err := run("baseline", w.FieldBased); err != nil {
		return nil, err
	}
	sub, _ := xform.OfflineVarSub(w.FieldBased)
	if err := run("offline-var-sub", sub); err != nil {
		return nil, err
	}
	ctx := xform.ContextSensitive(w.FieldBased, xform.Options{})
	if err := run("context-dup", ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// FormatXforms renders the transformation comparison.
func FormatXforms(wr io.Writer, rows []RowXform) {
	tw := tabwriter.NewWriter(wr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tvariant\tassignments\ttime\trelations")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\n",
			r.Name, r.Variant, r.Assigns, fmtDur(r.Time), fmtCount(r.Relations))
	}
	tw.Flush()
}
