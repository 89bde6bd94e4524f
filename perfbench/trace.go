package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cla"
	"cla/internal/cc"
	"cla/internal/checks"
	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/ctypes"
	"cla/internal/depend"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/incr"
	"cla/internal/linker"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/serve"
	"cla/internal/snapfile"
	"cla/internal/srchash"
)

// Repetitions of each traced layer call: times are medians, and every
// exact counter must read the same in each repetition.
const (
	traceReps   = 3
	lookupReps  = 60 // per cheap query kind
	untracedOps = 3  // untraced end-to-end operations for the gap
)

// ledger collects the traced run's per-layer metrics.
type ledger struct {
	r     *report
	exact map[string]float64 // host-independent counters
}

func (l *ledger) time(name string, ds []time.Duration) float64 {
	v := median(msOf(ds))
	l.r.set(name, v, "ms")
	return v
}

func (l *ledger) timeUS(name string, ds []time.Duration) float64 {
	v := median(msOf(ds)) * 1000
	l.r.set(name, v, "us")
	return v
}

// count records an exact counter read once per repetition; the readings
// must agree.
func (l *ledger) count(name, unit string, vals ...float64) {
	for _, v := range vals[1:] {
		if v != vals[0] {
			l.r.fail(fmt.Errorf("counter %s differs between repetitions: %v", name, vals))
			break
		}
	}
	l.r.set(name, vals[0], unit)
	l.exact[name] = vals[0]
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// traced walks every layer the three paths cross, timing calls into each
// layer's exported functions from here: the frontend, link, extern model,
// solve, snapshot and incremental layers on the workload's own tree, and
// the evaluation, encoding, HTTP and dependence layers on the serve-mixed
// tree (a dependence query at the larger scale does not finish). It ends
// with the workload's gap: its untraced end-to-end time minus the sum of
// the layers on its path.
func traced(workload string, e *env, r *report) error {
	ctx := context.Background()
	scale := coldScale
	if workload == "serve-mixed" {
		scale = serveScale
	}
	t, err := writeTree(filepath.Join(e.work, "tree"), scale, e.treeSeed)
	if err != nil {
		return err
	}
	l := &ledger{r: r, exact: map[string]float64{}}
	cold, err := coldLedger(ctx, l, t, filepath.Join(e.work, "tree.snap"))
	if err != nil {
		return err
	}
	addSum, err := incrLedger(ctx, l, t)
	if err != nil {
		return err
	}
	st := t
	if scale != serveScale {
		if st, err = writeTree(filepath.Join(e.work, "serve-tree"), serveScale, e.treeSeed); err != nil {
			return err
		}
	}
	transport, err := serveLedger(ctx, l, st, e.claserve, filepath.Join(e.work, "serve.snap"), e.seed)
	if err != nil {
		return err
	}

	var untraced, sum float64
	switch workload {
	case "cold-dir":
		sum = cold
		untraced, err = untracedColdOpen(ctx, r, t)
	case "edit-loop":
		sum = addSum
		untraced, err = untracedAdd(ctx, r, t)
	case "serve-mixed":
		untraced, sum = transport[0], transport[1]
	}
	if err != nil {
		return err
	}
	r.set("trace.untraced_ms", untraced, "ms")
	r.set("trace.layer_sum_ms", sum, "ms")
	r.set("trace.gap_ms", untraced-sum, "ms")
	return l.compare(e, workload)
}

// countingLoader counts the bytes the preprocessor reads, in total and
// per distinct file.
type countingLoader struct {
	inner  cpp.Loader
	mu     sync.Mutex
	total  int
	unique map[string]int
}

func (c *countingLoader) Load(name string) (string, string, error) {
	content, path, err := c.inner.Load(name)
	if err == nil {
		c.mu.Lock()
		c.total += len(content)
		c.unique[path] = len(content)
		c.mu.Unlock()
	}
	return content, path, err
}

// Frontend stages, in pipeline order.
const (
	stCpp = iota
	stCC
	stCtypes
	stLower
	numStages
)

var stageNames = [numStages]string{"cpp", "cc", "ctypes", "frontend"}

// unitCost is one unit's trip through the frontend.
type unitCost struct {
	d         [numStages]time.Duration
	alloc     [numStages]uint64
	out, decl int
	prog      *prim.Program
}

// compileUnit runs the frontend stages of frontend.CompileSource one at a
// time. With alloc set it also reads the allocation of each stage, which
// is only meaningful when no other goroutine allocates meanwhile.
func compileUnit(path string, loader cpp.Loader, alloc bool) (unitCost, error) {
	var uc unitCost
	var ms runtime.MemStats
	stage := func(i int, f func() error) error {
		var a0 uint64
		if alloc {
			runtime.ReadMemStats(&ms)
			a0 = ms.TotalAlloc
		}
		start := time.Now()
		err := f()
		uc.d[i] = time.Since(start)
		if alloc {
			runtime.ReadMemStats(&ms)
			uc.alloc[i] = ms.TotalAlloc - a0
		}
		return err
	}
	content, rpath, err := loader.Load(path)
	if err != nil {
		return uc, err
	}
	var expanded string
	var unit *cc.TranslationUnit
	var ck *ctypes.Checked
	if err := stage(stCpp, func() (err error) {
		expanded, err = cpp.New(loader).Preprocess(rpath, content)
		return err
	}); err != nil {
		return uc, err
	}
	if err := stage(stCC, func() (err error) { unit, err = cc.Parse(rpath, expanded); return err }); err != nil {
		return uc, err
	}
	stage(stCtypes, func() error { ck = ctypes.Check(unit); return nil })
	stage(stLower, func() error { uc.prog = frontend.Compile(ck, frontend.Options{}); return nil })
	uc.out, uc.decl = len(expanded), len(unit.Decls)
	return uc, nil
}

// frontendWalk compiles every unit on the given number of workers.
func frontendWalk(t *tree, workers int, alloc bool) ([]unitCost, *countingLoader, time.Duration, error) {
	loader := &countingLoader{inner: cpp.OSLoader{Dirs: []string{t.dir}}, unique: map[string]int{}}
	costs := make([]unitCost, len(t.units))
	errs := make([]error, len(t.units))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(t.units); i = int(next.Add(1)) - 1 {
				costs[i], errs[i] = compileUnit(t.units[i], loader, alloc)
			}
		}()
	}
	wg.Wait()
	return costs, loader, time.Since(start), errors.Join(errs...)
}

// allocDelta runs f and returns the bytes it allocated.
func allocDelta(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - a0
}

// coldLedger walks the cold path's layers on t and returns the sum of
// the layer times a cold open crosses.
func coldLedger(ctx context.Context, l *ledger, t *tree, snapPath string) (float64, error) {
	r := l.r
	var hashes []time.Duration
	for i := 0; i < traceReps; i++ {
		var err error
		hashes = append(hashes, timed(func() {
			for _, f := range t.files {
				if _, _, err = srchash.File(f); err != nil {
					return
				}
			}
		}))
		r.op(err)
	}
	l.time("srchash.ms", hashes)

	// The frontend: once on Jobs workers for times, once on one worker
	// for per-stage allocation.
	par, loader, wall, err := frontendWalk(t, jobs, false)
	if err != nil {
		return 0, err
	}
	seq, seqLoader, _, err := frontendWalk(t, 1, true)
	if err != nil {
		return 0, err
	}
	r.ops(2*len(t.units), nil)
	unique := 0
	for _, n := range loader.unique {
		unique += n
	}
	var out, decls, assigns [2]float64
	for k, costs := range [][]unitCost{par, seq} {
		for _, c := range costs {
			out[k] += float64(c.out)
			decls[k] += float64(c.decl)
			assigns[k] += float64(len(c.prog.Assigns))
		}
	}
	for s := 0; s < numStages; s++ {
		var d time.Duration
		var a uint64
		for i := range par {
			d += par[i].d[s]
			a += seq[i].alloc[s]
		}
		r.set(stageNames[s]+".ms", ms(d), "ms")
		r.set(stageNames[s]+".alloc_mb", mb(a), "MB")
	}
	compileWall := ms(wall)
	r.set("compile.wall_ms", compileWall, "ms")
	l.count("cpp.bytes_in", "bytes", float64(loader.total), float64(seqLoader.total))
	l.count("cpp.bytes_out", "bytes", out[0], out[1])
	r.set("cpp.repeat_ratio", float64(loader.total)/float64(unique), "ratio")
	l.count("cc.decls", "count", decls[0], decls[1])
	l.count("frontend.assigns", "count", assigns[0], assigns[1])

	units := make([]*prim.Program, len(par))
	for i, c := range par {
		units[i] = c.prog
	}
	var links []time.Duration
	var syms, linkAssigns []float64
	var linked *prim.Program
	var linkAlloc uint64
	for i := 0; i < traceReps; i++ {
		var d time.Duration
		a := allocDelta(func() { d = timed(func() { linked, err = linker.LinkParallel(units, jobs) }) })
		r.op(err)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			linkAlloc = a
		}
		links = append(links, d)
		syms = append(syms, float64(len(linked.Syms)))
		linkAssigns = append(linkAssigns, float64(len(linked.Assigns)))
	}
	linkMS := l.time("linker.ms", links)
	r.set("linker.alloc_mb", mb(linkAlloc), "MB")
	l.count("linker.syms", "count", syms...)
	l.count("linker.assigns", "count", linkAssigns...)

	var exts []time.Duration
	for i := 0; i < traceReps; i++ {
		exts = append(exts, timed(func() { extmodel.Apply(linked, extmodel.Unsound) }))
	}
	extMS := l.time("extmodel.ms", exts)

	// The solve at Jobs=2 (the wave fixpoint) and at Jobs=1, which runs
	// the sequential fixpoint: wave at one worker is not reachable from
	// the public API, so this pair mixes the parallel and the algorithmic
	// difference.
	solve := func(workers int) ([]time.Duration, []pts.Metrics, pts.Result, uint64, error) {
		var ds []time.Duration
		var mets []pts.Metrics
		var res pts.Result
		var alloc uint64
		for i := 0; i < traceReps; i++ {
			src := pts.NewMemSource(linked)
			cfg := core.DefaultConfig()
			cfg.Jobs = workers
			var d time.Duration
			var err error
			a := allocDelta(func() { d = timed(func() { res, err = core.SolveCtx(ctx, src, cfg) }) })
			r.op(err)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			if i == 0 {
				alloc = a
			}
			ds = append(ds, d)
			mets = append(mets, res.Metrics())
		}
		return ds, mets, res, alloc, nil
	}
	d2, m2, res, alloc2, err := solve(jobs)
	if err != nil {
		return 0, err
	}
	d1, m1, res1, _, err := solve(1)
	if err != nil {
		return 0, err
	}
	solveMS := l.time("core.solve_ms", d2)
	l.time("core.solve_j1_ms", d1)
	fmt.Println("note core.solve_j1_ms runs the sequential fixpoint: the wave fixpoint at one worker is not reachable from the public API")
	r.set("core.alloc_mb", mb(alloc2), "MB")
	var passes, rels, rels1 []float64
	for i := range m2 {
		passes = append(passes, float64(m2[i].Passes))
		rels = append(rels, float64(m2[i].Relations))
		rels1 = append(rels1, float64(m1[i].Relations))
	}
	l.count("core.passes", "count", passes...)
	l.count("core.relations", "count", append(rels, rels1...)...)
	r.set("core.unifications", float64(m2[0].Unifications), "count")
	if look := m2[0].CacheHits + m2[0].CacheMisses; look > 0 {
		r.set("core.cache_hit_ratio", float64(m2[0].CacheHits)/float64(look), "ratio")
	} else {
		r.set("core.cache_hit_ratio", 0, "ratio")
	}
	for i := range linked.Syms {
		if !slices.Equal(res.PointsTo(prim.SymID(i)), res1.PointsTo(prim.SymID(i))) {
			r.fail(fmt.Errorf("points-to set of %s differs between Jobs=%d and Jobs=1", linked.Syms[i].Name, jobs))
			break
		}
	}

	// The snapshot layer: the cached checks report, write, open, verify
	// and the evaluator claserve and OpenSnapshot build over it.
	liveEv := serve.NewEvaluator(linked, pts.NewMemSource(linked), res, jobs)
	var report *checks.Report
	checksD := timed(func() { report, err = liveEv.ChecksReport() })
	r.op(err)
	if err != nil {
		return 0, err
	}
	r.set("checks.ms", ms(checksD), "ms")
	srcs, err := snapfile.HashSources(t.files)
	if err != nil {
		return 0, err
	}
	snap := &snapfile.Snapshot{Prog: linked, Res: res, Solver: cla.PreTransitive.String(),
		ExtModel: extmodel.Unsound.String(), Report: report, Sources: srcs}
	var writes, opens, verifies, evals []time.Duration
	var sizes []float64
	for i := 0; i < traceReps; i++ {
		writes = append(writes, timed(func() { err = snapfile.Save(snapPath, snap) }))
		r.op(err)
		if err != nil {
			return 0, err
		}
		fi, serr := os.Stat(snapPath)
		if serr != nil {
			return 0, serr
		}
		sizes = append(sizes, float64(fi.Size()))
	}
	for i := 0; i < traceReps; i++ {
		var sr *snapfile.Reader
		opens = append(opens, timed(func() { sr, err = snapfile.Open(snapPath, snapfile.Options{}) }))
		r.op(err)
		if err != nil {
			return 0, err
		}
		verifies = append(verifies, timed(func() { err = sr.VerifySources() }))
		r.op(err)
		var ev *serve.Evaluator
		evals = append(evals, timed(func() {
			prog := sr.Program()
			ev = serve.NewEvaluator(prog, pts.NewMemSource(prog), sr.Result(), jobs)
			ev.SeedChecks(sr.Report())
		}))
		if i == 0 {
			for s := range linked.Syms {
				if !slices.Equal(ev.Res.PointsTo(prim.SymID(s)), res.PointsTo(prim.SymID(s))) {
					r.fail(fmt.Errorf("snapshot set of %s differs from the live solve", linked.Syms[s].Name))
					break
				}
			}
		}
		sr.Close()
	}
	l.time("snapfile.write_ms", writes)
	l.count("snapfile.bytes", "bytes", sizes...)
	l.time("snapfile.open_ms", opens)
	l.time("snapfile.verify_ms", verifies)
	evalMS := l.time("serve.evaluator_ms", evals)
	return compileWall + linkMS + extMS + solveMS + evalMS, nil
}

// ptsNames returns the names of the objects the symbols named name point
// to in res.
func ptsNames(prog *prim.Program, res pts.Result, name string) (found bool, names []string) {
	for i := range prog.Syms {
		if prog.Syms[i].Name != name || prog.Syms[i].Kind == prim.SymTemp {
			continue
		}
		found = true
		for _, z := range res.PointsTo(prim.SymID(i)) {
			names = append(names, prog.Syms[z].Name)
		}
	}
	sort.Strings(names)
	return found, names
}

// incrLedger reads the refresh phases of each edit kind from the
// pipeline's own RefreshStats, editing the same unit each repetition so
// the counters are comparable. It returns the summed phase time of an
// add.
func incrLedger(ctx context.Context, l *ledger, t *tree) (float64, error) {
	r := l.r
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs
	p, err := incr.Open(ctx, incr.Config{Dir: t.dir, Solver: driver.PreTransitive,
		Model: extmodel.Unsound, Core: cfg, Jobs: jobs})
	if err != nil {
		return 0, err
	}
	path := t.units[0]
	stats := map[string][]incr.RefreshStats{}
	for i := 0; i < traceReps; i++ {
		g, pname, line := addLine(i)
		steps := []struct {
			kind    string
			content []byte
		}{
			{"add", append(append([]byte(nil), t.orig[path]...), line...)},
			{"noop", nil},
			{"revert", t.orig[path]},
		}
		for _, s := range steps {
			var res *incr.Result
			var st incr.RefreshStats
			if s.content == nil {
				res, st, err = p.Refresh(ctx)
			} else {
				if err := os.WriteFile(path, s.content, 0o644); err != nil {
					return 0, err
				}
				runtime.GC()
				res, st, err = p.Update(ctx, path)
			}
			if err == nil {
				found, names := ptsNames(res.Prog, res.Res, pname)
				switch {
				case s.kind == "add" && (!found || len(names) != 1 || names[0] != g):
					err = fmt.Errorf("incr add: %s points to %v, want [%s]", pname, names, g)
				case s.kind == "revert" && found:
					err = fmt.Errorf("incr revert: %s still present", pname)
				case s.kind == "noop" && st.Changed:
					err = errors.New("incr no-op refresh built a new generation")
				}
			}
			r.op(err)
			stats[s.kind] = append(stats[s.kind], st)
		}
	}
	var addSum float64
	for _, kind := range []string{"add", "revert", "noop"} {
		sts := stats[kind]
		phase := func(f func(incr.RefreshStats) time.Duration) []time.Duration {
			var ds []time.Duration
			for _, st := range sts {
				ds = append(ds, f(st))
			}
			return ds
		}
		count := func(f func(incr.RefreshStats) int) []float64 {
			var vs []float64
			for _, st := range sts {
				vs = append(vs, float64(f(st)))
			}
			return vs
		}
		pre := "incr." + kind + "."
		sum := l.time(pre+"hash_ms", phase(func(s incr.RefreshStats) time.Duration { return s.Hash })) +
			l.time(pre+"compile_ms", phase(func(s incr.RefreshStats) time.Duration { return s.Compile })) +
			l.time(pre+"link_ms", phase(func(s incr.RefreshStats) time.Duration { return s.Link })) +
			l.time(pre+"solve_ms", phase(func(s incr.RefreshStats) time.Duration { return s.Solve }))
		if kind == "add" {
			addSum = sum
		}
		l.count(pre+"recompiled", "count", count(func(s incr.RefreshStats) int { return s.Recompiled })...)
		l.count(pre+"merges_done", "count", count(func(s incr.RefreshStats) int { return s.MergesDone })...)
		l.count(pre+"merges_reused", "count", count(func(s incr.RefreshStats) int { return s.MergesReused })...)
		l.count(pre+"solve_reused", "count", count(func(s incr.RefreshStats) int {
			if s.SolveReused {
				return 1
			}
			return 0
		})...)
	}
	return addSum, nil
}

// serveLedger times each distinct query of the serve-mixed requests three
// ways: Evaluator.Eval in process, the JSON encoding claserve applies,
// and the HTTP round trip to claserve, whose body must equal the
// in-process encoding byte for byte. It returns the untraced HTTP
// pointsto time and the eval+encode time it covers.
func serveLedger(ctx context.Context, l *ledger, t *tree, bin, snapPath string, seed int64) ([2]float64, error) {
	r := l.r
	var out [2]float64
	ws, err := cla.OpenWorkspace(ctx, t.dir, &cla.WorkspaceOptions{Jobs: jobs})
	if err != nil {
		return out, err
	}
	if err := ws.Analysis().SaveSnapshot(snapPath, &cla.SnapshotOptions{Sources: t.files}); err != nil {
		return out, err
	}
	ref, err := newReference(ws.Analysis().Database(), seed)
	if err != nil {
		return out, err
	}
	sr, err := snapfile.Open(snapPath, snapfile.Options{})
	if err != nil {
		return out, err
	}
	defer sr.Close()
	prog := sr.Program()
	ev := serve.NewEvaluator(prog, pts.NewMemSource(prog), sr.Result(), jobs)
	ev.SeedChecks(sr.Report())

	srv, err := startServer(bin, snapPath)
	if err != nil {
		return out, err
	}
	defer srv.stop()
	c := newClient(srv.addr, ref)
	defer c.close()

	byKind := map[string][]request{}
	seen := map[string]bool{}
	for _, rq := range append(lookupRequests(ref), dependRequests(ref)...) {
		if !seen[rq.path] {
			seen[rq.path] = true
			byKind[rq.query.Kind] = append(byKind[rq.query.Kind], rq)
		}
	}
	for _, kind := range []string{"pointsto", "alias", "modref", "lint", "dependence"} {
		reqs := byKind[kind]
		n := lookupReps
		if kind == "dependence" {
			reqs, n = reqs[:1], traceReps
		}
		var evalD, encD, httpD []time.Duration
		size := map[string]int{}
		for i := 0; i < n; i++ {
			rq := reqs[i%len(reqs)]
			var res serve.QueryResult
			evalD = append(evalD, timed(func() { res = ev.Eval(ctx, rq.query) }))
			var enc []byte
			encD = append(encD, timed(func() { enc, err = json.MarshalIndent(res, "", "  ") }))
			if err != nil {
				return out, err
			}
			enc = append(enc, '\n')
			body, d, err := c.get(rq.path)
			if err == nil && !bytes.Equal(body, enc) {
				err = fmt.Errorf("GET %s: HTTP body differs from the in-process answer", rq.path)
			}
			if err == nil {
				err = c.check(rq, body)
			}
			r.op(err)
			httpD = append(httpD, d)
			size[rq.path] = len(enc)
		}
		evalUS := l.timeUS("serve.eval."+kind+"_us", evalD)
		encUS := l.timeUS("serve.encode."+kind+"_us", encD)
		httpUS := l.timeUS("serve.http."+kind+"_us", httpD)
		// Repeated responses are byte-identical (client.check), so the
		// mean size per request is exact.
		total := 0
		for _, n := range size {
			total += n
		}
		l.count("serve.resp_bytes."+kind, "bytes", float64(total)/float64(len(size)))
		if kind == "pointsto" {
			out = [2]float64{httpUS / 1000, (evalUS + encUS) / 1000}
		}
	}

	var targets []prim.SymID
	for i := range prog.Syms {
		if prog.Syms[i].Name == ref.targets[0] && prog.Syms[i].Kind != prim.SymTemp {
			targets = append(targets, prim.SymID(i))
		}
	}
	var deps []time.Duration
	var loaded []float64
	for i := 0; i < traceReps; i++ {
		var dr *depend.Result
		deps = append(deps, timed(func() {
			dr, err = depend.Analyze(ev.Src, ev.Res, targets, depend.Options{NonTargets: map[prim.SymID]bool{}})
		}))
		r.op(err)
		if err != nil {
			return out, err
		}
		loaded = append(loaded, float64(dr.Loaded))
	}
	l.time("depend.ms", deps)
	l.count("depend.loaded", "count", loaded...)
	return out, nil
}

// untracedColdOpen times cold opens plus the first pointsto answer, as
// the cold-dir workload does, and returns their median.
func untracedColdOpen(ctx context.Context, r *report, t *tree) (float64, error) {
	var ds []time.Duration
	for i := 0; i < untracedOps; i++ {
		runtime.GC()
		var err error
		ds = append(ds, timed(func() {
			var w *cla.Workspace
			if w, err = cla.OpenWorkspace(ctx, t.dir, &cla.WorkspaceOptions{Jobs: jobs}); err == nil {
				_, err = w.Analysis().Query(ctx, []cla.Query{{Kind: "pointsto", Name: "gp1"}})
			}
		}))
		r.op(err)
		if err != nil {
			return 0, err
		}
	}
	return median(msOf(ds)), nil
}

// untracedAdd times add edits through the public Workspace, as the
// edit-loop workload does, and returns their median.
func untracedAdd(ctx context.Context, r *report, t *tree) (float64, error) {
	ws, err := cla.OpenWorkspace(ctx, t.dir, &cla.WorkspaceOptions{Jobs: jobs})
	if err != nil {
		return 0, err
	}
	path := t.units[0]
	var ds []time.Duration
	for i := 0; i < untracedOps; i++ {
		_, p, line := addLine(i)
		if err := os.WriteFile(path, append(append([]byte(nil), t.orig[path]...), line...), 0o644); err != nil {
			return 0, err
		}
		runtime.GC()
		ds = append(ds, timed(func() {
			var a *cla.Analysis
			if a, err = ws.Update(ctx, path); err == nil {
				_, err = a.Query(ctx, []cla.Query{{Kind: "pointsto", Name: p}})
			}
		}))
		r.op(err)
		if err := os.WriteFile(path, t.orig[path], 0o644); err != nil {
			return 0, err
		}
		if _, err := ws.Update(ctx, path); err != nil {
			return 0, err
		}
	}
	return median(msOf(ds)), nil
}

// compare checks the exact counters against an earlier traced run of the
// same binaries, workload and seed, or records them for a later one.
func (l *ledger) compare(e *env, workload string) error {
	h := sha256.New()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, bin := range []string{self, e.claserve} {
		f, err := os.Open(bin)
		if err != nil {
			return err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	path := filepath.Join(e.cache, fmt.Sprintf("%s-seed%d-tree%d-%x.json", workload, e.seed, e.treeSeed, h.Sum(nil)[:8]))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for name, v := range l.exact {
			if pv, ok := prev[name]; !ok || pv != v {
				l.r.fail(fmt.Errorf("counter %s = %v, an earlier run of the same code read %v", name, v, pv))
			}
		}
		fmt.Printf("detail %d exact counters equal to an earlier run of the same code and seed\n", len(l.exact))
		return nil
	}
	b, err := json.Marshal(l.exact)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.cache, 0o755); err != nil {
		return err
	}
	fmt.Printf("detail %d exact counters recorded for later runs of the same code and seed\n", len(l.exact))
	return os.WriteFile(path, b, 0o644)
}
