package incr

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/frontend"
	"cla/internal/linker"
	"cla/internal/obs"
	"cla/internal/prim"
	"cla/internal/pts"
	"cla/internal/srchash"
)

// A miniature workspace: four units, one header shared by exactly two of
// them (list.c and table.c), one private header, so header edits have a
// precise expected blast radius.
var baseTree = map[string]string{
	"shared.h": `
void *malloc(unsigned long);
struct node { struct node *next; int value; };
extern struct node *head;
struct node *push(struct node *h, int v);
`,
	"priv.h": `
extern int counter;
`,
	"list.c": `
#include "shared.h"
struct node *head;
struct node *push(struct node *h, int v) {
	struct node *n = (struct node *)malloc(sizeof(struct node));
	n->next = h;
	n->value = v;
	return n;
}
`,
	"table.c": `
#include "shared.h"
struct node *bucket;
void put(int v) { bucket = push(bucket, v); }
`,
	"count.c": `
#include "priv.h"
int counter;
int *counter_addr(void) { return &counter; }
`,
	"main.c": `
extern void put(int v);
int main(void) { put(1); return 0; }
`,
}

func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func edit(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testConfig(dir string) Config {
	return Config{
		Dir:    dir,
		Solver: driver.PreTransitive,
		Core:   core.DefaultConfig(),
		Jobs:   2,
	}
}

// fingerprint renders a result as sorted "pointer -> {objects}" lines
// keyed by symbol name and location, so it compares across independently
// built programs, and digests them.
func fingerprint(p *prim.Program, res pts.Result) string {
	name := func(id prim.SymID) string {
		s := &p.Syms[id]
		return fmt.Sprintf("%s@%s:%d/%s", s.Name, s.Loc.File, s.Loc.Line, s.FuncName)
	}
	var lines []string
	for id := range p.Syms {
		set := res.PointsTo(prim.SymID(id))
		if len(set) == 0 {
			continue
		}
		names := make([]string, len(set))
		for i, o := range set {
			names[i] = name(o)
		}
		sort.Strings(names)
		lines = append(lines, name(prim.SymID(id))+" -> {"+strings.Join(names, ", ")+"}")
	}
	sort.Strings(lines)
	return srchash.String(strings.Join(lines, "\n"))
}

// scratchFingerprint builds the same analysis along a path that shares
// nothing with the pipeline: a left fold of per-unit compiles, each on a
// fresh header memo, then linker.Link and driver.Analyze. It checks the
// shared-memo compile phase against compiles that share nothing.
func scratchFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(cfg.Dir, "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	loader := cpp.OSLoader{Dirs: append([]string{cfg.Dir}, cfg.Includes...)}
	var progs []*prim.Program
	for _, path := range paths {
		content, rpath, err := loader.Load(path)
		if err != nil {
			t.Fatalf("scratch load: %v", err)
		}
		p, err := frontend.CompileSource(rpath, content, loader, cfg.Frontend)
		if err != nil {
			t.Fatalf("scratch compile: %v", err)
		}
		progs = append(progs, p)
	}
	prog, err := linker.Link(progs)
	if err != nil {
		t.Fatalf("scratch link: %v", err)
	}
	aprog, _ := extmodel.ApplyClone(prog, cfg.Model)
	ccfg := cfg.Core
	ccfg.Jobs = cfg.Jobs
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(aprog), cfg.Solver, ccfg, nil)
	if err != nil {
		t.Fatalf("scratch analyze: %v", err)
	}
	return fingerprint(aprog, res)
}

func TestOpenMatchesScratch(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Current()
	if res.Gen != 1 {
		t.Fatalf("first generation = %d, want 1", res.Gen)
	}
	if res.Stats.Units != 4 || res.Stats.Recompiled != 4 {
		t.Fatalf("stats = %+v, want 4 units all recompiled", res.Stats)
	}
	if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
		t.Fatalf("open fingerprint %s != scratch %s", got, want)
	}
}

func TestNoopRefreshKeepsGeneration(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	first := p.Current()
	res, st, err := p.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res != first {
		t.Fatal("no-op refresh built a new Result")
	}
	if st.Changed || st.Recompiled != 0 || st.Reused != 4 || !st.SolveReused {
		t.Fatalf("no-op stats = %+v", st)
	}
}

// TestNoopAndTouchRefreshKeepResult pins the no-op return: with nothing
// recompiled and no unit added or removed, a refresh hands back the very
// same *Result without linking (no "link" span), whether nothing moved
// or a file's mtime moved with its content unchanged. The stat stamps
// are still renewed, so the touched file no longer looks stale, and each
// refresh lands in the four phase histograms.
func TestNoopAndTouchRefreshKeepResult(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	o := obs.New()
	cfg.Obs = o
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := func() int {
		n := 0
		for _, e := range o.Events() {
			if e.Name == "link" {
				n++
			}
		}
		return n
	}
	first := p.Current()
	if n := links(); n != 1 {
		t.Fatalf("open ran %d link spans, want 1", n)
	}
	touch := func() {
		later := time.Now().Add(time.Hour)
		if err := os.Chtimes(filepath.Join(dir, "shared.h"), later, later); err != nil {
			t.Fatal(err)
		}
		if stale, _ := p.Stale(); !stale {
			t.Fatal("touched workspace reported clean")
		}
	}
	for _, step := range []struct {
		name   string
		before func()
	}{{"noop", func() {}}, {"touch", touch}} {
		step.before()
		res, st, err := p.Refresh(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res != first {
			t.Fatalf("%s: refresh returned a new Result (generation %d)", step.name, res.Gen)
		}
		if st.Changed || st.Recompiled != 0 || !st.SolveReused {
			t.Fatalf("%s: stats = %+v", step.name, st)
		}
		if n := links(); n != 1 {
			t.Fatalf("%s: %d link spans, want 1", step.name, n)
		}
		if stale, changed := p.Stale(); stale {
			t.Fatalf("%s: stamps not renewed, stale: %v", step.name, changed)
		}
	}
	for _, phase := range []string{"hash", "compile", "link", "solve"} {
		if n := o.Histogram("incr.refresh." + phase).Count(); n != 3 {
			t.Errorf("incr.refresh.%s has %d observations, want 3", phase, n)
		}
	}
}

// TestSharedHeaderRecompilesExactlyItsUsers is the issue's e2e case: an
// edit to a header included by two of four units must recompile exactly
// those two (observed through the incr.* counters), and the incremental
// result must be byte-identical to a from-scratch analysis.
func TestSharedHeaderRecompilesExactlyItsUsers(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	o := obs.New()
	cfg.Obs = o
	p, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := p.Current()
	before := o.Counter("incr.units_recompiled").Value()

	hdr := edit(t, dir, "shared.h", `
void *malloc(unsigned long);
struct node { struct node *next; int value; };
extern struct node *head;
extern struct node *tail;
struct node *push(struct node *h, int v);
`)
	res, st, err := p.Update(context.Background(), hdr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != gen1.Gen+1 {
		t.Fatalf("generation = %d, want %d", res.Gen, gen1.Gen+1)
	}
	if st.Recompiled != 2 || st.Reused != 2 {
		t.Fatalf("stats = %+v, want exactly the 2 header users recompiled", st)
	}
	if got := o.Counter("incr.units_recompiled").Value() - before; got != 2 {
		t.Fatalf("incr.units_recompiled delta = %d, want 2", got)
	}
	if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
		t.Fatalf("incremental fingerprint %s != scratch %s", got, want)
	}
	// The old generation is untouched and still answers queries.
	if gen1.Gen != 1 || len(gen1.Res.PointsTo(0)) != len(gen1.Res.PointsTo(0)) {
		t.Fatal("previous generation mutated")
	}
}

// TestIdentityAcrossSolversAndJobs pins the acceptance criterion: after
// an edit, the incremental result is byte-identical to a from-scratch
// build for every solver at -j 1 and -j 8.
func TestIdentityAcrossSolversAndJobs(t *testing.T) {
	solvers := []driver.Solver{
		driver.PreTransitive, driver.Worklist, driver.Steensgaard,
		driver.BitVector, driver.OneLevel,
	}
	for _, solver := range solvers {
		for _, jobs := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v-j%d", solver, jobs), func(t *testing.T) {
				dir := t.TempDir()
				writeTree(t, dir, baseTree)
				cfg := testConfig(dir)
				cfg.Solver = solver
				cfg.Jobs = jobs
				cfg.Model = extmodel.Blanket
				p, err := Open(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				changed := edit(t, dir, "list.c", `
#include "shared.h"
struct node *head;
struct node *spare;
struct node *push(struct node *h, int v) {
	struct node *n = (struct node *)malloc(sizeof(struct node));
	n->next = h;
	n->value = v;
	spare = n;
	return n;
}
`)
				res, _, err := p.Update(context.Background(), changed)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
					t.Fatalf("incremental %s != scratch %s", got, want)
				}
			})
		}
	}
}

func TestCommentEditReusesFixpoint(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	gen1 := p.Current()
	// Same tokens on the same lines: the unit recompiles (its hash
	// changed) but the database digest — and so the fixpoint and the
	// generation — must not.
	changed := edit(t, dir, "main.c", `
extern void put(int v); /* callback into table.c */
int main(void) { put(1); return 0; }
`)
	res, st, err := p.Update(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if res != gen1 {
		t.Fatalf("generation bumped to %d on a semantics-preserving edit", res.Gen)
	}
	if st.Recompiled != 1 || !st.SolveReused || st.Changed {
		t.Fatalf("stats = %+v, want 1 recompile with fixpoint reuse", st)
	}
}

func TestAddAndRemoveUnit(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	extra := edit(t, dir, "extra.c", `
int extra_global;
int *extra_addr(void) { return &extra_global; }
`)
	res, st, err := p.Update(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	if st.Units != 5 || st.Recompiled != 1 {
		t.Fatalf("stats after add = %+v", st)
	}
	found := false
	for i := range res.Prog.Syms {
		if res.Prog.Syms[i].Name == "extra_global" {
			found = true
		}
	}
	if !found {
		t.Fatal("added unit's global missing from new generation")
	}
	if err := os.Remove(extra); err != nil {
		t.Fatal(err)
	}
	res, st, err = p.Update(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	if st.Units != 4 {
		t.Fatalf("stats after remove = %+v", st)
	}
	for i := range res.Prog.Syms {
		if res.Prog.Syms[i].Name == "extra_global" {
			t.Fatal("removed unit's global still present")
		}
	}
}

func TestCompileErrorKeepsServingOldGeneration(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	gen1 := p.Current()
	broken := edit(t, dir, "count.c", `#include "priv.h"
int counter = {{{;
`)
	if _, _, err := p.Update(context.Background(), broken); err == nil {
		t.Fatal("expected a compile error")
	}
	if p.Current() != gen1 {
		t.Fatal("failed refresh replaced the current generation")
	}
	fixed := edit(t, dir, "count.c", baseTree["count.c"])
	res, _, err := p.Update(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != gen1.Gen && res.Gen != gen1.Gen+1 {
		t.Fatalf("unexpected generation %d after recovery", res.Gen)
	}
}

func TestMalformedIncludeKeepsServingOldGeneration(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	gen1 := p.Current()
	// This one-line unit used to overflow the preprocessor's stack, a
	// fatal error no recover can catch.
	edit(t, dir, "bad.c", "#include x\"\n")
	if _, _, err := p.Refresh(context.Background()); err == nil || !strings.Contains(err.Error(), "#include expects") {
		t.Fatalf("Refresh error = %v, want a malformed #include error", err)
	}
	if p.Current() != gen1 {
		t.Fatal("failed refresh replaced the current generation")
	}
}

func TestStoreWarmStartAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	cache := t.TempDir()
	writeTree(t, dir, baseTree)
	cfg := testConfig(dir)
	cfg.CacheDir = cache
	p1, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := p1.Current().Stats; st.Recompiled != 4 {
		t.Fatalf("first session stats = %+v", st)
	}
	p2, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := p2.Current().Stats
	if st.Recompiled != 0 || st.StoreHits != 4 {
		t.Fatalf("second session stats = %+v, want all 4 units from the store", st)
	}
	if got, want := fingerprint(p2.Current().Prog, p2.Current().Res), fingerprint(p1.Current().Prog, p1.Current().Res); got != want {
		t.Fatalf("store-served fingerprint %s != parsed %s", got, want)
	}
}

func TestStaleProbe(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if stale, changed := p.Stale(); stale {
		t.Fatalf("fresh workspace reported stale: %v", changed)
	}
	hdr := edit(t, dir, "priv.h", "extern int counter; extern int other;\n")
	stale, changed := p.Stale()
	if !stale {
		t.Fatal("edited workspace reported clean")
	}
	found := false
	for _, c := range changed {
		if c == hdr {
			found = true
		}
	}
	if !found {
		t.Fatalf("changed set %v missing %s", changed, hdr)
	}
	if _, _, err := p.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stale, changed := p.Stale(); stale {
		t.Fatalf("refreshed workspace reported stale: %v", changed)
	}
}

func TestTrackedFilesCoversIncludeClosure(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	got := p.TrackedFiles()
	want := []string{"count.c", "list.c", "main.c", "priv.h", "shared.h", "table.c"}
	if len(got) != len(want) {
		t.Fatalf("tracked = %v, want %d files", got, len(want))
	}
	for i, name := range want {
		if filepath.Base(got[i]) != name {
			t.Fatalf("tracked[%d] = %s, want %s", i, got[i], name)
		}
	}
}

func TestPollWatcherAndWatchLoop(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	w := NewPollWatcher(dir, p.TrackedFiles, 20*time.Millisecond)
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		res *Result
		err error
	}
	got := make(chan outcome, 8)
	go WatchLoop(ctx, p, w, 30*time.Millisecond, func(r *Result, _ RefreshStats, err error) {
		got <- outcome{r, err}
	})

	// mtime resolution can swallow an immediate rewrite; wait a tick.
	time.Sleep(30 * time.Millisecond)
	edit(t, dir, "count.c", `
#include "priv.h"
int counter;
int shadow;
int *counter_addr(void) { return &shadow; }
`)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case oc := <-got:
			if oc.err != nil {
				t.Fatalf("watch refresh error: %v", oc.err)
			}
			if oc.res != nil && oc.res.Gen == 2 {
				return // the edit landed as a new generation
			}
		case <-deadline:
			t.Fatal("watcher never delivered the edit")
		}
	}
}

// An edit that lands after the pipeline builds but before the watcher's
// baseline scan is invisible to the watcher — its baseline already
// carries the post-edit stamps. WatchLoop's catch-up probe must find it
// by re-hashing against the pipeline's recorded content.
func TestWatchLoopCatchesPreBaselineEdit(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, baseTree)
	p, err := Open(context.Background(), testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Edit BEFORE the watcher exists: the baseline scan will stamp the
	// edited file and never emit an event for it.
	edit(t, dir, "count.c", `
#include "priv.h"
int counter;
int shadow;
int *counter_addr(void) { return &shadow; }
`)
	w := NewPollWatcher(dir, p.TrackedFiles, time.Hour) // ticks never fire
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	got := make(chan *Result, 8)
	go WatchLoop(ctx, p, w, 30*time.Millisecond, func(r *Result, _ RefreshStats, err error) {
		if err != nil {
			t.Errorf("watch refresh error: %v", err)
		}
		got <- r
	})
	select {
	case r := <-got:
		if r == nil || r.Gen != 2 {
			t.Fatalf("catch-up result = %+v, want generation 2", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WatchLoop never caught up with the pre-baseline edit")
	}
}

// memoTree exercises the header memo a compile phase shares between
// units: a.c, b.c and e.c include outer.h, which includes inner.h; c.c
// and c2.c include keyed.h after defining its macros one way, d.c after
// defining them another. The memo records an include the second time
// its key is seen, so a third unit in file order is served from it.
var memoTree = map[string]string{
	"inner.h": "extern int inner_obj;\n",
	"outer.h": "#ifndef OUTER_H\n#define OUTER_H\n#include \"inner.h\"\nextern int *outer_ptr;\n#endif\n",
	"keyed.h": "int *PTR = &TARGET;\n",
	"a.c":     "#include \"outer.h\"\nint inner_obj;\nint *outer_ptr = &inner_obj;\n",
	"b.c":     "#include \"outer.h\"\n#include \"outer.h\"\nint *b_ptr = &inner_obj;\n",
	"c.c":     "#define PTR c_ptr\n#define TARGET c_obj\nint c_obj;\n#include \"keyed.h\"\n",
	"c2.c":    "#define PTR c_ptr\n#define TARGET c_obj\nint c_obj;\n#include \"keyed.h\"\n",
	"d.c":     "#define PTR d_ptr\n#define TARGET d_obj\nint d_obj;\n#include \"keyed.h\"\n",
	"e.c":     "#include \"outer.h\"\nint *e_ptr = &inner_obj;\n",
}

// pointsTo returns the names the named symbol points to.
func pointsTo(res *Result, name string) []string {
	var out []string
	for id := range res.Prog.Syms {
		if res.Prog.Syms[id].Name != name {
			continue
		}
		for _, o := range res.Res.PointsTo(prim.SymID(id)) {
			out = append(out, res.Prog.Syms[o].Name)
		}
	}
	sort.Strings(out)
	return out
}

// TestHeaderMemoKeepsNestedDeps: a unit that gets outer.h from the memo
// still depends on the inner.h it includes, so editing inner.h
// recompiles every unit that includes it.
func TestHeaderMemoKeepsNestedDeps(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("j%d", jobs), func(t *testing.T) {
			dir := t.TempDir()
			writeTree(t, dir, memoTree)
			cfg := testConfig(dir)
			cfg.Jobs = jobs
			p, err := Open(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"a.c", "b.c", "e.c"} {
				var deps []string
				for _, d := range p.units[filepath.Join(dir, name)].deps {
					deps = append(deps, filepath.Base(d.path))
				}
				if got := strings.Join(deps, " "); got != name+" inner.h outer.h" {
					t.Fatalf("%s deps = %q, want the unit, inner.h and outer.h", name, got)
				}
			}
			inner := edit(t, dir, "inner.h", "extern int inner_obj;\nextern int inner_two;\n")
			res, st, err := p.Update(context.Background(), inner)
			if err != nil {
				t.Fatal(err)
			}
			if st.Recompiled != 3 || st.Reused != 3 {
				t.Fatalf("stats = %+v, want exactly a.c, b.c and e.c recompiled", st)
			}
			if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
				t.Fatalf("incremental %s != scratch %s", got, want)
			}
		})
	}
}

// TestHeaderMemoKeysOnMacros: two units that define keyed.h's macros
// differently each get their own expansion of it.
func TestHeaderMemoKeysOnMacros(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("j%d", jobs), func(t *testing.T) {
			dir := t.TempDir()
			writeTree(t, dir, memoTree)
			cfg := testConfig(dir)
			cfg.Jobs = jobs
			p, err := Open(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := p.Current()
			for ptr, want := range map[string]string{"c_ptr": "c_obj", "d_ptr": "d_obj", "outer_ptr": "inner_obj", "b_ptr": "inner_obj", "e_ptr": "inner_obj"} {
				if got := pointsTo(res, ptr); len(got) != 1 || got[0] != want {
					t.Errorf("%s -> %v, want {%s}", ptr, got, want)
				}
			}
			if got, want := fingerprint(res.Prog, res.Res), scratchFingerprint(t, cfg); got != want {
				t.Fatalf("open %s != scratch %s", got, want)
			}
		})
	}
}
