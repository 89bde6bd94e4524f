package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cla"
	"cla/internal/gen"
)

// Input sizes. gimp is the Table 2 profile with the most units sharing
// one header, so it shows the frontend's header re-expansion; 0.25 keeps
// its 50 units and 67KB defs.h while a cold open stays near two seconds.
// serve-mixed uses 0.1 because a dependence query rebuilds a
// whole-program index per call: at 0.1 that costs about a second and
// 300MB, at 0.25 about 29s and more than 8GB.
const (
	profileName = "gimp"
	coldScale   = 0.25
	serveScale  = 0.1
	setupReps   = 3  // set-ups per run; setup_s is their median
	numProbes   = 32 // pointer names queried and checked
	numTargets  = 4  // dependence targets
	numFuncs    = 12 // modref functions, of which a quarter unit drivers
)

// tree is a generated C source tree written to disk.
type tree struct {
	dir   string   // absolute
	units []string // absolute .c paths, sorted
	files []string // units plus the shared header, absolute, sorted
	orig  map[string][]byte
	lines int
}

// writeTree generates the profile at scale from seed and writes it under
// dir. Paths are absolute: snapshots record source paths as given, and a
// relative path would read as stale from another working directory.
func writeTree(dir string, scale float64, seed int64) (*tree, error) {
	p, ok := gen.ProfileByName(profileName)
	if !ok {
		return nil, fmt.Errorf("no profile %q", profileName)
	}
	code := gen.Generate(p.Scale(scale), seed)
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &tree{dir: dir, orig: map[string][]byte{}, lines: code.TotalLines()}
	for name, src := range code.Files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return nil, err
		}
		t.orig[path] = []byte(src)
		t.files = append(t.files, path)
		if strings.HasSuffix(name, ".c") {
			t.units = append(t.units, path)
		}
	}
	sort.Strings(t.files)
	sort.Strings(t.units)
	return t, nil
}

// objKey identifies an object across analyses by name, position and
// enclosing function; symbol ids differ between solvers and generations.
func objKey(name, pos, fn string) string { return name + "@" + pos + "#" + fn }

func keyOf(o cla.Object) string { return objKey(o.Name(), o.Pos(), o.FuncName()) }

// reference is the independent oracle: the sequential worklist solver
// (a different algorithm from the pre-transitive solver under test) run
// on the same linked database.
type reference struct {
	an      *cla.Analysis
	probes  []string            // pointer names with non-empty sets
	want    map[string][]string // probe -> sorted object keys
	targets []string            // dependence targets
	funcs   []string            // modref functions
}

// newReference solves db with the worklist solver and picks the query
// names from its answers. The names are spread evenly over the tree and
// the seed only orders them: the cost of a query varies widely by name
// (points-to set sizes have median 25 and 90th percentile about 1300 at
// gimp@0.25), and seed-chosen names moved the medians of a run by 10-18%.
// The probes are the middle pointer of each of numProbes equal strata of
// the names sorted by set size, so they cover the size distribution.
func newReference(db *cla.Database, seed int64) (*reference, error) {
	an, err := db.Analyze(&cla.AnalyzeOptions{Algorithm: cla.WorklistAndersen, Jobs: 1})
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	seen := map[string]bool{}
	size := map[string]int{}
	var ptrs, ints, fns, mains []string
	for _, o := range db.Objects() {
		n := o.Name()
		if seen[n] {
			continue
		}
		seen[n] = true
		switch {
		case isGenerated(n, "gp"):
			if size[n] = len(an.PointsToName(n)); size[n] > 0 {
				ptrs = append(ptrs, n)
			}
		case isGenerated(n, "gi"):
			ints = append(ints, n)
		case isGenerated(n, "fn"):
			fns = append(fns, n)
		case strings.HasPrefix(n, "unit") && strings.HasSuffix(n, "_main"):
			mains = append(mains, n)
		}
	}
	if len(ptrs) < numProbes || len(ints) < numTargets || len(fns) < numFuncs || len(mains) < numFuncs/4 {
		return nil, fmt.Errorf("generated tree has too few names (%d pointers, %d ints, %d functions, %d drivers)",
			len(ptrs), len(ints), len(fns), len(mains))
	}
	sort.Slice(ptrs, func(i, j int) bool {
		if size[ptrs[i]] != size[ptrs[j]] {
			return size[ptrs[i]] < size[ptrs[j]]
		}
		return ptrs[i] < ptrs[j]
	})
	sort.Strings(ints)
	sort.Strings(fns)
	sort.Strings(mains)
	ref := &reference{an: an, want: map[string][]string{},
		probes:  spread(ptrs, numProbes),
		targets: spread(ints, numTargets),
		funcs:   append(spread(fns, numFuncs-numFuncs/4), spread(mains, numFuncs/4)...),
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range [][]string{ref.probes, ref.targets, ref.funcs} {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
	for _, n := range ref.probes {
		ref.want[n] = sortedKeys(an.PointsToName(n))
	}
	return ref, nil
}

// isGenerated reports whether n is prefix followed by digits, the
// generator's naming scheme for globals and functions.
func isGenerated(n, prefix string) bool {
	if !strings.HasPrefix(n, prefix) || len(n) == len(prefix) {
		return false
	}
	_, err := strconv.Atoi(n[len(prefix):])
	return err == nil
}

// spread returns the middle element of each of k equal strata of xs.
func spread(xs []string, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = xs[(2*i+1)*len(xs)/(2*k)]
	}
	return out
}

func sortedKeys(objs []cla.Object) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = keyOf(o)
	}
	sort.Strings(out)
	return out
}

// checkAnswer compares one pointsto answer with the reference set.
func (ref *reference) checkAnswer(name string, res cla.QueryResult) error {
	if res.Err != nil {
		return fmt.Errorf("pointsto %s: %s", name, res.Err.Message)
	}
	got := make([]string, len(res.Objects))
	for i, o := range res.Objects {
		got[i] = objKey(o.Name, o.Pos, o.Func)
	}
	sort.Strings(got)
	if !slices.Equal(got, ref.want[name]) {
		return fmt.Errorf("pointsto %s: %d objects, the worklist solver gives %d", name, len(got), len(ref.want[name]))
	}
	return nil
}

// answerProbes queries every probe name on a reps times, one query at a
// time, adds each query's time to s when s is not nil, and compares every
// answer with the reference.
func (ref *reference) answerProbes(ctx context.Context, a *cla.Analysis, s *samples, reps int) error {
	var errs []error
	for i := 0; i < reps*len(ref.probes); i++ {
		n := ref.probes[i%len(ref.probes)]
		var res []cla.QueryResult
		var err error
		d := timed(func() { res, err = a.Query(ctx, []cla.Query{{Kind: "pointsto", Name: n}}) })
		if s != nil {
			s.addKey(n, d)
		}
		if err == nil {
			err = ref.checkAnswer(n, res[0])
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// relationDigest is an order-independent digest of a's whole points-to
// relation over object keys, with its pair count.
func relationDigest(a *cla.Analysis) (pairs int, sum uint64) {
	hashes := map[cla.Object]uint64{}
	h := func(o cla.Object) uint64 {
		if v, ok := hashes[o]; ok {
			return v
		}
		f := fnv.New64a()
		f.Write([]byte(keyOf(o)))
		v := f.Sum64()
		hashes[o] = v
		return v
	}
	for _, o := range a.Database().Objects() {
		hp := h(o)
		for _, z := range a.PointsTo(o) {
			x := hp*0x9e3779b97f4a7c15 ^ h(z)
			x ^= x >> 29
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 32
			sum += x
			pairs++
		}
	}
	return pairs, sum
}

// heapAlloc collects garbage and returns the live heap in bytes.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// vmHWM returns the peak resident set size of process pid in bytes
// (pid 0 means this process).
func vmHWM(pid int) (uint64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
