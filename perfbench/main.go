// Command perfbench is the repository's benchmark. It measures the three
// user-visible paths of the CLA pipeline — a source directory to its first
// answer (cold-dir), an edit to a fresh answer (edit-loop) and a request to
// an HTTP response (serve-mixed) — and, in a separate traced run, the
// layers those paths cross. See README.md for the workloads, the metrics
// and the reasons behind each input choice.
//
// Usage (normally through run.sh, which builds this binary and claserve):
//
//	perfbench --workload cold-dir --seed 1 --seconds 20 --trace 0 \
//	    --claserve .bench_build/claserve --work .bench_build
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The process exits 1 when any
// correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// jobs is the worker count of every workload: compile, link, solve and
// claserve run at Jobs=2 on every host, so figures compare across hosts
// of different sizes. The host's real CPU count is reported beside it.
const jobs = 2

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's outcome: operation counts, correctness
// failures and metrics.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	order             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; the first setting of a name fixes its print order.
func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation; a non-nil err marks it failed and
// fails the run.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail(err)
	}
}

// ops counts n attempted operations of which the len(fails) listed
// failed.
func (r *report) ops(n int, fails []error) {
	r.attempted += n
	r.failed += len(fails)
	for _, err := range fails {
		r.fail(err)
	}
}

// fail records a correctness problem without counting an operation.
func (r *report) fail(err error) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
	if len(r.problems) == 1 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// env is what every workload receives from the command line.
type env struct {
	seed     int64 // query names, request order and edited units
	treeSeed int64 // the generated C tree
	seconds  float64
	work     string // scratch directory, removed on exit
	cache    string // persistent directory for cross-run counter checks
	claserve string // path of the claserve binary
}

func main() {
	var (
		workload = flag.String("workload", "", "cold-dir, edit-loop or serve-mixed")
		seed     = flag.Int64("seed", 1, "seed of the query names, the request order and the edited units")
		treeSeed = flag.Int64("tree-seed", 1, "seed of the generated C tree")
		seconds  = flag.Float64("seconds", 10, "measurement time")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer walk instead of the timed workload")
		claserve = flag.String("claserve", "", "claserve binary (serve-mixed and every traced run)")
		work     = flag.String("work", ".bench_build", "directory for generated trees, snapshots and counter records")
	)
	flag.Parse()
	run, ok := map[string]func(*env, *report) error{
		"cold-dir":    coldDir,
		"edit-loop":   editLoop,
		"serve-mixed": serveMixed,
	}[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	base, err := filepath.Abs(*work)
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, treeSeed: *treeSeed, seconds: *seconds, claserve: *claserve,
		work:  filepath.Join(base, fmt.Sprintf("work-%s-%d", *workload, os.Getpid())),
		cache: filepath.Join(base, "counters")}
	if e.claserve != "" {
		if e.claserve, err = filepath.Abs(e.claserve); err != nil {
			fatal(err)
		}
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatal(err)
	}
	printHost(*workload, *seed, *treeSeed, *trace)

	r := newReport()
	if *trace == 1 {
		err = traced(*workload, e, r)
	} else {
		err = run(e, r)
	}
	os.RemoveAll(e.work)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	emit(r)
	if !r.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// printHost prints the host metadata line: the real CPU count, the Go
// scheduler's processor count, the Go version and the Jobs setting.
func printHost(workload string, seed, treeSeed int64, trace int) {
	b, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "tree_seed": treeSeed, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"jobs": jobs,
	})
	fmt.Printf("host %s\n", b)
}

// emit prints every metric by name with its unit, the correctness
// problems, and then the result line.
func emit(r *report) {
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("metric %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Printf("problem %s\n", p)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// pathMetrics holds the end-to-end metrics every workload reports. Each
// workload fills the three latency roles from its own path (see
// README.md): answer is its headline operation, alt its second
// operation, light its cheapest recurring one.
type pathMetrics struct {
	setup              []float64 // seconds per set-up
	answer, alt, light *samples
	opsPerS            float64
	peakRSS, liveHeap  uint64
}

func (p *pathMetrics) publish(r *report) {
	r.set("setup_s", median(p.setup), "s")
	r.set("answer_p50_ms", p.answer.p50(), "ms")
	r.set("alt_p50_ms", p.alt.p50(), "ms")
	r.set("light_p50_ms", p.light.p50(), "ms")
	r.set("ops_per_s", p.opsPerS, "1/s")
	r.set("peak_rss_mb", mb(p.peakRSS), "MB")
	r.set("live_heap_mb", mb(p.liveHeap), "MB")
	ok := 1.0
	if r.attempted > 0 {
		ok = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	r.set("ok_frac", ok, "frac")
	fmt.Printf("detail setup_s n=%d median=%.4gs\n", len(p.setup), median(p.setup))
	fmt.Printf("detail failed_frac=%.4g (%d of %d operations)\n", 1-ok, r.failed, r.attempted)
}

// samples is a set of timings of one operation, each tagged with the
// name it queried.
type samples struct {
	name string
	d    []time.Duration
	key  []string
}

func (s *samples) add(d time.Duration) { s.addKey("", d) }

func (s *samples) addKey(key string, d time.Duration) {
	s.d = append(s.d, d)
	s.key = append(s.key, key)
}

// quantile returns the q-quantile (nearest rank) in milliseconds.
func (s *samples) quantile(q float64) float64 {
	if len(s.d) == 0 {
		return 0
	}
	d := append([]time.Duration(nil), s.d...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q*float64(len(d))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return ms(d[i])
}

// p50 is the median over the queried names of each name's median time.
// A run cycles through names of very different cost, and the median of
// the pooled samples falls between two names' clusters, where one sample
// more or less of either moves it; the median of per-name medians does
// not move that way.
func (s *samples) p50() float64 {
	by := map[string][]float64{}
	for i, d := range s.d {
		by[s.key[i]] = append(by[s.key[i]], ms(d))
	}
	var meds []float64
	for _, v := range by {
		meds = append(meds, median(v))
	}
	return median(meds)
}

// tail returns the highest of p90, p99, p99.9 that has at least ten
// samples beyond it, or ok=false when none has.
func (s *samples) tail() (label string, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(len(s.d))*(1-p/100) >= 10 {
			return fmt.Sprintf("p%g", p), s.quantile(p / 100), true
		}
	}
	return "", 0, false
}

// sum is the total of the samples in milliseconds.
func (s *samples) sum() float64 {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return ms(t)
}

// describe prints a timing with its sample count, median and tail, under
// the path's own name for it (see README.md).
func (s *samples) describe(unitScale float64, unit string) {
	var b strings.Builder
	fmt.Fprintf(&b, "timing %-22s n=%-6d p50=%.4g%s", s.name, len(s.d), s.p50()*unitScale, unit)
	if label, v, ok := s.tail(); ok {
		fmt.Fprintf(&b, " %s=%.4g%s", label, v*unitScale, unit)
	} else {
		b.WriteString(" (no percentile above p50 has 10 samples beyond it)")
	}
	fmt.Println(b.String())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(n uint64) float64 { return float64(n) / (1 << 20) }

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// median returns the median of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
