package extmodel_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cla/internal/checks"
	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/prim"
	"cla/internal/pts"
)

var updateGolden = flag.Bool("update", false, "rewrite determinism golden digests")

// determinismUnits is a small two-unit program with undefined functions, an
// undefined data global and an undefined function pointer, so every model
// constraint shape participates in the solve.
var determinismUnits = map[string]string{
	"a.c": `
extern char *xmalloc(int n);
extern void register_cb(void (*f)(void), void *ctx);
extern int *shared_cursor;

char *buf;
int local_target;

void setup(void) {
	buf = xmalloc(16);
	register_cb(0, &local_target);
	shared_cursor = &local_target;
}
`,
	"b.c": `
extern int (*ext_hook)(int *);
extern int *shared_cursor;

int use(void) {
	int v = 0;
	int r = ext_hook(&v);
	return r + *shared_cursor;
}
`,
}

var allSolvers = []driver.Solver{
	driver.PreTransitive,
	driver.Worklist,
	driver.Steensgaard,
	driver.BitVector,
	driver.OneLevel,
}

// canonical renders one (model, solver, jobs) run as a stable text blob:
// every named symbol's sorted points-to set, the call graph in DOT form,
// and the full checks output (diagnostics plus audit counters).
func canonical(t *testing.T, m extmodel.Model, s driver.Solver, jobs int) string {
	t.Helper()
	base := link(t, determinismUnits)
	p, _ := extmodel.ApplyClone(base, m)
	cfg := core.DefaultConfig()
	cfg.Jobs = jobs
	res, err := driver.Analyze(context.Background(), pts.NewMemSource(p), s, cfg, nil)
	if err != nil {
		t.Fatalf("solve %v/%v: %v", m, s, err)
	}

	var b strings.Builder
	for i := range p.Syms {
		sym := &p.Syms[i]
		if sym.Kind == prim.SymTemp || sym.Name == "" {
			continue
		}
		var names []string
		for _, z := range res.PointsTo(prim.SymID(i)) {
			names = append(names, p.Sym(z).Name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "pts %s = [%s]\n", sym.Name, strings.Join(names, " "))
	}

	rep, err := checks.Run(p, res, checks.Options{
		Checks:   checks.AllChecksAudited(),
		Jobs:     jobs,
		ExtModel: m.String(),
	})
	if err != nil {
		t.Fatalf("checks %v/%v: %v", m, s, err)
	}
	b.WriteString(rep.Graph.DOT())
	var diags bytes.Buffer
	rep.Format(&diags)
	b.Write(diags.Bytes())
	fmt.Fprintf(&b, "audit deref=%d calls=%d modref=%d\n",
		rep.Audit.DerefDowngraded, rep.Audit.CallsDowngraded, rep.Audit.ModRefIncomplete)
	return b.String()
}

// TestDeterminismAcrossJobsAndSolvers runs every solver under every model
// at jobs 1 and 8, requires byte-identical output per (solver, model)
// across the jobs settings, and pins a digest of the jobs=1 output in a
// golden file so precision changes are explicit.
func TestDeterminismAcrossJobsAndSolvers(t *testing.T) {
	var lines []string
	for _, m := range extmodel.Models() {
		for _, s := range allSolvers {
			ref := canonical(t, m, s, 1)
			if par := canonical(t, m, s, 8); par != ref {
				t.Errorf("%v/%v: output differs between jobs=1 and jobs=8", m, s)
			}
			lines = append(lines, fmt.Sprintf("%s %s %x", m, s, sha256.Sum256([]byte(ref))))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "determinism.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if string(want) != got {
		t.Errorf("digests differ from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// TestUnsoundMatchesUnmodeledProgram: applying the unsound model must not
// change the solve at all — same digest as never calling extmodel.
func TestUnsoundMatchesUnmodeledProgram(t *testing.T) {
	for _, s := range allSolvers {
		withModel := canonical(t, extmodel.Unsound, s, 1)

		base := link(t, determinismUnits)
		res, err := driver.Analyze(context.Background(), pts.NewMemSource(base), s, core.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("solve %v: %v", s, err)
		}
		var b strings.Builder
		for i := range base.Syms {
			sym := &base.Syms[i]
			if sym.Kind == prim.SymTemp || sym.Name == "" {
				continue
			}
			var names []string
			for _, z := range res.PointsTo(prim.SymID(i)) {
				names = append(names, base.Sym(z).Name)
			}
			sort.Strings(names)
			fmt.Fprintf(&b, "pts %s = [%s]\n", sym.Name, strings.Join(names, " "))
		}
		if !strings.HasPrefix(withModel, b.String()) {
			t.Errorf("%v: unsound-model pts differ from the unmodeled program", s)
		}
	}
}
