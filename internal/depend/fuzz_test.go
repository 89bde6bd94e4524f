package depend

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"cla/internal/core"
	"cla/internal/cpp"
	"cla/internal/gen"
	"cla/internal/incr"
	"cla/internal/linker"
	"cla/internal/objfile"
	"cla/internal/prim"
	"cla/internal/pts"
)

// exampleTrees are the example C trees FuzzDepend draws from beside the
// generated profiles: unit paths plus include directories.
var exampleTrees = []struct {
	units, dirs []string
}{
	{units: []string{"arena.c", "intern.c", "list.c", "log.c", "main.c", "strbuf.c", "wordindex.c"}, dirs: []string{"../../examples/corpus"}},
	{units: []string{"dispatch.c"}, dirs: []string{"../../examples/funcpointers/testdata"}},
}

// fuzzProgram compiles input number which: a small generated tree of one
// of the Table 2 profiles (scale picks 0.002–0.016 of full size), or one
// of the example trees.
func fuzzProgram(t *testing.T, which uint8, seed int64, scale uint8) *prim.Program {
	t.Helper()
	n := len(gen.Table2) + len(exampleTrees)
	i := int(which) % n
	if i < len(gen.Table2) {
		code := gen.Generate(gen.Table2[i].Scale(0.002*float64(1+scale%8)), seed)
		return compileUnits(t, code.Units(), code.Loader())
	}
	ex := exampleTrees[i-len(gen.Table2)]
	var units []string
	for _, u := range ex.units {
		units = append(units, filepath.Join(ex.dirs[0], u))
	}
	return compileUnits(t, units, cpp.OSLoader{Dirs: ex.dirs})
}

// compileUnits compiles units through the one compile path on one
// worker and links them.
func compileUnits(t *testing.T, units []string, loader cpp.Loader) *prim.Program {
	t.Helper()
	progs, err := incr.Compile(context.Background(), incr.Config{Jobs: 1}, units, loader)
	if err != nil {
		t.Fatalf("compile %v: %v", units, err)
	}
	p, err := linker.Link(progs)
	if err != nil {
		t.Fatalf("link %v: %v", units, err)
	}
	return p
}

// FuzzDepend checks Analyze against the reference implementation in
// oracle_test.go. Each input picks a program (a generated profile tree or
// an example), optionally re-weighs assignment strengths at random — the
// generator emits only strong loads, and weak or none deref entries are
// what exercise re-firing — and draws targets (duplicates allowed),
// NonTargets and DropWeak. Dependents, every Chain and FormatChain, both
// FormatTree depths and Loaded must be identical, over a MemSource and
// over a demand-loaded FileSource of the same database.
func FuzzDepend(f *testing.F) {
	for which := uint8(0); which < uint8(len(gen.Table2)+len(exampleTrees)); which++ {
		f.Add(which, int64(1), uint8(which), uint64(which), uint8(0), false)
		f.Add(which, int64(2), uint8(1), uint64(100+which), uint8(90), which%2 == 0)
	}
	f.Add(uint8(6), int64(3), uint8(7), uint64(7), uint8(255), false)
	// Found by fuzzing: firing each deref entry only once per query, and
	// re-firing every entry after the chain strength drops, both differ.
	f.Add(uint8(67), int64(-17), uint8(88), uint64(95), uint8(255), false)
	f.Add(uint8(82), int64(72), uint8(151), uint64(58), uint8(196), false)

	f.Fuzz(func(t *testing.T, which uint8, seed int64, scale uint8, pick uint64, reweigh uint8, dropWeak bool) {
		prog := fuzzProgram(t, which, seed, scale)
		rng := rand.New(rand.NewSource(int64(pick)))
		if reweigh > 0 {
			strengths := []prim.Strength{prim.None, prim.Weak, prim.Strong}
			for i := range prog.Assigns {
				if rng.Intn(256) < int(reweigh) {
					prog.Assigns[i].Strength = strengths[rng.Intn(len(strengths))]
				}
			}
		}
		msrc := pts.NewMemSource(prog)
		ptr, err := core.Solve(msrc, core.DefaultConfig())
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		var buf bytes.Buffer
		if err := objfile.Write(&buf, prog); err != nil {
			t.Fatalf("write: %v", err)
		}
		rd, err := objfile.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		fsrc := &pts.FileSource{R: rd}

		n := len(prog.Syms)
		var targets []prim.SymID
		for k := 1 + rng.Intn(3); k > 0; k-- {
			// Prefer objects with outgoing flows, so most queries reach
			// something.
			id := prim.SymID(rng.Intn(n))
			for try := 0; try < 8 && msrc.BlockLen(id) == 0; try++ {
				id = prim.SymID(rng.Intn(n))
			}
			targets = append(targets, id)
		}
		opts := Options{NonTargets: map[prim.SymID]bool{}, DropWeak: dropWeak}
		if pct := rng.Intn(4) * 3; pct > 0 {
			for i := 0; i < n; i++ {
				if rng.Intn(100) < pct {
					opts.NonTargets[prim.SymID(i)] = rng.Intn(8) > 0
				}
			}
		}

		want, err := refAnalyze(msrc, ptr, targets, opts)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, src := range []pts.Source{msrc, fsrc} {
			got, err := Analyze(src, ptr, targets, opts)
			if err != nil {
				t.Fatalf("%T: %v", src, err)
			}
			sameResult(t, src, got, want, n)
		}
	})
}

// sameResult fails t unless got reproduces the reference result want.
func sameResult(t *testing.T, src pts.Source, got *Result, want *refResult, n int) {
	t.Helper()
	if got.Loaded != want.Loaded {
		t.Fatalf("%T: Loaded = %d, reference %d", src, got.Loaded, want.Loaded)
	}
	gd, wd := got.Dependents(), want.Dependents()
	if len(gd) != len(wd) || (len(gd) > 0 && !reflect.DeepEqual(gd, wd)) {
		t.Fatalf("%T: %d dependents differ from the reference's %d", src, len(gd), len(wd))
	}
	for i := 0; i < n; i++ {
		sym := prim.SymID(i)
		if g, w := got.Chain(sym), want.Chain(sym); !reflect.DeepEqual(g, w) {
			t.Fatalf("%T: Chain(%s) = %v, reference %v", src, src.Sym(sym).Name, g, w)
		}
		if g, w := got.FormatChain(sym), want.FormatChain(sym); g != w {
			t.Fatalf("%T: FormatChain(%s) =\n%s\nreference\n%s", src, src.Sym(sym).Name, g, w)
		}
	}
	for _, depth := range []int{0, 2} {
		if g, w := got.FormatTree(depth), want.FormatTree(depth); g != w {
			t.Fatalf("%T: FormatTree(%d) differs:\n%s\nreference\n%s", src, depth, g, w)
		}
	}
}
