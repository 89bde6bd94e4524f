package driver_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/incr"
	"cla/internal/linker"
	"cla/internal/objfile"
	"cla/internal/prim"
	"cla/internal/pts"
)

func encode(t *testing.T, p *prim.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := objfile.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompileDirJobsDeterministic compiles one directory at several
// worker counts: the database the analyze phase receives must not depend
// on -j.
func TestCompileDirJobsDeterministic(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 9; i++ {
		src := fmt.Sprintf("int g%[1]d, *p%[1]d;\nvoid f%[1]d(void) { p%[1]d = &g%[1]d; }\n", i)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("u%d.c", i)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	compile := func(jobs int) []byte {
		prog, err := incr.CompileDir(context.Background(), incr.Config{Dir: dir, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, prog)
	}
	want := compile(1)
	for _, jobs := range []int{2, 8} {
		if !bytes.Equal(want, compile(jobs)) {
			t.Errorf("jobs=%d: database differs from sequential compile", jobs)
		}
	}
}

// TestParallelCompileMatchesSerial compiles a generated tree one unit at
// a time and linked in order, then through the parallel compile entry;
// the databases and every solver's results over them must agree.
func TestParallelCompileMatchesSerial(t *testing.T) {
	p, _ := gen.ProfileByName("burlap")
	code := gen.Generate(p.Scale(0.03), 2)
	loader := code.Loader()
	var units []*prim.Program
	for _, u := range code.Units() {
		content, path, err := loader.Load(u)
		if err != nil {
			t.Fatal(err)
		}
		up, err := frontend.CompileSource(path, content, loader, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, up)
	}
	serial, err := linker.Link(units)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := incr.Compile(context.Background(), incr.Config{Jobs: 4}, code.Units(), loader)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := linker.Link(progs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, serial), encode(t, parallel)) {
		t.Fatal("parallel compile's database differs from the serial one")
	}
	for _, solver := range []driver.Solver{driver.PreTransitive, driver.Worklist, driver.Steensgaard, driver.BitVector, driver.OneLevel} {
		rs, err := driver.Analyze(context.Background(), pts.NewMemSource(serial), solver, core.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		rp, err := driver.Analyze(context.Background(), pts.NewMemSource(parallel), solver, core.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if !reflect.DeepEqual(rs.Metrics(), rp.Metrics()) {
			t.Errorf("%v: metrics differ: %+v vs %+v", solver, rs.Metrics(), rp.Metrics())
		}
	}
}
