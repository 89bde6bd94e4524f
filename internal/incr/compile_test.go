package incr

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cla/internal/cpp"
	"cla/internal/frontend"
	"cla/internal/gen"
	"cla/internal/linker"
	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/prim"
)

func dump(t *testing.T, p *prim.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := objfile.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshCompile compiles one unit on its own header memo: the oracle the
// shared compile fan-out must match byte for byte.
func freshCompile(t *testing.T, unit string, loader cpp.Loader, opts frontend.Options) []byte {
	t.Helper()
	content, path, err := loader.Load(unit)
	if err != nil {
		t.Fatal(err)
	}
	p, err := frontend.CompileSource(path, content, loader, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dump(t, p)
}

// TestCompile runs the one compile entry over unit lists at several
// worker counts. A successful compile must give every unit the database
// a fresh, unshared compile gives it, and link to the same bytes at every
// -j; a failing one must report the lowest-numbered failing unit, as a
// sequential loop would.
func TestCompile(t *testing.T) {
	p, _ := gen.ProfileByName("burlap")
	p = p.Scale(0.03)
	p.Files = 9 // Scale shrinks the unit count too; keep several units
	code := gen.Generate(p, 2)
	loader := cpp.MapLoader{
		"good.c": "int g;\n",
		"bad.c":  "int broken(",
	}
	for name, src := range code.Files {
		loader[name] = src
	}
	cases := []struct {
		name    string
		units   []string
		wantErr string // substring of the error; "" means success
	}{
		{"generated_tree", code.Units(), ""},
		{"missing_unit", []string{"missing.c"}, "missing.c"},
		{"error_names_failing_unit", []string{"good.c", "bad.c"}, "bad.c"},
		{"lowest_failing_unit", []string{"a-missing.c", "good.c", "bad.c", "b-missing.c"}, "a-missing.c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var linked []byte
			for _, jobs := range []int{1, 4, 8} {
				progs, err := Compile(context.Background(), Config{Jobs: jobs}, tc.units, loader)
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("jobs=%d: error = %v, want one naming %s", jobs, err, tc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				if len(progs) != len(tc.units) {
					t.Fatalf("jobs=%d: %d databases for %d units", jobs, len(progs), len(tc.units))
				}
				for i, u := range tc.units {
					if !bytes.Equal(dump(t, progs[i]), freshCompile(t, u, loader, frontend.Options{})) {
						t.Errorf("jobs=%d: %s differs from a fresh compile", jobs, u)
					}
				}
				prog, err := linker.Link(progs)
				if err != nil {
					t.Fatal(err)
				}
				if b := dump(t, prog); linked == nil {
					linked = b
				} else if !bytes.Equal(b, linked) {
					t.Errorf("jobs=%d: linked database differs from jobs=1", jobs)
				}
			}
		})
	}
}

// TestCompileStore drives the on-disk unit store through a sequence of
// compiles. Each step names what it changes first and how many of the two
// units must come from the store; every step's databases must equal a
// fresh compile under that step's options.
func TestCompileStore(t *testing.T) {
	src, cache := t.TempDir(), t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(src, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("defs.h", "#ifndef H\n#define H\nextern int g;\nstruct S { int *f; };\n#endif\n")
	write("a.c", "#include \"defs.h\"\nint g; int *p; struct S s;\nvoid f(void) { p = &g; s.f = p; }\n")
	write("b.c", "#include \"defs.h\"\nint x;\nvoid h(void) { x = g; }\n")
	units := []string{filepath.Join(src, "a.c"), filepath.Join(src, "b.c")}
	loader := cpp.OSLoader{Dirs: []string{src}}
	fi := frontend.Options{Mode: frontend.FieldIndependent}

	steps := []struct {
		name    string
		edit    map[string]string // files rewritten before the compile
		corrupt bool              // overwrite every stored object first
		opts    frontend.Options
		hits    int
	}{
		{name: "cold", hits: 0},
		{name: "warm", hits: 2},
		{name: "unit_edit", edit: map[string]string{
			"b.c": "#include \"defs.h\"\nint x, y;\nvoid h(void) { x = g; y = x; }\n"}, hits: 1},
		{name: "header_edit", edit: map[string]string{
			"defs.h": "#ifndef H\n#define H\nextern int g;\nextern int extra;\nstruct S { int *f; };\n#endif\n"}, hits: 0},
		{name: "options_in_key", opts: fi, hits: 0},
		{name: "options_warm", opts: fi, hits: 2},
		{name: "corrupt_entry", corrupt: true, hits: 0},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			for name, content := range step.edit {
				write(name, content)
			}
			if step.corrupt {
				objs, _ := filepath.Glob(filepath.Join(cache, "*.clo"))
				for _, o := range objs {
					if err := os.WriteFile(o, []byte("garbage"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			o := obs.New()
			cfg := Config{Frontend: step.opts, Jobs: 2, CacheDir: cache, Obs: o}
			progs, err := Compile(context.Background(), cfg, units, loader)
			if err != nil {
				t.Fatal(err)
			}
			hits, recompiled := o.Counter("incr.units_store_hits").Value(), o.Counter("incr.units_recompiled").Value()
			if hits != int64(step.hits) || recompiled != int64(len(units)-step.hits) {
				t.Errorf("store hits %d, recompiled %d; want %d, %d", hits, recompiled, step.hits, len(units)-step.hits)
			}
			for i, u := range units {
				if !bytes.Equal(dump(t, progs[i]), freshCompile(t, u, loader, step.opts)) {
					t.Errorf("%s differs from a fresh compile", filepath.Base(u))
				}
			}
		})
	}
}
