package frontend

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cla/internal/cc"
	"cla/internal/cpp"
	"cla/internal/ctypes"
	"cla/internal/prim"
)

// FuzzFrontend compiles two units that may include one header "h.h",
// under an optional -D NAME=VALUE, four ways: through the joined-text
// path (Preprocess, then Parse), alone with a fresh header memo, and
// three times each on one memo shared by both units, in both orders
// (seen, recorded, replayed). Every way must give each unit the same
// database digest or the same error, and the preprocessor's fast
// rendering of plain lines must equal its token rendering.
func FuzzFrontend(f *testing.F) {
	corpus := readExamples(f, "../../examples/corpus")
	var units []string
	for name, src := range corpus {
		if strings.HasSuffix(name, ".c") {
			units = append(units, strings.ReplaceAll(src, `"corpus.h"`, `"h.h"`))
		}
	}
	sort.Strings(units)
	header := corpus["corpus.h"]
	for i := range units {
		f.Add(header, units[i], units[(i+1)%len(units)], "")
	}
	for _, src := range readExamples(f, "../../examples/funcpointers/testdata") {
		f.Add("", src, src, "")
	}
	f.Add("#ifndef H\n#define H\nint *P = &T;\n#endif\n",
		"#define P p1\n#define T g1\nint g1;\n#include \"h.h\"\n#include \"h.h\"\n",
		"#define P p2\n#define T g2\nint g2;\n#include \"h.h\"\n", "")
	f.Add("#pragma once\ntypedef int *ip;\nip q;\n",
		"#include \"h.h\"\n#include \"h.h\"\nip r = q;\n",
		"typedef char ip;\n#include \"h.h\"\n", "")
	f.Add("#if X\n#error x set\n#endif\nint __LINE__v;\nchar *f = __FILE__;\n",
		"#include \"h.h\"\nint a;\n", "int b; /* c\n d */ int \\\ne;\n#include \"h.h\"\n", "X=1")
	f.Add("#else\nint hidden;\n", "#if 1\n#include \"h.h\"\n#endif\nint u;\n",
		"#if 0\n#include \"h.h\"\n#endif\n", "")
	// Exponential macro expansion: 18 doubling levels in 353 bytes.
	chain := "#define A0 x\n"
	for i := 1; i <= 18; i++ {
		chain += fmt.Sprintf("#define A%d A%d A%d\n", i, i-1, i-1)
	}
	f.Add("", chain+"int A18;\n", "int ok;\n", "")
	f.Add("# 7 \"elsewhere.c\"\nint *p;\n", "#include \"h.h\"\nint x = ;\n",
		"int f(void) {\n#include \"h.h\"\n", "D")

	f.Fuzz(func(t *testing.T, header, u1, u2, define string) {
		for _, src := range []string{header, u1, u2} {
			if err := cpp.CheckPlainLines(src); err != nil {
				t.Fatal(err)
			}
		}
		loader := cpp.MapLoader{"h.h": header}
		var opts Options
		if name, val, _ := strings.Cut(define, "="); isIdent(name) {
			opts.Defines = map[string]string{name: val}
		}
		names, srcs := [2]string{"u1.c", "u2.c"}, [2]string{u1, u2}
		var alone [2]string
		for i := range srcs {
			alone[i] = outcome(NewMemo().CompileSource(names[i], srcs[i], loader, opts))
			if joined := outcome(compileJoined(names[i], srcs[i], loader, opts)); joined != alone[i] {
				t.Fatalf("%s: memo path gives %s, joined-text path %s", names[i], alone[i], joined)
			}
		}
		// Each order runs three times on its memo: an include is recorded
		// the second time its key is seen and replayed after that.
		for _, order := range [][]int{{0, 1, 0, 1, 0, 1}, {1, 0, 1, 0, 1, 0}} {
			m := NewMemo()
			for k, i := range order {
				if got := outcome(m.CompileSource(names[i], srcs[i], loader, opts)); got != alone[i] {
					t.Fatalf("%s as compile %d of %v on a shared memo: %s, alone %s",
						names[i], k+1, order, got, alone[i])
				}
			}
		}
	})
}

// compileJoined is CompileSource through the joined preprocessed text,
// the path a memo must not change.
func compileJoined(name, src string, loader cpp.Loader, opts Options) (*prim.Program, error) {
	pp := cpp.New(loader)
	for k, v := range opts.Defines {
		pp.Define(k, v)
	}
	expanded, err := pp.Preprocess(name, src)
	if err != nil {
		return nil, fmt.Errorf("preprocess %s: %w", name, err)
	}
	unit, err := cc.Parse(name, expanded)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	return Compile(ctypes.Check(unit), opts), nil
}

func outcome(p *prim.Program, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("digest %016x", p.Digest())
}

func isIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return s != ""
}

// readExamples returns the C sources in dir by file name.
func readExamples(tb testing.TB, dir string) map[string]string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); ext == ".c" || ext == ".h" {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				tb.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
	}
	return out
}
