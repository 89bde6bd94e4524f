package cpp

import (
	"strings"
	"testing"

	"cla/internal/cc"
)

// positions preprocesses src as t.c and returns where the C lexer places
// each identifier of the output.
func positions(t *testing.T, src string, files map[string]string) map[string]string {
	t.Helper()
	out, err := New(MapLoader(files)).Preprocess("t.c", src)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	toks, err := cc.Tokenize("t.c", out)
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	got := map[string]string{}
	for _, tk := range toks {
		if tk.Kind == cc.Ident {
			got[tk.Text] = tk.Pos.String()
		}
	}
	return got
}

// Markers are written only where the line sequence breaks; the positions
// the C lexer reads must not change for it.
func TestSparseMarkerPositions(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		files map[string]string
		want  map[string]string
	}{
		{"continuation", "int a1 = \\\n b1;\nint a2;\n", nil,
			map[string]string{"a1": "t.c:1", "b1": "t.c:1", "a2": "t.c:3"}},
		{"block comment", "int c1; /* x\n y\n */ int c2;\nint c3;\n", nil,
			map[string]string{"c1": "t.c:1", "c2": "t.c:3", "c3": "t.c:4"}},
		{"skipped if", "int d1;\n#if 0\nint dx;\n#endif\nint d2;\nint d3;\n", nil,
			map[string]string{"d1": "t.c:1", "d2": "t.c:5", "d3": "t.c:6"}},
		{"nested include", "int e1;\n#include \"h.h\"\nint e2;\n",
			map[string]string{"h.h": "int h1;\n#include \"n.h\"\nint h2;\n", "n.h": "\nint n1;\n"},
			map[string]string{"e1": "t.c:1", "h1": "h.h:1", "n1": "n.h:2", "h2": "h.h:3", "e2": "t.c:3"}},
		{"pass-through marker", "int f1;\n# 40 \"other.c\"\nint f2;\nint f3;\n", nil,
			map[string]string{"f1": "t.c:1", "f2": "t.c:3", "f3": "t.c:4"}},
		{"hash in expansion", "#define M # 9 \"zz.c\"\nint g1; M\nint g2;\nint g3;\n", nil,
			map[string]string{"g1": "t.c:2", "g2": "t.c:3", "g3": "t.c:4"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := positions(t, c.src, c.files)
			for id, want := range c.want {
				if got[id] != want {
					t.Errorf("%s at %s, want %s", id, got[id], want)
				}
			}
		})
	}
}

// TestSparseMarkersEOFPosition pins where a parse error at end of input
// is reported: after the last line, after a skipped tail, and after the
// return from an include.
func TestSparseMarkersEOFPosition(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int f(void) {\nint x;\n", "t.c:3"},
		{"int f(void) {\nint x;\n\n\n#if 0\nz\n#endif\n", "t.c:3"},
		{"int f(void) {\n#include \"h.h\"\n", "t.c:3"},
		{"int f(void) {\n#include \"h.h\"\n# 70 \"far.c\"\n", "far.c:70"},
	}
	for _, c := range cases {
		out, err := New(MapLoader{"h.h": "int q;\n"}).Preprocess("t.c", c.src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cc.Parse("t.c", out)
		if err == nil || !strings.HasPrefix(err.Error(), c.want+":") {
			t.Errorf("%q: parse error %v, want one at %s", c.src, err, c.want)
		}
	}
}

// TestSparseMarkersOnlyAtBreaks checks the output shape itself: one
// marker per file entry, per include return and per gap.
func TestSparseMarkersOnlyAtBreaks(t *testing.T) {
	out, err := New(MapLoader{"h.h": "int h;\n"}).Preprocess("t.c",
		"int a;\nint b;\n\nint c;\n#include \"h.h\"\nint d;\n")
	if err != nil {
		t.Fatal(err)
	}
	want := "# 1 \"t.c\"\nint a;\nint b;\n# 4 \"t.c\"\nint c;\n" +
		"# 1 \"h.h\"\nint h;\n# 6 \"t.c\"\nint d;\n"
	if out != want {
		t.Errorf("output:\n%s\nwant:\n%s", out, want)
	}
}

func TestPlainLinesMatchTokenRendering(t *testing.T) {
	src := "int  a=b+ +c;\n\tx ->y .z<<=1;\n'a' \"s  t\" 1.5e+3 a##b\n" +
		"p- -q;r+ ++s;/ /;. ..;<: <<\n#define X 1\nint X;\n"
	if err := CheckPlainLines(src); err != nil {
		t.Fatal(err)
	}
}
