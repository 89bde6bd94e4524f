package cpp

import (
	"sort"
	"testing"
)

// recordingLoader logs every successful load.
type recordingLoader struct {
	MapLoader
	loads []string
}

func (l *recordingLoader) Load(name string) (string, string, error) {
	c, p, err := l.MapLoader.Load(name)
	if err == nil {
		l.loads = append(l.loads, p)
	}
	return c, p, err
}

// run preprocesses src as name through a fresh preprocessor on memo m and
// returns the output without markers, or the error text.
func run(m *Memo, loader Loader, name, src string) string {
	p := New(loader)
	p.Memo = m
	out, err := p.Preprocess(name, src)
	if err != nil {
		return "error: " + err.Error()
	}
	return stripMarkers(out)
}

// alone is run on a memo of its own.
func alone(loader Loader, name, src string) string { return run(NewMemo(), loader, name, src) }

// warm runs src twice on m, so that its includes are recorded.
func warm(m *Memo, loader Loader, src string) string {
	run(m, loader, "warm.c", src)
	return run(m, loader, "warm.c", src)
}

func TestMemoKeysOnMacroState(t *testing.T) {
	files := MapLoader{"h.h": "int x = N;\n"}
	m := NewMemo()
	a := warm(m, files, "#define N 1\n#include \"h.h\"\n")
	b := run(m, files, "b.c", "#define N 2\n#include \"h.h\"\n")
	a2 := run(m, files, "a2.c", "#define N 1\n#include \"h.h\"\n")
	b2 := run(m, files, "b2.c", "#define N 2\n#include \"h.h\"\n")
	if a != "int x = 1;" || b != "int x = 2;" || a2 != a || b2 != b {
		t.Fatalf("expansions: %q, %q, %q, %q", a, b, a2, b2)
	}
	if len(m.entries) != 2 {
		t.Fatalf("memo holds %d entries, want one per macro state", len(m.entries))
	}
}

func TestMemoHitReplaysMacrosAndNestedLoads(t *testing.T) {
	files := MapLoader{
		"h.h": "#ifndef H\n#define H\n#define TWICE(x) x x\n#include \"n.h\"\n#endif\n",
		"n.h": "int n;\n",
	}
	m := NewMemo()
	warm(m, files, "#include \"h.h\"\nTWICE(a)\n")
	l := &recordingLoader{MapLoader: files}
	got := run(m, l, "b.c", "#include \"h.h\"\n#include \"h.h\"\nTWICE(b)\n")
	if want := alone(files, "b.c", "#include \"h.h\"\n#include \"h.h\"\nTWICE(b)\n"); got != want || got != "int n;\nb b" {
		t.Fatalf("memo hit gives %q, alone %q", got, want)
	}
	sort.Strings(l.loads)
	if len(l.loads) != 3 || l.loads[0] != "h.h" || l.loads[2] != "n.h" {
		t.Fatalf("loads on a hit = %v, want h.h twice and the nested n.h", l.loads)
	}
}

func TestMemoMissesWhenNestedHeaderChanges(t *testing.T) {
	files := MapLoader{"h.h": "#include \"n.h\"\n", "n.h": "int old;\n"}
	m := NewMemo()
	if got := warm(m, files, "#include \"h.h\"\n"); got != "int old;" {
		t.Fatalf("a.c: %q", got)
	}
	files["n.h"] = "int fresh;\n"
	if got := run(m, files, "b.c", "#include \"h.h\"\n"); got != "int fresh;" {
		t.Fatalf("b.c replayed a stale nested header: %q", got)
	}
}

func TestMemoGuardsAndPragmaOnce(t *testing.T) {
	files := MapLoader{
		"g.h":    "#ifndef G\n#define G\nint guarded;\n#endif\n",
		"o.h":    "#pragma once\nint once;\n",
		"both.h": "#include \"g.h\"\n#include \"o.h\"\n",
	}
	srcs := []string{
		"#include \"g.h\"\n#include \"g.h\"\n#include \"o.h\"\n#include \"o.h\"\n",
		"#include \"both.h\"\n#include \"g.h\"\n#include \"o.h\"\n#include \"both.h\"\n",
		"#include \"o.h\"\n#include \"both.h\"\n",
	}
	m := NewMemo()
	for round := 0; round < 2; round++ {
		for i, src := range srcs {
			got, want := run(m, files, "u.c", src), alone(files, "u.c", src)
			if got != want {
				t.Fatalf("round %d unit %d: shared memo %q, alone %q", round, i, got, want)
			}
			if want != "int guarded;\nint once;" && want != "int once;\nint guarded;" {
				t.Fatalf("unit %d: %q", i, want)
			}
		}
	}
}

func TestMemoHeaderErrorsAreNotMemoized(t *testing.T) {
	files := MapLoader{
		"h.h":   "#if BAD\n#error bad header\n#endif\nint ok;\n",
		"bad.h": "#bogus\n",
	}
	m := NewMemo()
	if got := warm(m, files, "#include \"h.h\"\n"); got != "int ok;" {
		t.Fatalf("a.c: %q", got)
	}
	for _, src := range []string{"#define BAD 1\n#include \"h.h\"\n", "#define BAD 1\n#include \"h.h\"\n",
		"#include \"bad.h\"\n", "#include \"bad.h\"\n"} {
		got, want := run(m, files, "b.c", src), alone(files, "b.c", src)
		if got != want || got[:6] != "error:" {
			t.Fatalf("%q: shared memo %q, alone %q", src, got, want)
		}
	}
	if len(m.entries) != 1 {
		t.Fatalf("memo holds %d entries, want only the error-free include", len(m.entries))
	}
}

// A header whose #else belongs to an #if of the includer changes state
// the memo does not record, so it is never memoized.
func TestMemoSkipsHeaderReachingEnclosingIf(t *testing.T) {
	files := MapLoader{"h.h": "#else\nint hidden;\n"}
	src := "#if 1\n#include \"h.h\"\nint after;\n#endif\nint tail;\n"
	m := NewMemo()
	for i := 0; i < 2; i++ {
		if got, want := run(m, files, "u.c", src), alone(files, "u.c", src); got != want || got != "int tail;" {
			t.Fatalf("shared memo %q, alone %q", got, want)
		}
	}
	if len(m.entries) != 0 {
		t.Fatalf("memo holds %d entries, want none", len(m.entries))
	}
}

func TestMemoSplicesSharedPieces(t *testing.T) {
	files := MapLoader{"h.h": "int h;\n"}
	m := NewMemo()
	var got [3][]*Piece
	for i, name := range []string{"a.c", "b.c", "c.c"} {
		p := New(files)
		p.Memo = m
		var err error
		if got[i], err = p.PreprocessPieces(name, "int u;\n#include \"h.h\"\nint v;\n"); err != nil {
			t.Fatal(err)
		}
	}
	for i := range got {
		if len(got[i]) != 3 {
			t.Fatalf("unit %d: %d pieces, want unit, header, unit", i, len(got[i]))
		}
	}
	// The first include of a key is not recorded; the second records
	// the header's piece and the third splices that same piece.
	if got[0][1].Shared || got[1][1] != got[2][1] || !got[1][1].Shared || got[1][0].Shared || got[2][2].Shared {
		t.Fatal("the header's piece is not the one shared piece")
	}
}
