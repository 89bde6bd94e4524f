package cc

import (
	"fmt"
	"strings"
	"testing"
)

// render prints a parse outcome with every declaration's position.
func render(u *TranslationUnit, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, d := range u.Decls {
		fmt.Fprintf(&b, "%s %s\n", d.Position(), Dump(d))
	}
	return b.String()
}

// joined parses the concatenated chunks the plain way.
func joined(name string, chunks []Chunk) string {
	var b strings.Builder
	for _, c := range chunks {
		b.WriteString(c.Text)
	}
	return render(Parse(name, b.String()))
}

func TestParseChunksKeysOnTypedefs(t *testing.T) {
	hdr := Chunk{Text: "# 1 \"h.h\"\nfoo_t *p;\nint q;\n", Shared: true}
	units := map[string][]Chunk{
		"a.c": {{Text: "# 1 \"a.c\"\ntypedef int foo_t;\n"}, hdr, {Text: "# 2 \"a.c\"\nfoo_t a;\n"}},
		"b.c": {{Text: "# 1 \"b.c\"\ntypedef char foo_t, *bar_t;\n"}, hdr, {Text: "# 2 \"b.c\"\nbar_t b;\n"}},
		"c.c": {{Text: "# 1 \"c.c\"\nint foo_t;\n"}, hdr},
	}
	m := NewMemo()
	for _, name := range []string{"a.c", "b.c", "c.c", "a.c", "b.c", "c.c"} {
		got, want := render(ParseChunks(name, units[name], m)), joined(name, units[name])
		if got != want {
			t.Fatalf("%s: chunks give\n%s\njoined text\n%s", name, got, want)
		}
	}
	if len(m.lexed) != 1 || len(m.decls) != 2 {
		t.Fatalf("memo: %d lexed, %d declaration runs; want 1 and one per typedef set", len(m.lexed), len(m.decls))
	}
}

func TestParseChunksDeclarationAcrossChunks(t *testing.T) {
	chunks := []Chunk{
		{Text: "# 1 \"u.c\"\nint before;\n"},
		{Text: "# 1 \"s.h\"\nstruct S {\n", Shared: true},
		{Text: "# 3 \"u.c\"\nint x; } s;\n"},
		{Text: "# 1 \"t.h\"\nint t1; int t2\n", Shared: true},
		{Text: "# 4 \"u.c\"\n, t3;\n"},
	}
	m := NewMemo()
	for i := 0; i < 2; i++ {
		if got, want := render(ParseChunks("u.c", chunks, m)), joined("u.c", chunks); got != want {
			t.Fatalf("chunks give\n%s\njoined text\n%s", got, want)
		}
	}
	if len(m.decls) != 0 {
		t.Fatalf("memo stored %d declaration runs for chunks no declaration ends on", len(m.decls))
	}
}

func TestParseChunksErrorsMatchJoined(t *testing.T) {
	for _, chunks := range [][]Chunk{
		{{Text: "# 1 \"u.c\"\nint a;\n"}, {Text: "# 1 \"h.h\"\nchar *s = \"open;\n", Shared: true}},
		{{Text: "# 1 \"h.h\"\nint = ;\n", Shared: true}, {Text: "# 2 \"u.c\"\nint f(void) {\n"}},
		{{Text: "int x;\n", Shared: true}, {Text: "# 9 \"u.c\"\nint y = ;\n"}},
	} {
		m := NewMemo()
		for i := 0; i < 2; i++ {
			if got, want := render(ParseChunks("u.c", chunks, m)), joined("u.c", chunks); got != want || !strings.HasPrefix(got, "error") {
				t.Fatalf("chunks give %q, joined text %q", got, want)
			}
		}
	}
}
