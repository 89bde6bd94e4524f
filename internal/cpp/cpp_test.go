package cpp

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// pp runs the preprocessor on src and returns output with line markers and
// blank lines removed, whitespace-normalized, for easy comparison.
func pp(t *testing.T, src string, files map[string]string) string {
	t.Helper()
	loader := MapLoader(files)
	p := New(loader)
	out, err := p.Preprocess("test.c", src)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return stripMarkers(out)
}

func stripMarkers(out string) string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "# ") {
			continue
		}
		lines = append(lines, l)
	}
	return strings.Join(lines, "\n")
}

func ppErr(t *testing.T, src string) error {
	t.Helper()
	p := New(MapLoader{})
	_, err := p.Preprocess("test.c", src)
	if err == nil {
		t.Fatalf("Preprocess(%q): expected error", src)
	}
	return err
}

func TestObjectMacro(t *testing.T) {
	got := pp(t, "#define N 10\nint a[N];\n", nil)
	if got != "int a[10];" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacro(t *testing.T) {
	got := pp(t, "#define SQ(x) ((x)*(x))\nint y = SQ(a+b);\n", nil)
	if got != "int y = ((a+b)*(a+b));" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroMultipleArgs(t *testing.T) {
	got := pp(t, "#define MAX(a,b) ((a)>(b)?(a):(b))\nint y = MAX(p, q);\n", nil)
	if got != "int y = ((p)>(q)?(p):(q));" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroWithoutParens(t *testing.T) {
	// Function-like macro name not followed by '(' is left alone.
	got := pp(t, "#define F(x) x\nint (*p)() = F;\n", nil)
	if got != "int (*p)() = F;" {
		t.Errorf("got %q", got)
	}
}

func TestNestedMacro(t *testing.T) {
	got := pp(t, "#define A B\n#define B 42\nint x = A;\n", nil)
	if got != "int x = 42;" {
		t.Errorf("got %q", got)
	}
}

func TestRecursiveMacroStops(t *testing.T) {
	got := pp(t, "#define X X\nint X;\n", nil)
	if got != "int X;" {
		t.Errorf("got %q", got)
	}
}

func TestMutuallyRecursiveMacros(t *testing.T) {
	got := pp(t, "#define A B\n#define B A\nint A;\n", nil)
	// Expansion must terminate; result is A or B depending on hide sets.
	if got != "int A;" && got != "int B;" {
		t.Errorf("got %q", got)
	}
}

// doublingChain defines A0 as one token and each Ai as two copies of
// A(i-1), then uses A(levels): one line that would expand to 2^levels
// tokens.
func doublingChain(levels int) string {
	var b strings.Builder
	b.WriteString("#define A0 x\n")
	for i := 1; i <= levels; i++ {
		fmt.Fprintf(&b, "#define A%d A%d A%d\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "int A%d;\n", levels)
	return b.String()
}

func TestExponentialExpansionCapped(t *testing.T) {
	start := time.Now()
	err := ppErr(t, doublingChain(40))
	if d := time.Since(start); d > time.Second {
		t.Errorf("40-level chain took %v to fail", d)
	}
	var pe *Error
	if !errors.As(err, &pe) || pe.File != "test.c" || pe.Line != 42 ||
		!strings.Contains(pe.Msg, "macro expansion exceeds") {
		t.Fatalf("error = %v, want a positioned expansion-cap error at test.c:42", err)
	}
	// Below the cap the same shape still expands in full.
	if got := pp(t, doublingChain(10), nil); strings.Count(got, "x") != 1<<10 {
		t.Errorf("10-level chain: %d copies of x, want %d", strings.Count(got, "x"), 1<<10)
	}
}

func TestStringize(t *testing.T) {
	got := pp(t, "#define STR(x) #x\nchar *s = STR(a + b);\n", nil)
	if got != `char *s = "a + b";` {
		t.Errorf("got %q", got)
	}
}

func TestPaste(t *testing.T) {
	got := pp(t, "#define GLUE(a,b) a##b\nint GLUE(foo, bar) = 1;\n", nil)
	if got != "int foobar = 1;" {
		t.Errorf("got %q", got)
	}
}

func TestPasteChain(t *testing.T) {
	got := pp(t, "#define GLUE3(a,b,c) a##b##c\nint GLUE3(x, y, z);\n", nil)
	if got != "int xyz;" {
		t.Errorf("got %q", got)
	}
}

func TestUndef(t *testing.T) {
	got := pp(t, "#define N 1\n#undef N\nint x = N;\n", nil)
	if got != "int x = N;" {
		t.Errorf("got %q", got)
	}
}

func TestIfdef(t *testing.T) {
	src := "#define FOO\n#ifdef FOO\nint a;\n#else\nint b;\n#endif\n"
	if got := pp(t, src, nil); got != "int a;" {
		t.Errorf("got %q", got)
	}
}

func TestIfndef(t *testing.T) {
	src := "#ifndef FOO\nint a;\n#else\nint b;\n#endif\n"
	if got := pp(t, src, nil); got != "int a;" {
		t.Errorf("got %q", got)
	}
}

func TestIfArithmetic(t *testing.T) {
	cases := []struct {
		cond string
		want bool
	}{
		{"1", true},
		{"0", false},
		{"2 + 3 == 5", true},
		{"1 << 4 == 16", true},
		{"(1 | 2) == 3", true},
		{"10 % 3 == 1", true},
		{"!0", true},
		{"~0 == -1", true},
		{"1 ? 1 : 0", true},
		{"0 ? 1 : 0", false},
		{"0x10 == 16", true},
		{"010 == 8", true},
		{"'A' == 65", true},
		{"1 && 0", false},
		{"1 || 0", true},
		{"UNDEFINED_NAME", false},
		{"-3 < -2", true},
		{"5 / 2 == 2", true},
	}
	for _, c := range cases {
		src := "#if " + c.cond + "\nyes\n#else\nno\n#endif\n"
		got := pp(t, src, nil)
		want := "no"
		if c.want {
			want = "yes"
		}
		if got != want {
			t.Errorf("#if %s: got %q, want %q", c.cond, got, want)
		}
	}
}

func TestIfDefinedOperator(t *testing.T) {
	src := "#define FOO 0\n#if defined(FOO) && !defined BAR\nyes\n#endif\n"
	if got := pp(t, src, nil); got != "yes" {
		t.Errorf("got %q", got)
	}
}

func TestElifChain(t *testing.T) {
	src := "#define V 2\n#if V == 1\na\n#elif V == 2\nb\n#elif V == 3\nc\n#else\nd\n#endif\n"
	if got := pp(t, src, nil); got != "b" {
		t.Errorf("got %q", got)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#define A 1
#if A
#if 0
x
#else
y
#endif
#else
z
#endif
`
	if got := pp(t, src, nil); got != "y" {
		t.Errorf("got %q", got)
	}
}

func TestSkippedBranchIgnoresDirectives(t *testing.T) {
	// An undefined macro in a dead branch must not be expanded or error.
	src := "#if 0\n#error should not fire\n#include \"missing.h\"\n#endif\nok\n"
	if got := pp(t, src, nil); got != "ok" {
		t.Errorf("got %q", got)
	}
}

func TestInclude(t *testing.T) {
	files := map[string]string{"defs.h": "#define W 7\nint w = W;\n"}
	src := "#include \"defs.h\"\nint v = W;\n"
	got := pp(t, src, files)
	if got != "int w = 7;\nint v = 7;" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeAngle(t *testing.T) {
	files := map[string]string{"stdio.h": "int printf();\n"}
	got := pp(t, "#include <stdio.h>\n", files)
	if got != "int printf();" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeGuard(t *testing.T) {
	files := map[string]string{
		"g.h": "#ifndef G_H\n#define G_H\nint g;\n#endif\n",
	}
	src := "#include \"g.h\"\n#include \"g.h\"\n"
	if got := pp(t, src, files); got != "int g;" {
		t.Errorf("got %q", got)
	}
}

func TestMissingIncludeError(t *testing.T) {
	err := ppErr(t, "#include \"nope.h\"\n")
	if !strings.Contains(err.Error(), "nope.h") {
		t.Errorf("error %v does not mention file", err)
	}
}

func TestErrorDirective(t *testing.T) {
	err := ppErr(t, "#error deliberate failure\n")
	if !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("error = %v", err)
	}
}

func TestUnterminatedIf(t *testing.T) {
	ppErr(t, "#if 1\nint x;\n")
}

func TestElseWithoutIf(t *testing.T) {
	ppErr(t, "#else\n")
}

func TestEndifWithoutIf(t *testing.T) {
	ppErr(t, "#endif\n")
}

func TestComments(t *testing.T) {
	src := "int a; // trailing\nint /* inline */ b;\nint c; /* multi\nline */ int d;\n"
	got := pp(t, src, nil)
	want := "int a;\nint b;\nint c;\nint d;"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestCommentInsideString(t *testing.T) {
	got := pp(t, `char *s = "no // comment /* here */";`+"\n", nil)
	if got != `char *s = "no // comment /* here */";` {
		t.Errorf("got %q", got)
	}
}

func TestLineSplice(t *testing.T) {
	got := pp(t, "#define LONG \\\n 99\nint x = LONG;\n", nil)
	if got != "int x = 99;" {
		t.Errorf("got %q", got)
	}
}

func TestLineMarkersTrackLines(t *testing.T) {
	p := New(MapLoader{})
	out, err := p.Preprocess("t.c", "int a;\n\n\nint b;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# 4 \"t.c\"\nint b;") {
		t.Errorf("missing line marker for line 4:\n%s", out)
	}
}

func TestLineMarkersAfterInclude(t *testing.T) {
	files := map[string]string{"h.h": "int h;\n"}
	p := New(MapLoader(files))
	out, err := p.Preprocess("t.c", "#include \"h.h\"\nint after;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# 1 \"h.h\"") {
		t.Errorf("missing marker for include:\n%s", out)
	}
	if !strings.Contains(out, "# 2 \"t.c\"\nint after;") {
		t.Errorf("missing resume marker:\n%s", out)
	}
}

func TestPredefine(t *testing.T) {
	p := New(MapLoader{})
	p.Define("DEBUG", "1")
	out, err := p.Preprocess("t.c", "#if DEBUG\nyes\n#endif\n")
	if err != nil {
		t.Fatal(err)
	}
	if stripMarkers(out) != "yes" {
		t.Errorf("got %q", stripMarkers(out))
	}
}

func TestVariadicMacro(t *testing.T) {
	got := pp(t, "#define LOG(fmt, ...) printf(fmt, __VA_ARGS__)\nLOG(\"%d\", x);\n", nil)
	if got != `printf("%d", x);` {
		t.Errorf("got %q", got)
	}
}

func TestMacroArgWithNestedParens(t *testing.T) {
	got := pp(t, "#define ID(x) x\nint y = ID(f(a, b));\n", nil)
	if got != "int y = f(a, b);" {
		t.Errorf("got %q", got)
	}
}

func TestMacroExpandedInclude(t *testing.T) {
	files := map[string]string{"defs.h": "int d;\n"}
	if got := pp(t, "#define H \"defs.h\"\n#include H\n", files); got != "int d;" {
		t.Errorf("got %q", got)
	}
	// Arguments that expand to neither "..." nor <...> used to re-enter
	// the macro-expansion branch until the stack overflowed.
	for _, src := range []string{
		"#include x\"\n",
		"#include\n",
		"#define X Y\n#include X\n",
		"#define E\n#include E\n",
	} {
		if err := ppErr(t, src); !strings.Contains(err.Error(), "#include expects") {
			t.Errorf("Preprocess(%q): error = %v", src, err)
		}
	}
}

func TestDeepIncludeLimit(t *testing.T) {
	files := map[string]string{"l.h": "#include \"l.h\"\n"}
	p := New(MapLoader(files))
	p.MaxDepth = 8
	if _, err := p.Preprocess("t.c", "#include \"l.h\"\n"); err == nil {
		t.Error("expected nesting error")
	}
}

func TestEmptyMacroArgs(t *testing.T) {
	got := pp(t, "#define F(x) [x]\nF()\n", nil)
	if got != "[]" {
		t.Errorf("got %q", got)
	}
}

func TestWrongArity(t *testing.T) {
	ppErr(t, "#define F(a,b) a\nF(1,2,3)\n")
}

func TestJoinTokensSpacing(t *testing.T) {
	toks := lexLine("a+b - -c >> 2", "t", 1)
	got := joinTokens(toks)
	// Must not glue "- -" into "--".
	if strings.Contains(got, "--") {
		t.Errorf("joined %q glues unary minuses", got)
	}
	relexed := lexLine(got, "t", 1)
	if len(relexed) != len(toks) {
		t.Errorf("re-lex changed token count: %d vs %d (%q)", len(relexed), len(toks), got)
	}
}

func TestStripCommentsKeepsLineCount(t *testing.T) {
	src := "a /* x\ny\nz */ b\nc\n"
	out := stripComments(src)
	if strings.Count(out, "\n") != strings.Count(src, "\n") {
		t.Errorf("newline count changed: %q", out)
	}
}

func TestOSLoader(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/x.h", "int x;\n"); err != nil {
		t.Fatal(err)
	}
	l := OSLoader{Dirs: []string{dir}}
	c, _, err := l.Load("x.h")
	if err != nil || c != "int x;\n" {
		t.Errorf("Load = %q, %v", c, err)
	}
	if _, _, err := l.Load("absent.h"); err == nil {
		t.Error("expected error for absent file")
	}
}

func writeFile(path, content string) error {
	return osWriteFile(path, content)
}

func TestBuiltinLineAndFile(t *testing.T) {
	got := pp(t, "int a = __LINE__;\nchar *f = __FILE__;\n", nil)
	want := "int a = 1;\nchar *f = \"test.c\";"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestBuiltinLineInIncludedFile(t *testing.T) {
	files := map[string]string{"h.h": "int hl = __LINE__;\nchar *hf = __FILE__;\n"}
	got := pp(t, "#include \"h.h\"\nint ml = __LINE__;\n", files)
	want := "int hl = 1;\nchar *hf = \"h.h\";\nint ml = 2;"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestBuiltinStdc(t *testing.T) {
	got := pp(t, "#if __STDC__\nyes\n#endif\n", nil)
	if got != "yes" {
		t.Errorf("got %q", got)
	}
}

func TestBuiltinLineInMacro(t *testing.T) {
	// __LINE__ inside a macro body expands at the use site's line.
	got := pp(t, "#define HERE __LINE__\n\n\nint x = HERE;\n", nil)
	if got != "int x = 4;" {
		t.Errorf("got %q", got)
	}
}

func TestIfDivisionByZeroError(t *testing.T) {
	ppErr(t, "#if 1/0\nx\n#endif\n")
	ppErr(t, "#if 1%0\nx\n#endif\n")
}

func TestIfMalformedExpressions(t *testing.T) {
	srcs := []string{
		"#if (1\nx\n#endif\n",
		"#if 1 +\nx\n#endif\n",
		"#if ? 1\nx\n#endif\n",
		"#if 1 2\nx\n#endif\n",
		"#if defined(\nx\n#endif\n",
	}
	for _, src := range srcs {
		p := New(MapLoader{})
		if _, err := p.Preprocess("bad.c", src); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

func TestUnknownDirective(t *testing.T) {
	ppErr(t, "#frobnicate\n")
}

func TestPreprocessFile(t *testing.T) {
	files := MapLoader{"m.c": "#define V 5\nint x = V;\n"}
	p := New(files)
	out, err := p.PreprocessFile("m.c")
	if err != nil {
		t.Fatal(err)
	}
	if stripMarkers(out) != "int x = 5;" {
		t.Errorf("got %q", stripMarkers(out))
	}
	if _, err := p.PreprocessFile("missing.c"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTernaryInIf(t *testing.T) {
	got := pp(t, "#if 1 ? 0 : 1\na\n#else\nb\n#endif\n", nil)
	if got != "b" {
		t.Errorf("got %q", got)
	}
}

func TestConditionalMacroRedefinition(t *testing.T) {
	src := `#define MODE 1
#if MODE == 1
#undef MODE
#define MODE 2
#endif
#if MODE == 2
ok
#endif
`
	if got := pp(t, src, nil); got != "ok" {
		t.Errorf("got %q", got)
	}
}

func TestPragmaOnce(t *testing.T) {
	files := map[string]string{"o.h": "#pragma once\nint once_var;\n"}
	got := pp(t, "#include \"o.h\"\n#include \"o.h\"\n", files)
	if got != "int once_var;" {
		t.Errorf("got %q", got)
	}
}
