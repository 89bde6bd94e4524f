// Package cpp implements a C preprocessor sufficient for the CLA compile
// phase: comments, line splicing, #include, object- and function-like
// macros with # and ## operators, conditional compilation with full
// constant-expression evaluation, #undef, #line, #error and #pragma.
//
// The output is preprocessed text with GCC-style line markers
// (`# <line> "<file>"`) so the downstream lexer can report locations in the
// original sources. A marker is written at the start of every file, after
// every return from an #include, and before any line that does not follow
// the previous output line in the same file.
package cpp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Loader resolves #include paths to file contents.
type Loader interface {
	// Load returns the contents of the named file. The returned path is
	// the canonical name used in line markers and for nested relative
	// includes.
	Load(name string) (content string, path string, err error)
}

// MapLoader serves includes from an in-memory map, for tests and the
// synthetic workload generator.
type MapLoader map[string]string

// Load implements Loader.
func (m MapLoader) Load(name string) (string, string, error) {
	if c, ok := m[name]; ok {
		return c, name, nil
	}
	return "", "", fmt.Errorf("cpp: include %q not found", name)
}

// OSLoader serves includes from the file system, searching Dirs for
// non-relative lookups.
type OSLoader struct {
	Dirs []string // include search path
}

// Load implements Loader.
func (l OSLoader) Load(name string) (string, string, error) {
	try := func(p string) (string, string, bool) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", "", false
		}
		return string(b), p, true
	}
	if filepath.IsAbs(name) {
		if c, p, ok := try(name); ok {
			return c, p, nil
		}
		return "", "", fmt.Errorf("cpp: include %q not found", name)
	}
	if c, p, ok := try(name); ok {
		return c, p, nil
	}
	for _, d := range l.Dirs {
		if c, p, ok := try(filepath.Join(d, name)); ok {
			return c, p, nil
		}
	}
	return "", "", fmt.Errorf("cpp: include %q not found", name)
}

// Error is a preprocessing error with a source position.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// macro is a stored macro definition. It is never modified once
// defined, so a header memo shares it between preprocessors.
type macro struct {
	name     string
	funcLike bool
	params   []string
	variadic bool
	body     []token // tokens of the replacement list
	sum      uint64  // macroSum of the definition
}

// Piece is one run of preprocessed output. Every piece starts with a
// line marker, so it reads the same wherever it is spliced. The pieces
// of a memoized header are Shared by every unit that includes it under
// the same key, and are never modified.
type Piece struct {
	Text   string
	Shared bool
}

// Preprocessor holds macro state across files.
type Preprocessor struct {
	Loader   Loader
	MaxDepth int // include nesting limit; 0 means default (64)
	// Memo serves repeated includes of a header. New gives each
	// preprocessor its own; preprocessors of one compile phase may share
	// one.
	Memo *Memo

	macros    map[string]*macro
	macroSum  uint64          // xor of the macros' sums
	once      map[string]bool // files guarded by #pragma once
	onceSum   uint64          // xor of the once paths' hashes
	condStack []condState
	expandDep int
	lineToks  int    // tokens scanned expanding the current line
	curFile   string // file currently being expanded, for __FILE__

	out     []byte   // output since the last piece
	pieces  []*Piece // finished output
	outFile string   // position the next output line would have
	outLine int      // without a marker; 0 when unknown

	recs []*recording // open header recordings, innermost last
	log  effects      // effects since the outermost recording began
}

type condState struct {
	// taken: some branch of this #if chain has been taken.
	taken bool
	// live: we are currently emitting in this branch.
	live bool
	// parentLive: the enclosing context was live.
	parentLive bool
	line       int
}

// New returns a Preprocessor reading includes through loader. The
// standard builtin macros __FILE__, __LINE__, __DATE__, __TIME__,
// __STDC__ and __STDC_VERSION__ are predefined (the first two expand
// positionally).
func New(loader Loader) *Preprocessor {
	p := &Preprocessor{Loader: loader, Memo: NewMemo(), macros: map[string]*macro{}, once: map[string]bool{}}
	p.Define("__STDC__", "1")
	p.Define("__STDC_VERSION__", "199901L")
	// Fixed strings: builds must be reproducible, so no real clock.
	p.Define("__DATE__", `"Jan  1 2001"`)
	p.Define("__TIME__", `"00:00:00"`)
	return p
}

// Define installs an object-like macro, as if by -Dname=body.
func (p *Preprocessor) Define(name, body string) {
	toks := lexLine(body, "<cmdline>", 1)
	m := &macro{name: name, body: toks}
	m.sum = macroSum(m)
	p.setMacro(name, m)
}

// Preprocess runs the preprocessor over the named file's content and
// returns the expanded text with line markers.
func (p *Preprocessor) Preprocess(name, content string) (string, error) {
	pieces, err := p.PreprocessPieces(name, content)
	if err != nil {
		return "", err
	}
	if len(pieces) == 1 {
		return pieces[0].Text, nil
	}
	var b strings.Builder
	for _, pc := range pieces {
		b.WriteString(pc.Text)
	}
	return b.String(), nil
}

// PreprocessPieces is Preprocess with the output left in pieces, so a
// header's output that the memo shares between units is not copied.
// Their concatenation is Preprocess's result.
func (p *Preprocessor) PreprocessPieces(name, content string) ([]*Piece, error) {
	p.out, p.pieces = p.out[:0], nil
	p.outFile, p.outLine = "", 0
	p.condStack = p.condStack[:0]
	p.recs, p.log = nil, effects{}
	if err := p.processFile(name, content, 0); err != nil {
		return nil, err
	}
	if len(p.condStack) != 0 {
		return nil, &Error{File: name, Line: p.condStack[len(p.condStack)-1].line, Msg: "unterminated #if"}
	}
	p.flush()
	return p.pieces, nil
}

// PreprocessFile loads and preprocesses the named file.
func (p *Preprocessor) PreprocessFile(name string) (string, error) {
	content, path, err := p.Loader.Load(name)
	if err != nil {
		return "", err
	}
	return p.Preprocess(path, content)
}

func (p *Preprocessor) errf(file string, line int, format string, args ...any) error {
	return &Error{File: file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *Preprocessor) live() bool {
	for _, c := range p.condStack {
		if !c.live {
			return false
		}
	}
	return true
}

// marker writes a line marker: the next output line is file:line.
func (p *Preprocessor) marker(line int, file string) {
	p.out = append(p.out, "# "...)
	p.out = strconv.AppendInt(p.out, int64(line), 10)
	p.out = append(p.out, ' ')
	p.out = strconv.AppendQuote(p.out, file)
	p.out = append(p.out, '\n')
	p.outFile, p.outLine = file, line
}

// emit writes the expansion of one logical line at file:line, preceded
// by a marker only where the line sequence breaks.
func (p *Preprocessor) emit(file string, line int, text string) error {
	if line != p.outLine || file != p.outFile {
		p.marker(line, file)
	}
	start := len(p.out)
	var plain bool
	if p.out, plain = p.plainLine(p.out, text); !plain {
		p.out = p.out[:start]
		expanded, err := p.expand(lexLine(text, file, line), nil)
		if err != nil {
			return err
		}
		p.out = appendJoined(p.out, expanded)
	}
	// The downstream lexer reads a '#' anywhere as a line marker, so
	// after one the position is unknown.
	p.outLine = line + 1
	if bytes.IndexByte(p.out[start:], '#') >= 0 {
		p.outLine = 0
	}
	p.out = append(p.out, '\n')
	return nil
}

// plainLine appends the rendering of a line that names no defined macro
// and neither __LINE__ nor __FILE__, which is joinTokens(lexLine(text)),
// without building tokens. It reports false as soon as the line names
// one; dst's bytes past the original length are then garbage.
func (p *Preprocessor) plainLine(dst []byte, text string) ([]byte, bool) {
	var prev token
	space := false
	for i := 0; i < len(text); {
		if isHSpace(text[i]) {
			space = true
			i++
			continue
		}
		kind, j := scanToken(text, i)
		cur := token{kind: kind, text: text[i:j]}
		if kind == tokIdent && (p.macros[cur.text] != nil || cur.text == "__LINE__" || cur.text == "__FILE__") {
			return dst, false
		}
		if prev.text != "" && (space || needSpace(prev, cur)) {
			dst = append(dst, ' ')
		}
		dst = append(dst, cur.text...)
		prev, space, i = cur, false, j
	}
	return dst, true
}

// flush closes the output written since the last piece into a new one.
func (p *Preprocessor) flush() {
	if len(p.out) > 0 {
		p.pieces = append(p.pieces, &Piece{Text: string(p.out)})
		p.out = p.out[:0]
	}
}

// maxDepth is the include nesting limit in effect.
func (p *Preprocessor) maxDepth() int {
	if p.MaxDepth == 0 {
		return 64
	}
	return p.MaxDepth
}

func (p *Preprocessor) processFile(name, content string, depth int) error {
	if depth > p.maxDepth() {
		return p.errf(name, 1, "#include nesting too deep")
	}
	lines := splitLogicalLines(stripComments(content))
	p.marker(1, name)
	prevFile := p.curFile
	p.curFile = name
	defer func() { p.curFile = prevFile }()
	condBase := len(p.condStack)
	for _, ln := range lines {
		text := ln.text
		trimmed := strings.TrimSpace(text)
		if strings.HasPrefix(trimmed, "#") {
			if err := p.directive(name, ln.line, trimmed[1:], depth); err != nil {
				return err
			}
			continue
		}
		if !p.live() {
			continue
		}
		if trimmed == "" {
			continue
		}
		if err := p.emit(name, ln.line, text); err != nil {
			return err
		}
	}
	if len(p.condStack) != condBase {
		return p.errf(name, lines[len(lines)-1].line, "unterminated #if in %s", name)
	}
	return nil
}

// directive handles one preprocessor directive (text after '#').
func (p *Preprocessor) directive(file string, line int, text string, depth int) error {
	text = strings.TrimSpace(text)
	if text == "" { // null directive
		return nil
	}
	if text[0] >= '0' && text[0] <= '9' {
		// A GCC-style line marker (`# n "file"`) from already-preprocessed
		// input: pass it through so positions survive re-preprocessing.
		if p.live() {
			p.out = append(p.out, "# "...)
			p.out = append(p.out, text...)
			p.out = append(p.out, '\n')
			p.outLine = 0
		}
		return nil
	}
	name := text
	rest := ""
	for i, r := range text {
		if !isIdentChar(byte(r)) {
			name, rest = text[:i], strings.TrimSpace(text[i:])
			break
		}
	}

	switch name {
	case "ifdef", "ifndef":
		if !p.live() {
			p.condStack = append(p.condStack, condState{taken: true, live: false, parentLive: false, line: line})
			return nil
		}
		id := firstIdent(rest)
		if id == "" {
			return p.errf(file, line, "#%s expects an identifier", name)
		}
		_, defined := p.macros[id]
		val := defined
		if name == "ifndef" {
			val = !val
		}
		p.condStack = append(p.condStack, condState{taken: val, live: val, parentLive: true, line: line})
		return nil
	case "if":
		if !p.live() {
			p.condStack = append(p.condStack, condState{taken: true, live: false, parentLive: false, line: line})
			return nil
		}
		v, err := p.evalCond(rest, file, line)
		if err != nil {
			return err
		}
		p.condStack = append(p.condStack, condState{taken: v, live: v, parentLive: true, line: line})
		return nil
	case "elif":
		if len(p.condStack) == 0 {
			return p.errf(file, line, "#elif without #if")
		}
		p.touchCond()
		c := &p.condStack[len(p.condStack)-1]
		if !c.parentLive || c.taken {
			c.live = false
			return nil
		}
		v, err := p.evalCond(rest, file, line)
		if err != nil {
			return err
		}
		c.live = v
		c.taken = v
		return nil
	case "else":
		if len(p.condStack) == 0 {
			return p.errf(file, line, "#else without #if")
		}
		p.touchCond()
		c := &p.condStack[len(p.condStack)-1]
		c.live = c.parentLive && !c.taken
		c.taken = true
		return nil
	case "endif":
		if len(p.condStack) == 0 {
			return p.errf(file, line, "#endif without #if")
		}
		p.touchCond()
		p.condStack = p.condStack[:len(p.condStack)-1]
		return nil
	}

	if !p.live() {
		return nil
	}

	switch name {
	case "define":
		return p.define(rest, file, line)
	case "undef":
		id := firstIdent(rest)
		if id == "" {
			return p.errf(file, line, "#undef expects an identifier")
		}
		p.setMacro(id, nil)
		return nil
	case "include":
		return p.include(rest, file, line, depth)
	case "error":
		return p.errf(file, line, "#error %s", rest)
	case "pragma":
		if strings.TrimSpace(rest) == "once" {
			p.addOnce(file)
		}
		return nil
	case "warning", "ident":
		return nil
	case "line":
		// Accepted and ignored: our line markers already carry positions.
		return nil
	default:
		return p.errf(file, line, "unknown directive #%s", name)
	}
}

func (p *Preprocessor) include(rest, file string, line, depth int) error {
	rest = strings.TrimSpace(rest)
	var name string
	switch {
	case strings.HasPrefix(rest, "\""):
		end := strings.Index(rest[1:], "\"")
		if end < 0 {
			return p.errf(file, line, "malformed #include")
		}
		name = rest[1 : 1+end]
	case strings.HasPrefix(rest, "<"):
		end := strings.Index(rest, ">")
		if end < 0 {
			return p.errf(file, line, "malformed #include")
		}
		name = rest[1:end]
	default:
		// Macro-expanded include argument. It must expand to one of the
		// two forms above; anything else would re-enter this branch
		// without end.
		toks := lexLine(rest, file, line)
		expanded, err := p.expand(toks, nil)
		if err != nil {
			return err
		}
		arg := strings.TrimSpace(joinTokens(expanded))
		if !strings.HasPrefix(arg, "\"") && !strings.HasPrefix(arg, "<") {
			return p.errf(file, line, "#include expects \"FILENAME\" or <FILENAME>")
		}
		return p.include(arg, file, line, depth)
	}
	content, path, err := p.load(name)
	if err != nil {
		// Try relative to the including file for "..." includes.
		if dir := filepath.Dir(file); dir != "." && strings.HasPrefix(rest, "\"") {
			if c2, p2, err2 := p.load(filepath.Join(dir, name)); err2 == nil {
				content, path, err = c2, p2, nil
			}
		}
		if err != nil {
			return p.errf(file, line, "%v", err)
		}
	}
	if p.once[path] {
		return nil
	}
	if err := p.includeFile(path, content, depth+1); err != nil {
		return err
	}
	p.marker(line+1, file)
	return nil
}

func (p *Preprocessor) define(rest, file string, line int) error {
	toks := lexLine(rest, file, line)
	if len(toks) == 0 || toks[0].kind != tokIdent {
		return p.errf(file, line, "#define expects an identifier")
	}
	m := &macro{name: toks[0].text}
	i := 1
	// Function-like only if '(' immediately follows the name (no space).
	if i < len(toks) && toks[i].kind == tokPunct && toks[i].text == "(" && !toks[i].spaceBefore {
		m.funcLike = true
		i++
		for i < len(toks) && !(toks[i].kind == tokPunct && toks[i].text == ")") {
			t := toks[i]
			switch {
			case t.kind == tokIdent:
				m.params = append(m.params, t.text)
			case t.kind == tokPunct && t.text == "...":
				m.variadic = true
				m.params = append(m.params, "__VA_ARGS__")
			case t.kind == tokPunct && t.text == ",":
				// separator
			default:
				return p.errf(file, line, "bad macro parameter list for %s", m.name)
			}
			i++
		}
		if i >= len(toks) {
			return p.errf(file, line, "unterminated macro parameter list for %s", m.name)
		}
		i++ // skip ')'
	}
	m.body = toks[i:]
	m.sum = macroSum(m)
	p.setMacro(m.name, m)
	return nil
}

// evalCond evaluates a #if / #elif controlling expression.
func (p *Preprocessor) evalCond(expr, file string, line int) (bool, error) {
	toks := lexLine(expr, file, line)
	// Handle defined(X) / defined X before macro expansion.
	var pre []token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind == tokIdent && t.text == "defined" {
			j := i + 1
			var id string
			if j < len(toks) && toks[j].kind == tokPunct && toks[j].text == "(" {
				if j+2 < len(toks) && toks[j+1].kind == tokIdent && toks[j+2].text == ")" {
					id = toks[j+1].text
					i = j + 2
				} else {
					return false, p.errf(file, line, "malformed defined()")
				}
			} else if j < len(toks) && toks[j].kind == tokIdent {
				id = toks[j].text
				i = j
			} else {
				return false, p.errf(file, line, "malformed defined")
			}
			v := "0"
			if _, ok := p.macros[id]; ok {
				v = "1"
			}
			pre = append(pre, token{kind: tokNumber, text: v, line: t.line})
			continue
		}
		pre = append(pre, t)
	}
	expanded, err := p.expand(pre, nil)
	if err != nil {
		return false, err
	}
	// Remaining identifiers evaluate to 0 per the C standard.
	for i := range expanded {
		if expanded[i].kind == tokIdent {
			expanded[i] = token{kind: tokNumber, text: "0", line: expanded[i].line}
		}
	}
	ev := condEval{toks: expanded, file: file, line: line, p: p}
	v, err := ev.parseExpr(0)
	if err != nil {
		return false, err
	}
	if ev.pos != len(ev.toks) {
		return false, p.errf(file, line, "trailing tokens in #if expression")
	}
	return v != 0, nil
}

// CheckPlainLines checks, for every logical line of src that names no
// macro beyond the builtins, that the fast rendering the preprocessor
// writes equals the joinTokens rendering of the expanded tokens. It
// returns the first line that differs; fuzz targets call it.
func CheckPlainLines(src string) error {
	p := New(MapLoader{})
	for _, ln := range splitLogicalLines(stripComments(src)) {
		fast, plain := p.plainLine(nil, ln.text)
		if !plain {
			continue
		}
		expanded, err := p.expand(lexLine(ln.text, "", ln.line), nil)
		if err != nil {
			return fmt.Errorf("line %d: plain line fails to expand: %v", ln.line, err)
		}
		if slow := joinTokens(expanded); string(fast) != slow {
			return fmt.Errorf("line %d: fast path wrote %q, token path %q", ln.line, fast, slow)
		}
	}
	return nil
}
