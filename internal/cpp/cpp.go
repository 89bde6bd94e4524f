// Package cpp implements a C preprocessor sufficient for the CLA compile
// phase: comments, line splicing, #include, object- and function-like
// macros with # and ## operators, conditional compilation with full
// constant-expression evaluation, #undef, #line, #error and #pragma.
//
// The output is a single preprocessed text with GCC-style line markers
// (`# <line> "<file>"`) so the downstream lexer can report locations in the
// original sources.
package cpp

import (
	"fmt"
	"os"
	"path/filepath"
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

// macro is a stored macro definition.
type macro struct {
	name     string
	funcLike bool
	params   []string
	variadic bool
	body     []token // tokens of the replacement list
}

// Preprocessor holds macro state across files.
type Preprocessor struct {
	Loader    Loader
	MaxDepth  int // include nesting limit; 0 means default (64)
	macros    map[string]*macro
	out       strings.Builder
	condStack []condState
	expandDep int
	curFile   string          // file currently being expanded, for __FILE__
	once      map[string]bool // files guarded by #pragma once
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
	p := &Preprocessor{Loader: loader, macros: map[string]*macro{}, once: map[string]bool{}}
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
	p.macros[name] = &macro{name: name, body: toks}
}

// Preprocess runs the preprocessor over the named file's content and
// returns the expanded text with line markers.
func (p *Preprocessor) Preprocess(name, content string) (string, error) {
	p.out.Reset()
	p.condStack = p.condStack[:0]
	if err := p.processFile(name, content, 0); err != nil {
		return "", err
	}
	if len(p.condStack) != 0 {
		return "", &Error{File: name, Line: p.condStack[len(p.condStack)-1].line, Msg: "unterminated #if"}
	}
	return p.out.String(), nil
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

func (p *Preprocessor) marker(line int, file string) {
	fmt.Fprintf(&p.out, "# %d %q\n", line, file)
}

func (p *Preprocessor) processFile(name, content string, depth int) error {
	maxDepth := p.MaxDepth
	if maxDepth == 0 {
		maxDepth = 64
	}
	if depth > maxDepth {
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
		toks := lexLine(text, name, ln.line)
		expanded, err := p.expand(toks, map[string]bool{})
		if err != nil {
			return err
		}
		p.marker(ln.line, name)
		p.out.WriteString(joinTokens(expanded))
		p.out.WriteByte('\n')
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
			fmt.Fprintf(&p.out, "# %s\n", text)
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
		c := &p.condStack[len(p.condStack)-1]
		c.live = c.parentLive && !c.taken
		c.taken = true
		return nil
	case "endif":
		if len(p.condStack) == 0 {
			return p.errf(file, line, "#endif without #if")
		}
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
		delete(p.macros, id)
		return nil
	case "include":
		return p.include(rest, file, line, depth)
	case "error":
		return p.errf(file, line, "#error %s", rest)
	case "pragma":
		if strings.TrimSpace(rest) == "once" {
			p.once[file] = true
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
		expanded, err := p.expand(toks, map[string]bool{})
		if err != nil {
			return err
		}
		arg := strings.TrimSpace(joinTokens(expanded))
		if !strings.HasPrefix(arg, "\"") && !strings.HasPrefix(arg, "<") {
			return p.errf(file, line, "#include expects \"FILENAME\" or <FILENAME>")
		}
		return p.include(arg, file, line, depth)
	}
	content, path, err := p.Loader.Load(name)
	if err != nil {
		// Try relative to the including file for "..." includes.
		if dir := filepath.Dir(file); dir != "." && strings.HasPrefix(rest, "\"") {
			if c2, p2, err2 := p.Loader.Load(filepath.Join(dir, name)); err2 == nil {
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
	if err := p.processFile(path, content, depth+1); err != nil {
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
	p.macros[m.name] = m
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
	expanded, err := p.expand(pre, map[string]bool{})
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
