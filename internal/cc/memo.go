package cc

import (
	"sync"

	"cla/internal/srchash"
)

// Chunk is one run of preprocessed text; a unit is the concatenation of
// its chunks.
type Chunk struct {
	Text string
	// Shared marks text that other units of the compile phase splice in
	// too: a memoized header's output. A shared chunk that opens with a
	// line marker is lexed once per Memo, and the external declarations
	// it holds are parsed once per file-scope typedef set.
	Shared bool
}

// Memo holds the tokens and declarations of shared chunks for the units
// of one compile phase. It is safe for concurrent use. What it hands out
// is shared between units and never modified: the type checker and the
// lowering only read the syntax tree.
type Memo struct {
	mu    sync.Mutex
	lexed map[string]*lexed
	decls map[declKey]*declRun
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{lexed: map[string]*lexed{}, decls: map[declKey]*declRun{}}
}

// declKey names the declarations of a shared chunk parsed from one
// file-scope typedef set.
type declKey struct {
	text     string
	typedefs uint64
}

// declRun is a shared chunk's external declarations and, in order, the
// file-scope names they declare.
type declRun struct {
	decls []ExtDecl
	names []fileName
}

type fileName struct {
	name    string
	typedef bool
}

// region is a shared chunk's span of the unit's token stream.
type region struct {
	text       string
	start, end int
}

// ParseChunks parses the concatenation of chunks, as Parse does the
// joined text, taking shared chunks' tokens and declarations from m (a
// fresh memo when nil).
func ParseChunks(name string, chunks []Chunk, m *Memo) (*TranslationUnit, error) {
	if m == nil {
		m = NewMemo()
	}
	lexes := make([]*lexed, len(chunks))
	shared := make([]bool, len(chunks))
	errs := &ErrorList{}
	at := Pos{name, 1}
	n := 1
	for i, c := range chunks {
		if shared[i] = c.Shared && startsWithMarker(c.Text); shared[i] {
			lexes[i] = m.lex(c.Text)
		} else {
			lexes[i] = lex(c.Text, at)
		}
		for _, err := range lexes[i].errs.Errs {
			if len(errs.Errs) < 20 {
				errs.Errs = append(errs.Errs, err)
			}
		}
		at = lexes[i].end
		n += len(lexes[i].toks)
	}
	if err := errs.Err(); err != nil {
		return nil, err
	}
	toks := make([]Token, 0, n)
	var regions []region
	for i, lx := range lexes {
		if shared[i] {
			regions = append(regions, region{chunks[i].Text, len(toks), len(toks) + len(lx.toks)})
		}
		toks = append(toks, lx.toks...)
	}
	return newParser(append(toks, Token{Kind: EOF, Pos: at})).parseUnit(name, regions, m)
}

// lex returns the tokens of a text that opens with a line marker.
func (m *Memo) lex(text string) *lexed {
	m.mu.Lock()
	lx := m.lexed[text]
	m.mu.Unlock()
	if lx != nil {
		return lx
	}
	lx = lex(text, Pos{})
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.lexed[text]; old != nil {
		return old
	}
	m.lexed[text] = lx
	return lx
}

// parseRegion parses a shared region's declarations onto decls, or
// splices them from the memo. A parse is stored only if it starts and
// ends at file scope exactly on the region's bounds without an error:
// every external declaration ends on a ';' or '}' that is consumed
// without looking further, so such a parse does not depend on the tokens
// around the region.
func (p *Parser) parseRegion(decls []ExtDecl, r region, m *Memo) []ExtDecl {
	if len(p.scopes) != 1 {
		return p.externalDecl(decls)
	}
	key := declKey{r.text, p.typedefs}
	m.mu.Lock()
	run := m.decls[key]
	m.mu.Unlock()
	if run != nil {
		for _, n := range run.names {
			p.declareName(n.name, n.typedef)
		}
		p.pos = r.end
		return append(decls, run.decls...)
	}
	first := len(decls)
	p.logging, p.fileNames = true, p.fileNames[:0]
	for p.pos < r.end && !p.at(EOF) {
		decls = p.externalDecl(decls)
	}
	p.logging = false
	if p.pos == r.end && len(p.scopes) == 1 && len(p.errs.Errs) == 0 {
		run = &declRun{
			decls: append([]ExtDecl(nil), decls[first:]...),
			names: append([]fileName(nil), p.fileNames...),
		}
		m.mu.Lock()
		if m.decls[key] == nil {
			m.decls[key] = run
		}
		m.mu.Unlock()
	}
	return decls
}

// nameSum is a typedef name's share of Parser.typedefs.
func nameSum(name string) uint64 {
	return srchash.Mix(srchash.FoldString(srchash.Offset(), name))
}
