package frontend

import (
	"fmt"

	"cla/internal/cc"
	"cla/internal/cpp"
	"cla/internal/ctypes"
	"cla/internal/prim"
)

// CompileSource runs the full compile phase on one source text:
// preprocess, parse, type-check, lower. loader resolves #include (nil
// allows no includes). Parse errors abort; type diagnoses do not (legacy C
// tolerance), matching the paper's robustness requirement.
func CompileSource(name, src string, loader cpp.Loader, opts Options) (*prim.Program, error) {
	return NewMemo().CompileSource(name, src, loader, opts)
}

// Memo shares header work between the units of one compile phase: each
// header is expanded, lexed and parsed once per key (see cpp.Memo and
// cc.Memo) and its output, tokens and file-scope declarations are
// spliced into every unit that includes it. Type checking and lowering
// stay per unit, so a unit's database is the same with or without other
// units sharing the memo. A Memo is safe for concurrent use; drop it
// when the phase ends, since it holds the syntax of every header
// included twice in the same state.
type Memo struct {
	cpp *cpp.Memo
	cc  *cc.Memo
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{cpp: cpp.NewMemo(), cc: cc.NewMemo()} }

// CompileSource is the package-level CompileSource sharing m.
func (m *Memo) CompileSource(name, src string, loader cpp.Loader, opts Options) (*prim.Program, error) {
	if loader == nil {
		loader = cpp.MapLoader{}
	}
	pp := cpp.New(loader)
	pp.Memo = m.cpp
	for k, v := range opts.Defines {
		pp.Define(k, v)
	}
	pieces, err := pp.PreprocessPieces(name, src)
	if err != nil {
		return nil, fmt.Errorf("preprocess %s: %w", name, err)
	}
	chunks := make([]cc.Chunk, len(pieces))
	for i, pc := range pieces {
		chunks[i] = cc.Chunk{Text: pc.Text, Shared: pc.Shared}
	}
	unit, err := cc.ParseChunks(name, chunks, m.cc)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	ck := ctypes.Check(unit)
	return Compile(ck, opts), nil
}

// FormatAssign renders an assignment with symbol names, for tests, tools
// and dependence-chain output.
func FormatAssign(p *prim.Program, a prim.Assign) string {
	dst := p.Sym(a.Dst).Name
	src := p.Sym(a.Src).Name
	switch a.Kind {
	case prim.Simple:
		return dst + " = " + src
	case prim.Base:
		return dst + " = &" + src
	case prim.StoreInd:
		return "*" + dst + " = " + src
	case prim.LoadInd:
		return dst + " = *" + src
	case prim.CopyInd:
		return "*" + dst + " = *" + src
	}
	return "?"
}
