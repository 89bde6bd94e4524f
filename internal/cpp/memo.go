package cpp

import (
	"sync"

	"cla/internal/srchash"
)

// Memo records what including a header did — its output pieces, the
// macro and #pragma once changes, and the nested loads — so that a later
// include of the same content in the same state replays the record
// instead of expanding the header again. An include is recorded from the
// second time its key is seen, so headers that each unit includes in a
// different state hold no memory. It is safe for concurrent use by the
// preprocessors of one compile phase; a record is never modified once
// stored.
type Memo struct {
	mu      sync.Mutex
	seen    map[memoKey]bool // keys included at least once
	entries map[memoKey]*entry
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{seen: map[memoKey]bool{}, entries: map[memoKey]*entry{}}
}

// memoKey is everything an include's outcome depends on besides the
// loader: the header, where it sits in the include nesting, and the
// macro table and once set it starts from.
type memoKey struct {
	path            string
	hash            uint64 // srchash of the content
	depth, maxDepth int
	macros, once    uint64 // macroSum and onceSum at entry
}

// entry is the record of one successful include.
type entry struct {
	content string // the header's text, compared on a hit
	effects
}

// effects are the replayable results of preprocessing a stretch of
// input, in order.
type effects struct {
	pieces []*Piece
	macros []macroEdit
	once   []string
	loads  []load
}

// macroEdit is one #define (m set) or #undef (m nil).
type macroEdit struct {
	name string
	m    *macro
}

// load is one call to the Loader.
type load struct {
	name, path, content string
	ok                  bool
}

// recording marks where an include's effects start in the output and
// in Preprocessor.log.
type recording struct {
	key                 memoKey
	pieces              int
	macros, once, loads int
	condBase            int
	poisoned            bool // the header changed an enclosing #if
}

// lookup returns the entry stored under k, if any, and whether an
// include under k is to be recorded: true once k has been seen before.
func (m *Memo) lookup(k memoKey) (*entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	record := m.seen[k]
	m.seen[k] = true
	return m.entries[k], record
}

// put stores e under k. An entry stored meanwhile for the same key is
// replaced: the newer one saw the newer nested headers.
func (m *Memo) put(k memoKey, e *entry) {
	m.mu.Lock()
	m.entries[k] = e
	m.mu.Unlock()
}

// includeFile preprocesses an included header, from the memo when a
// record for the same key replays.
func (p *Preprocessor) includeFile(path, content string, depth int) error {
	p.flush()
	k := memoKey{path: path, hash: srchash.FoldString(srchash.Offset(), content),
		depth: depth, maxDepth: p.maxDepth(), macros: p.macroSum, once: p.onceSum}
	e, record := p.Memo.lookup(k)
	if e != nil && e.content == content && p.replay(e) {
		return nil
	}
	var r *recording
	if record {
		r = &recording{key: k, pieces: len(p.pieces), macros: len(p.log.macros),
			once: len(p.log.once), loads: len(p.log.loads), condBase: len(p.condStack)}
		p.recs = append(p.recs, r)
	}
	err := p.processFile(path, content, depth)
	p.flush()
	if r == nil {
		return err
	}
	p.recs = p.recs[:len(p.recs)-1]
	if err == nil && !r.poisoned {
		p.store(r, content)
	}
	if len(p.recs) == 0 {
		p.log = effects{}
	}
	return err
}

// store records the effects since r began as a memo entry.
func (p *Preprocessor) store(r *recording, content string) {
	e := &entry{content: content, effects: effects{
		pieces: append([]*Piece(nil), p.pieces[r.pieces:]...),
		macros: append([]macroEdit(nil), p.log.macros[r.macros:]...),
		once:   append([]string(nil), p.log.once[r.once:]...),
		loads:  append([]load(nil), p.log.loads[r.loads:]...),
	}}
	for _, pc := range e.pieces {
		if !pc.Shared {
			pc.Shared = true
		}
	}
	p.Memo.put(r.key, e)
}

// replay applies a memo entry. It first repeats the entry's loads
// through the loader, so the loader sees the same reads as a real
// include, and gives up without changing any state if one no longer
// returns the recorded file.
func (p *Preprocessor) replay(e *entry) bool {
	for _, l := range e.loads {
		c, path, err := p.Loader.Load(l.name)
		if (err == nil) != l.ok || (err == nil && (path != l.path || c != l.content)) {
			return false
		}
	}
	if len(p.recs) > 0 {
		p.log.loads = append(p.log.loads, e.loads...)
	}
	for _, ed := range e.macros {
		p.setMacro(ed.name, ed.m)
	}
	for _, f := range e.once {
		p.addOnce(f)
	}
	p.pieces = append(p.pieces, e.pieces...)
	return true
}

// load calls the loader and logs the call for open recordings.
func (p *Preprocessor) load(name string) (string, string, error) {
	content, path, err := p.Loader.Load(name)
	if len(p.recs) > 0 {
		p.log.loads = append(p.log.loads, load{name: name, path: path, content: content, ok: err == nil})
	}
	return content, path, err
}

// setMacro defines name as m, or undefines it when m is nil. m.sum must
// be set.
func (p *Preprocessor) setMacro(name string, m *macro) {
	if old := p.macros[name]; old != nil {
		p.macroSum ^= old.sum
		delete(p.macros, name)
	}
	if m != nil {
		p.macroSum ^= m.sum
		p.macros[name] = m
	}
	if len(p.recs) > 0 {
		p.log.macros = append(p.log.macros, macroEdit{name, m})
	}
}

// addOnce marks file as guarded by #pragma once.
func (p *Preprocessor) addOnce(file string) {
	if p.once[file] {
		return
	}
	p.once[file] = true
	p.onceSum ^= srchash.Mix(srchash.FoldString(srchash.Offset(), file))
	if len(p.recs) > 0 {
		p.log.once = append(p.log.once, file)
	}
}

// touchCond notes that a directive changed the innermost #if. A header
// whose directives reach an #if opened outside it is not memoized.
func (p *Preprocessor) touchCond() {
	top := len(p.condStack) - 1
	for _, r := range p.recs {
		if top < r.condBase {
			r.poisoned = true
		}
	}
}

// macroSum digests a definition. Token lines are left out: expansion
// stamps every token with the line of the use.
func macroSum(m *macro) uint64 {
	h := srchash.FoldU32(srchash.Offset(), uint32(len(m.name)))
	h = srchash.FoldString(h, m.name)
	var flags uint32
	if m.funcLike {
		flags |= 1
	}
	if m.variadic {
		flags |= 2
	}
	h = srchash.FoldU32(h, flags)
	h = srchash.FoldU32(h, uint32(len(m.params)))
	for _, s := range m.params {
		h = srchash.FoldU32(h, uint32(len(s)))
		h = srchash.FoldString(h, s)
	}
	for _, t := range m.body {
		space := uint32(0)
		if t.spaceBefore {
			space = 1
		}
		h = srchash.FoldU32(h, uint32(t.kind)|space<<8|uint32(len(t.text))<<9)
		h = srchash.FoldString(h, t.text)
	}
	return srchash.Mix(h)
}
