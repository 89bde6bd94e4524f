package snapfile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cla/internal/prim"
	"cla/internal/pts/set"
	"cla/internal/srchash"
)

// stringPool interns strings into a length-prefixed pool referenced by
// byte offset, offset 0 always the empty string (the object format's).
type stringPool struct {
	buf  []byte
	offs map[string]uint32
}

func newStringPool() *stringPool {
	p := &stringPool{offs: map[string]uint32{}}
	p.add("")
	return p
}

func (p *stringPool) add(s string) uint32 {
	if off, ok := p.offs[s]; ok {
		return off
	}
	off := uint32(len(p.buf))
	var lenBuf [4]byte
	le.PutUint32(lenBuf[:], uint32(len(s)))
	p.buf = append(p.buf, lenBuf[:]...)
	p.buf = append(p.buf, s...)
	p.offs[s] = off
	return off
}

type secBuf struct{ b []byte }

func (s *secBuf) u8(v uint8)   { s.b = append(s.b, v) }
func (s *secBuf) u32(v uint32) { var t [4]byte; le.PutUint32(t[:], v); s.b = append(s.b, t[:]...) }
func (s *secBuf) u64(v uint64) { var t [8]byte; le.PutUint64(t[:], v); s.b = append(s.b, t[:]...) }
func (s *secBuf) i32(v int32)  { s.u32(uint32(v)) }

// symID encodes prim.NoSym as the all-ones pattern.
func symID(id prim.SymID) uint32 {
	if id == prim.NoSym {
		return 0xffffffff
	}
	return uint32(id)
}

// Write serializes the solved snapshot to w. The output is a pure
// function of the Snapshot's contents: the solved relation is
// deterministic at any -j, so every section except meta is
// byte-identical at any worker count — the property the header's result
// digest certifies. (Meta carries pts.Metrics, whose execution-trace
// counters — waves, cache hits — legitimately vary with the schedule.)
func Write(w io.Writer, s *Snapshot) error {
	if s.Prog == nil || s.Res == nil {
		return fmt.Errorf("snapfile: nil program or result")
	}
	prog := s.Prog
	pool := newStringPool()
	var sections [numSections]secBuf

	// Symbols, the object format's record.
	syms := &sections[secSymbols]
	syms.u32(uint32(len(prog.Syms)))
	for i := range prog.Syms {
		sym := &prog.Syms[i]
		syms.u32(pool.add(sym.Name))
		syms.u32(pool.add(sym.Type))
		syms.u32(pool.add(sym.Loc.File))
		syms.u32(pool.add(sym.FuncName))
		syms.i32(sym.Loc.Line)
		syms.u8(uint8(sym.Kind))
		flags := uint8(0)
		if sym.FuncPtr {
			flags |= flagFuncPtr
		}
		if sym.Internal {
			flags |= flagInternal
		}
		if sym.Defined {
			flags |= flagDefined
		}
		syms.u8(flags)
		syms.u8(0)
		syms.u8(0)
	}

	// Assignments in original order — the whole database, so a MemSource
	// rebuilt from the snapshot blocks identically to the live one.
	asg := &sections[secAssigns]
	asg.u32(uint32(len(prog.Assigns)))
	for _, a := range prog.Assigns {
		asg.u32(symID(a.Dst))
		asg.u32(symID(a.Src))
		asg.u32(pool.add(a.Loc.File))
		asg.i32(a.Loc.Line)
		asg.u32(pool.add(a.Func))
		asg.u8(uint8(a.Kind))
		asg.u8(uint8(a.Op))
		asg.u8(uint8(a.Strength))
		asg.u8(0)
	}

	// Function records.
	funcs := &sections[secFuncs]
	funcs.u32(uint32(len(prog.Funcs)))
	for _, f := range prog.Funcs {
		funcs.u32(symID(f.Func))
		funcs.u32(symID(f.Ret))
		if f.Variadic {
			funcs.u8(1)
		} else {
			funcs.u8(0)
		}
		funcs.u8(0)
		funcs.u8(0)
		funcs.u8(0)
		funcs.u32(uint32(len(f.Params)))
		for _, p := range f.Params {
			funcs.u32(symID(p))
		}
	}

	// Call sites.
	calls := &sections[secCalls]
	calls.u32(uint32(len(prog.Calls)))
	for _, c := range prog.Calls {
		calls.u32(symID(c.Callee))
		calls.u32(pool.add(c.Loc.File))
		calls.i32(c.Loc.Line)
		calls.u32(pool.add(c.Caller))
		calls.u32(uint32(c.Args))
		if c.Indirect {
			calls.u8(1)
		} else {
			calls.u8(0)
		}
		calls.u8(0)
		calls.u8(0)
		calls.u8(0)
	}

	// Points-to sets, interned through the shared sealed-set layer so
	// each distinct payload is stored once and referenced by id.
	// Ascending symbol order makes id assignment (and the file)
	// deterministic; the result digest folds every symbol's elements.
	ptsIdx := &sections[secPtsIdx]
	setIdx := &sections[secSetIdx]
	elems := &sections[secElems]
	var (
		b       set.Builder
		table   = set.NewTable()
		setID   = map[*set.Set]uint32{}
		scratch []uint32
		nextID  uint32
		nElems  uint64
		digest  = fnvOffset
	)
	ptsIdx.u32(uint32(len(prog.Syms)))
	var starts []uint64
	var lengths []uint32
	for i := range prog.Syms {
		targets := s.Res.PointsTo(prim.SymID(i))
		if len(targets) == 0 {
			ptsIdx.u32(noSet)
			continue
		}
		digest = fnv1aU32(digest, uint32(i))
		digest = fnv1aU32(digest, uint32(len(targets)))
		b.Reset()
		b.MergeSyms(targets)
		sealed := b.Seal(nil, table)
		id, ok := setID[sealed]
		if !ok {
			id = nextID
			nextID++
			setID[sealed] = id
			scratch = sealed.AppendU32(scratch[:0])
			starts = append(starts, nElems)
			lengths = append(lengths, uint32(len(scratch)))
			for _, x := range scratch {
				elems.u32(x)
			}
			nElems += uint64(len(scratch))
		}
		// The digest covers the elements per symbol (not per distinct
		// set), so it certifies the full relation.
		for _, x := range targets {
			digest = fnv1aU32(digest, uint32(x))
		}
		ptsIdx.u32(id)
	}
	setIdx.u32(nextID)
	setIdx.u32(0)
	for i := range starts {
		setIdx.u64(starts[i])
		setIdx.u32(lengths[i])
		setIdx.u32(0)
	}

	// Meta and report JSON sections.
	meta := Meta{
		Solver:   s.Solver,
		ExtModel: s.ExtModel,
		Syms:     len(prog.Syms),
		Assigns:  len(prog.Assigns),
		Sets:     int(nextID),
		Elems:    int(nElems),
		Metrics:  s.Res.Metrics(),
		Sources:  s.Sources,
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("snapfile: encode meta: %w", err)
	}
	sections[secMeta].b = metaJSON
	repJSON, err := json.Marshal(reportBlob{Report: s.Report, Audit: s.Audit})
	if err != nil {
		return fmt.Errorf("snapfile: encode report: %w", err)
	}
	sections[secReport].b = repJSON
	sections[secStrings].b = pool.buf

	// Header + 8-byte-aligned section table.
	var hdr secBuf
	hdr.b = append(hdr.b, Magic...)
	hdr.u32(Version)
	hdr.u64(digest)
	hdr.u64(sourceDigest(s.Sources))
	off := uint64(align8(headerSize))
	offs := make([]uint64, numSections)
	for i := range sections {
		offs[i] = off
		off += uint64(align8(len(sections[i].b)))
	}
	hdr.u64(off) // total file size
	hdr.u32(numSections)
	hdr.u32(0)
	for i := range sections {
		hdr.u64(offs[i])
		hdr.u64(uint64(len(sections[i].b)))
	}

	bw := bufio.NewWriter(w)
	if err := writePadded(bw, hdr.b); err != nil {
		return err
	}
	for i := range sections {
		if err := writePadded(bw, sections[i].b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// writePadded writes b followed by zero padding to an 8-byte boundary.
func writePadded(w io.Writer, b []byte) error {
	if _, err := w.Write(b); err != nil {
		return err
	}
	if pad := align8(len(b)) - len(b); pad > 0 {
		var zeros [8]byte
		if _, err := w.Write(zeros[:pad]); err != nil {
			return err
		}
	}
	return nil
}

// Save serializes the snapshot to the named file.
func Save(path string, s *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// HashFile records one input file's identity for staleness detection,
// using the toolkit-wide srchash scheme so the snapshot staleness check
// can never desynchronize from the incremental pipeline's unit store.
func HashFile(path string) (SourceFile, error) {
	hash, size, err := srchash.File(path)
	if err != nil {
		return SourceFile{}, err
	}
	return SourceFile{Path: path, Size: size, Hash: hash}, nil
}

// HashSources records every named input, in the given order.
func HashSources(paths []string) ([]SourceFile, error) {
	out := make([]SourceFile, 0, len(paths))
	for _, p := range paths {
		sf, err := HashFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, sf)
	}
	return out, nil
}

// sourceDigest folds the source records into one u64 for the header.
func sourceDigest(srcs []SourceFile) uint64 {
	h := fnvOffset
	for _, s := range srcs {
		h = fnv1a(h, []byte(s.Path))
		h = fnv1a(h, []byte{0})
		h = fnv1aU32(h, uint32(s.Size))
		h = fnv1aU32(h, uint32(s.Size>>32))
		h = fnv1a(h, []byte(s.Hash))
		h = fnv1a(h, []byte{'\n'})
	}
	return h
}
