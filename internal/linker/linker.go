// Package linker implements the CLA link phase: it merges the object
// databases of many translation units into one database with the same
// format, unifying global symbols (variables, functions, struct fields and
// the standardized parameter/return symbols) by name and recomputing the
// block and target indexes via the object-file writer.
package linker

import (
	"fmt"
	"path/filepath"
	"slices"

	"cla/internal/objfile"
	"cla/internal/obs"
	"cla/internal/prim"
)

// Link merges unit databases into a single program in one left fold over
// the units in order. Symbols with external linkage are unified by name;
// internal symbols (locals, temporaries, statics, heap sites) stay
// distinct. Function records for the same function are merged, preferring
// complete information.
//
// The output is sized before the fold. Assignments, call sites and
// internal symbols are never deduplicated, so their counts are exact.
// Linked-by-name symbols are mostly declarations repeated from shared
// headers, so their sum would allocate several times what survives
// (288k unit symbols for 40k linked ones on gimp@0.25). An external
// object or function is defined in one unit, so the defined ones are
// counted whole, and the shared declarations are bounded by the largest
// unit's count; the estimate is capped at the sum. Function records
// follow the same header pattern and start at twice the largest unit's.
func Link(units []*prim.Program) (*prim.Program, error) {
	var nAssigns, nCalls, nInternal, nLinked, nDefined, maxLinked, maxFuncs int
	for _, u := range units {
		linked := 0
		for i := range u.Syms {
			if s := &u.Syms[i]; s.LinksByName() {
				linked++
				if s.Defined {
					nDefined++
				}
			}
		}
		nAssigns += len(u.Assigns)
		nCalls += len(u.Calls)
		nInternal += len(u.Syms) - linked
		nLinked += linked
		maxLinked = max(maxLinked, linked)
		maxFuncs = max(maxFuncs, len(u.Funcs))
	}
	nGlobals := min(nLinked, nDefined+maxLinked)
	out := &prim.Program{
		Syms:    make([]prim.Symbol, 0, nInternal+nGlobals),
		Assigns: make([]prim.Assign, 0, nAssigns),
		Calls:   make([]prim.CallSite, 0, nCalls),
		Funcs:   make([]prim.FuncRecord, 0, 2*maxFuncs),
	}
	globals := make(map[string]prim.SymID, nGlobals)
	recIdx := make(map[prim.SymID]int, 2*maxFuncs)

	var remap []prim.SymID
	for ui, u := range units {
		remap = slices.Grow(remap[:0], len(u.Syms))[:len(u.Syms)]
		for i := range u.Syms {
			s := &u.Syms[i]
			if !s.LinksByName() {
				remap[i] = out.AddSym(*s)
				continue
			}
			if id, ok := globals[s.Name]; ok {
				// Merge attributes into the canonical symbol.
				canon := out.Sym(id)
				if s.Kind != canon.Kind && !compatibleKinds(s.Kind, canon.Kind) {
					return nil, fmt.Errorf(
						"linker: symbol %q is %v in unit %d but %v earlier",
						s.Name, s.Kind, ui, canon.Kind)
				}
				canon.FuncPtr = canon.FuncPtr || s.FuncPtr
				canon.Defined = canon.Defined || s.Defined
				if canon.Type == "" {
					canon.Type = s.Type
				}
				if canon.Loc.IsZero() {
					canon.Loc = s.Loc
				}
				remap[i] = id
				continue
			}
			id := out.AddSym(*s)
			globals[s.Name] = id
			remap[i] = id
		}

		for _, a := range u.Assigns {
			if int(a.Dst) < 0 || int(a.Dst) >= len(remap) ||
				int(a.Src) < 0 || int(a.Src) >= len(remap) {
				return nil, fmt.Errorf("linker: unit %d has assignment with bad symbol", ui)
			}
			a.Dst = remap[a.Dst]
			a.Src = remap[a.Src]
			out.AddAssign(a)
		}

		for _, c := range u.Calls {
			if int(c.Callee) < 0 || int(c.Callee) >= len(remap) {
				return nil, fmt.Errorf("linker: unit %d has call site with bad symbol", ui)
			}
			c.Callee = remap[c.Callee]
			out.AddCall(c)
		}

		bad := func(id prim.SymID) bool { return int(id) < 0 || int(id) >= len(remap) }
		for _, f := range u.Funcs {
			if bad(f.Func) || (f.Ret != prim.NoSym && bad(f.Ret)) || slices.ContainsFunc(f.Params, bad) {
				return nil, fmt.Errorf("linker: unit %d has function record with bad symbol", ui)
			}
			fn := remap[f.Func]
			ret := prim.NoSym
			if f.Ret != prim.NoSym {
				ret = remap[f.Ret]
			}
			if idx, ok := recIdx[fn]; ok {
				rec := &out.Funcs[idx]
				if len(f.Params) > len(rec.Params) {
					rec.Params = remapAll(f.Params, remap)
				}
				if rec.Ret == prim.NoSym {
					rec.Ret = ret
				}
				rec.Variadic = rec.Variadic || f.Variadic
				continue
			}
			recIdx[fn] = len(out.Funcs)
			out.Funcs = append(out.Funcs, prim.FuncRecord{
				Func: fn, Params: remapAll(f.Params, remap), Ret: ret, Variadic: f.Variadic,
			})
		}
	}
	return out, nil
}

// remapAll translates unit symbol ids to linked ones; an empty list stays
// nil.
func remapAll(ids, remap []prim.SymID) []prim.SymID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]prim.SymID, len(ids))
	for i, id := range ids {
		out[i] = remap[id]
	}
	return out
}

// LinkParallel is Link. The jobs argument is ignored: one left fold costs
// less than any tree of pairwise merges, which copies the program once
// per level.
//
// Deprecated: use Link.
func LinkParallel(units []*prim.Program, jobs int) (*prim.Program, error) {
	return Link(units)
}

// LinkObs is Link under an observer: the merge runs inside a "link" span
// and the unit count is published as link.units. The nil observer costs
// nothing.
func LinkObs(units []*prim.Program, o *obs.Observer) (*prim.Program, error) {
	sp := o.Start("link")
	defer sp.End()
	o.SetCounter("link.units", int64(len(units)))
	return Link(units)
}

// compatibleKinds reports whether two linked symbol kinds may unify.
// Real C code base headers sometimes declare an object in one unit and
// define a function elsewhere under the same name guard; we allow func/
// global unification (the function identity wins downstream via records).
func compatibleKinds(a, b prim.SymKind) bool {
	isObj := func(k prim.SymKind) bool {
		return k == prim.SymGlobal || k == prim.SymFunc
	}
	return isObj(a) && isObj(b)
}

// LinkFiles opens, decodes and links the named object files.
func LinkFiles(paths []string) (*prim.Program, error) {
	return LinkFilesObs(paths, nil)
}

// LinkFilesObs is LinkFiles under an observer: the decodes run as child
// spans of a "read" phase, the merge inside a "link" phase. The nil
// observer costs nothing.
func LinkFilesObs(paths []string, o *obs.Observer) (*prim.Program, error) {
	sp := o.Start("read")
	var units []*prim.Program
	for _, path := range paths {
		fsp := sp.Child("read " + filepath.Base(path))
		r, err := objfile.Open(path)
		if err != nil {
			fsp.End()
			sp.End()
			return nil, fmt.Errorf("linker: %w", err)
		}
		p, err := r.Program()
		r.Close()
		fsp.End()
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("linker: %s: %w", path, err)
		}
		units = append(units, p)
	}
	sp.End()
	return LinkObs(units, o)
}
