package incr

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cla/internal/frontend"
	"cla/internal/objfile"
	"cla/internal/srchash"
)

// store is the pipeline's on-disk unit cache: one .clo object file plus
// one .manifest per (unit path, compile options) entry, both named by
// the srchash of that pair. The manifest records the dependency closure
// the cached compile read — "path\thash" per line, sorted — and an entry
// is valid only while every listed file still hashes the same, so the
// store is keyed by content end to end and never needs invalidation
// logic. A load returns the dependency closure alongside the program,
// which the pipeline's dirty tracking needs. It is the only unit cache:
// workspaces (CacheDir) and clacc -cache share it.
type store struct {
	dir string
}

// openStore opens (creating if needed) the store in dir; an empty dir
// means no store and yields nil.
func openStore(dir string) (*store, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &store{dir: dir}, nil
}

func (s *store) base(unitPath string, opts frontend.Options) string {
	return srchash.String("unit:" + canon(unitPath) + ";opts:" + optsFingerprint(opts))
}

// load returns the cached unit for unitPath if its manifest's whole
// closure still matches the files on disk (hashed through hc, so shared
// headers are read once per refresh).
func (s *store) load(unitPath string, opts frontend.Options, hc *hashCache) (*unit, bool) {
	base := s.base(unitPath, opts)
	mb, err := os.ReadFile(filepath.Join(s.dir, base+".manifest"))
	if err != nil {
		return nil, false
	}
	var deps []dep
	for _, line := range strings.Split(strings.TrimSpace(string(mb)), "\n") {
		path, want, found := strings.Cut(line, "\t")
		if !found || hc.hash(path) != want {
			return nil, false
		}
		deps = append(deps, dep{path: path, hash: want})
	}
	if len(deps) == 0 {
		return nil, false
	}
	r, err := objfile.Open(filepath.Join(s.dir, base+".clo"))
	if err != nil {
		return nil, false
	}
	prog, err := r.Program()
	r.Close()
	if err != nil {
		return nil, false
	}
	return &unit{path: unitPath, prog: prog, deps: deps}, true
}

// save writes u's object and manifest. Failures are swallowed — the
// store is an accelerator, never a correctness dependency.
func (s *store) save(u *unit, opts frontend.Options) {
	base := s.base(u.path, opts)
	if err := objfile.WriteFile(filepath.Join(s.dir, base+".clo"), u.prog); err != nil {
		return
	}
	var mb strings.Builder
	for _, d := range u.deps {
		fmt.Fprintf(&mb, "%s\t%s\n", d.path, d.hash)
	}
	os.WriteFile(filepath.Join(s.dir, base+".manifest"), []byte(mb.String()), 0o644)
}
