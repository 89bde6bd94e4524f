package serve

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cla/internal/checks"
	"cla/internal/claerr"
	"cla/internal/core"
	"cla/internal/driver"
	"cla/internal/extmodel"
	"cla/internal/pts"
	"cla/internal/snapfile"
)

// BuildSnapshot runs the exact session-build pipeline Open uses —
// load, extern model, solve, the shared four-check report — and packages
// the outcome as a writable snapfile.Snapshot. Reusing the pipeline is
// what makes snapshot-served answers byte-identical to live-solve ones.
// The snapshot records content hashes of the inputs (the .cla file, or
// every .c file of a source directory) for staleness detection.
func BuildSnapshot(ctx context.Context, path string, cfg Config) (*snapfile.Snapshot, error) {
	prog, err := load(ctx, path, cfg)
	if err != nil {
		return nil, err
	}
	extmodel.Apply(prog, cfg.ExtModel)
	src := pts.NewMemSource(prog)
	ccfg := core.DefaultConfig()
	ccfg.Jobs = cfg.Jobs
	res, err := driver.Analyze(ctx, src, cfg.Solver, ccfg, cfg.Obs)
	if err != nil {
		return nil, claerr.File(claerr.PhaseAnalyze, path, err)
	}
	// The cached report must match Evaluator.checksReport exactly: the
	// default four checks, no externs. The soundness audit runs
	// separately and rides along in its own slot.
	rep, err := checks.Run(prog, res, checks.Options{Jobs: cfg.Jobs, Obs: cfg.Obs})
	if err != nil {
		return nil, claerr.File(claerr.PhaseLint, path, err)
	}
	var audit *checks.Audit
	if cfg.ExtModel != extmodel.Unsound {
		arep, err := checks.Run(prog, res, checks.Options{
			Checks: []checks.Check{checks.Externs}, Jobs: cfg.Jobs,
			ExtModel: cfg.ExtModel.String(), Obs: cfg.Obs,
		})
		if err != nil {
			return nil, claerr.File(claerr.PhaseLint, path, err)
		}
		audit = arep.Audit
	}
	srcFiles, err := snapshotSources(path)
	if err != nil {
		return nil, claerr.File(claerr.PhaseObject, path, err)
	}
	return &snapfile.Snapshot{
		Prog:     prog,
		Res:      res,
		Solver:   cfg.Solver.String(),
		ExtModel: cfg.ExtModel.String(),
		Report:   rep,
		Audit:    audit,
		Sources:  srcFiles,
	}, nil
}

// snapshotSources lists the input files a snapshot of path depends on:
// the object file itself, or every .c unit of a source directory (the
// same set CompileDir compiles, in the same sorted order). Paths are
// recorded absolute, so the snapshot verifies from any working
// directory.
func snapshotSources(path string) ([]snapfile.SourceFile, error) {
	path, err := filepath.Abs(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".cla") {
		return snapfile.HashSources([]string{path})
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var units []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".c" {
			units = append(units, filepath.Join(path, e.Name()))
		}
	}
	sort.Strings(units)
	return snapfile.HashSources(units)
}

// openSnapshot builds a session from a solved .snap file: page the file
// in, rebuild the in-memory source from the recorded program, seed the
// cached checks report — no parse, no solve. The open is integrity-
// checked end to end by the reader; unless cfg.SkipVerify is set the
// recorded source hashes are re-checked and a mismatch fails with
// claerr.ErrStale (HTTP 409, exit code 3).
func openSnapshot(name, path string, cfg Config) (*Session, error) {
	start := time.Now()
	r, err := snapfile.Open(path, snapfile.Options{})
	if err != nil {
		return nil, claerr.File(claerr.PhaseObject, path, err)
	}
	if !cfg.SkipVerify {
		if err := r.VerifySources(); err != nil {
			r.Close()
			return nil, claerr.File(claerr.PhaseObject, path, err)
		}
	}
	prog := r.Program()
	ev := NewEvaluator(prog, pts.NewMemSource(prog), r.Result(), cfg.Jobs)
	ev.SeedChecks(r.Report())
	cfg.Obs.Histogram("serve.snapshot.load").ObserveSince(start)
	s := &Session{
		Name:    name,
		Path:    path,
		Kind:    "snapshot",
		Snap:    r,
		cfg:     cfg,
		Created: time.Now(),
	}
	s.state.Store(&SessionState{Eval: ev, Gen: 1, Built: s.Created})
	return s, nil
}
