// Package driver is the analyze phase's solver dispatch: it names the
// points-to algorithms (one name table behind every -solver flag and
// snapshot label) and runs the selected one over a constraint source,
// plus the report sections the command-line tools print. Compilation
// goes through internal/incr, the one compile path.
package driver

import (
	"context"
	"fmt"

	"cla/internal/core"
	"cla/internal/obs"
	"cla/internal/pts"
	"cla/internal/pts/bitvec"
	"cla/internal/pts/onelevel"
	"cla/internal/pts/steens"
	"cla/internal/pts/worklist"
)

// Solver selects a points-to algorithm.
type Solver int

// Available solvers.
const (
	// PreTransitive is the paper's algorithm (internal/core).
	PreTransitive Solver = iota
	// Worklist is the transitively-closed baseline.
	Worklist
	// Steensgaard is the unification baseline.
	Steensgaard
	// BitVector is Andersen's analysis with dense bit-vector sets.
	BitVector
	// OneLevel is Das's one-level flow hybrid: directional at the top
	// level, unification below.
	OneLevel
)

// solverNames is the name table: each solver's canonical label (its
// String, recorded in snapshots) first, then the CLI aliases.
var solverNames = [...][]string{
	PreTransitive: {"pre-transitive", "pretrans", "core"},
	Worklist:      {"worklist", "andersen-closed"},
	Steensgaard:   {"steensgaard", "steens", "unify"},
	BitVector:     {"bitvec", "bitvector"},
	OneLevel:      {"one-level", "onelevel", "das"},
}

func (s Solver) String() string {
	if s >= 0 && int(s) < len(solverNames) {
		return solverNames[s][0]
	}
	return fmt.Sprintf("Solver(%d)", int(s))
}

// ParseSolver maps a CLI name or a canonical label to a Solver.
func ParseSolver(name string) (Solver, error) {
	for s, names := range solverNames {
		for _, n := range names {
			if n == name {
				return Solver(s), nil
			}
		}
	}
	return 0, fmt.Errorf("unknown solver %q (want pretrans, worklist, steens, bitvec or onelevel)", name)
}

// Analyze runs the selected solver over src. cfg applies to the
// pre-transitive solver; cfg.Jobs selects the phase-parallel wave
// fixpoint of the pre-transitive and worklist solvers when >= 2 and
// bounds the bit-vector solver's final-set materialization. The result
// is byte-identical at any cfg.Jobs.
//
// The pre-transitive and worklist solvers check ctx inside their
// fixpoints (per wave and per few hundred rule applications); the
// single-pass solvers (Steensgaard, bit-vector, one-level) check it only
// at entry.
//
// The solve runs inside an "analyze" span of o, a background sampler
// records its heap high-water mark into the analyze.heap_peak_bytes
// gauge (the paper's Table 2 memory column), and the converged metrics
// are published into o's solver.* counters at the end, so the solver's
// hot loop never touches the observer. A nil o costs nothing.
func Analyze(ctx context.Context, src pts.Source, solver Solver, cfg core.Config, o *obs.Observer) (pts.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := o.Start("analyze")
	stopHeap := obs.WatchHeap(o.Gauge("analyze.heap_peak_bytes"), 0)
	res, err := solve(ctx, src, solver, cfg)
	stopHeap()
	sp.End()
	if err != nil {
		return nil, err
	}
	res.Metrics().Publish(o)
	return res, nil
}

func solve(ctx context.Context, src pts.Source, solver Solver, cfg core.Config) (pts.Result, error) {
	switch solver {
	case PreTransitive:
		return core.SolveCtx(ctx, src, cfg)
	case Worklist:
		return worklist.SolveJobsCtx(ctx, src, cfg.Jobs)
	case Steensgaard:
		return steens.Solve(src)
	case BitVector:
		return bitvec.SolveJobs(src, cfg.Jobs)
	case OneLevel:
		return onelevel.Solve(src)
	}
	return nil, fmt.Errorf("driver: unknown solver %d", solver)
}
