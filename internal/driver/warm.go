package driver

import (
	"context"

	"cla/internal/core"
	"cla/internal/pts"
	"cla/internal/pts/worklist"
)

// AnalyzeWarmCtx is Analyze (without an observer) with a warm start: when warm carries a
// fixpoint solved from the same constraint digest (the caller computes
// it with prim.Program.Digest and folds in solver/model/config identity
// — see internal/incr), the previous result is returned unchanged with
// reused=true and the solve is skipped. The pre-transitive and worklist
// solvers route through their own warm entry points; the remaining
// single-pass solvers share the same digest check here. Reuse is
// byte-exact because every solver is deterministic.
func AnalyzeWarmCtx(ctx context.Context, src pts.Source, solver Solver, cfg core.Config,
	digest uint64, warm *pts.Warm) (res pts.Result, reused bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	switch solver {
	case PreTransitive:
		return core.SolveWarmCtx(ctx, src, cfg, digest, warm)
	case Worklist:
		return worklist.SolveWarmJobsCtx(ctx, src, cfg.Jobs, digest, warm)
	}
	if warm.Match(digest) {
		return warm.Result, true, nil
	}
	r, err := Analyze(ctx, src, solver, cfg, nil)
	if err != nil {
		return nil, false, err
	}
	return r, false, nil
}
