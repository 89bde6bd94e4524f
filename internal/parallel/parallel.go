// Package parallel is the concurrency toolkit threading the CLA pipeline
// across cores: bounded index-parallel loops, contiguous sharding with
// per-worker state, and level-by-level schedules. Every helper preserves
// deterministic output ordering — workers communicate only through
// index-addressed slots, never through shared accumulators — so running
// with -j 1 and -j N produces identical results.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"cla/internal/obs"
)

// Workers normalizes a -j style job count: values <= 0 select
// runtime.GOMAXPROCS(0).
func Workers(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// poolObs holds pre-resolved pool counters so an instrumented batch pays
// one atomic pointer load, not a registry lookup.
type poolObs struct {
	batches *obs.Counter // parallel batches started
	tasks   *obs.Counter // total indexes dispatched
	workers *obs.Gauge   // widest worker fan-out
	queue   *obs.Gauge   // largest batch (queue depth high-water mark)
}

var observer atomic.Pointer[poolObs]

// SetObserver routes pool utilization (batches, tasks, worker fan-out,
// queue depth) into o's pool.* registry entries. Pass nil to detach. The
// pool counters depend on the -j setting by construction, so they are
// deliberately excluded from determinism-sensitive reports.
func SetObserver(o *obs.Observer) {
	if o == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&poolObs{
		batches: o.Counter("pool.batches"),
		tasks:   o.Counter("pool.tasks"),
		workers: o.Gauge("pool.workers.max"),
		queue:   o.Gauge("pool.queue.max"),
	})
}

func (p *poolObs) note(j, n int) {
	if p == nil {
		return
	}
	p.batches.Inc()
	p.tasks.Add(int64(n))
	p.workers.Max(int64(j))
	p.queue.Max(int64(n))
}

// ForEach runs fn(0)..fn(n-1) on up to j workers (j <= 0 means
// GOMAXPROCS) and waits for all of them. Every index runs even when an
// earlier one fails, and the returned error is the lowest-indexed
// failure — the same error a sequential loop would have reported first,
// regardless of scheduling.
func ForEach(j, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), j, n, fn)
}

// ForEachCtx is ForEach under a context: each worker checks ctx before
// dispatching the next index, so a cancellation stops the batch promptly
// — indexes already running finish, undispatched ones never start. When
// the context fires, the returned error is the lowest-indexed real
// failure if one occurred, otherwise ctx.Err(). The background context
// adds one nil check per index.
func ForEachCtx(ctx context.Context, j, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	j = Workers(j)
	if j > n {
		j = n
	}
	observer.Load().note(j, n)
	if j == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var canceled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < j; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if canceled.Load() {
		return ctx.Err()
	}
	return nil
}

// Shard partitions [0, n) into at most j near-equal contiguous ranges and
// runs fn(worker, lo, hi) for each range on its own goroutine. The worker
// index lets fn own per-worker scratch (epoch arrays, accumulators) that
// is merged deterministically by the caller afterwards. The returned
// error is the lowest-worker failure.
func Shard(j, n int, fn func(worker, lo, hi int) error) error {
	return ShardCtx(context.Background(), j, n, fn)
}

// ShardCtx is Shard under a context; a cancellation stops undispatched
// shards (see ForEachCtx).
func ShardCtx(ctx context.Context, j, n int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	j = Workers(j)
	if j > n {
		j = n
	}
	per := n / j
	rem := n % j
	bounds := make([]int, j+1)
	for w, lo := 0, 0; w < j; w++ {
		hi := lo + per
		if w < rem {
			hi++
		}
		bounds[w], bounds[w+1] = lo, hi
		lo = hi
	}
	return ForEachCtx(ctx, j, j, func(w int) error {
		return fn(w, bounds[w], bounds[w+1])
	})
}

// Levels runs a sequence of barrier-synchronized levels: for each level
// l in [0, levels), fn is sharded across up to j workers over
// [0, size(l)), and only after every shard of the level returns does the
// optional after(l) hook run on the calling goroutine — the place wave
// solvers merge per-worker buffers in a deterministic order before the
// next level starts. See LevelsCtx for the error contract.
func Levels(j, levels int, size func(level int) int, fn func(level, worker, lo, hi int) error, after func(level int) error) error {
	return LevelsCtx(context.Background(), j, levels, size, fn, after)
}

// LevelsCtx is Levels under a context: each level's shard checks ctx
// (see ShardCtx), and a failed level — worker error, after-hook error or
// cancellation — stops before the next level begins. The returned error
// is the failing level's lowest-worker error.
func LevelsCtx(ctx context.Context, j, levels int, size func(level int) int, fn func(level, worker, lo, hi int) error, after func(level int) error) error {
	for l := 0; l < levels; l++ {
		level := l
		err := ShardCtx(ctx, j, size(level), func(w, lo, hi int) error {
			return fn(level, w, lo, hi)
		})
		if err != nil {
			return err
		}
		if after != nil {
			if err := after(level); err != nil {
				return err
			}
		}
	}
	return nil
}
