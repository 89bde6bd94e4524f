package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"cla/internal/obs"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, j := range []int{1, 2, 8, 100} {
		n := 237
		counts := make([]int32, n)
		err := ForEach(j, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("j=%d: index %d ran %d times", j, i, c)
			}
		}
	}
}

func TestForEachReportsLowestError(t *testing.T) {
	boom := func(i int) error {
		if i == 7 || i == 100 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	}
	for _, j := range []int{1, 4, 16} {
		err := ForEach(j, 200, boom)
		if err == nil || err.Error() != "task 7 failed" {
			t.Errorf("j=%d: err = %v, want lowest-index failure", j, err)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestShardCoversRangeExactly(t *testing.T) {
	for _, tc := range []struct{ j, n int }{{1, 10}, {3, 10}, {4, 4}, {8, 3}, {7, 100}} {
		covered := make([]int32, tc.n)
		err := Shard(tc.j, tc.n, func(w, lo, hi int) error {
			if lo > hi {
				return fmt.Errorf("worker %d: lo %d > hi %d", w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("j=%d n=%d: %v", tc.j, tc.n, err)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("j=%d n=%d: index %d covered %d times", tc.j, tc.n, i, c)
			}
		}
	}
}

// TestDetachedObserverAllocatesNothing pins the disabled-instrumentation
// cost of the pool hook: with no observer attached, noting a batch must
// not allocate (one atomic load and a nil-receiver call).
func TestDetachedObserverAllocatesNothing(t *testing.T) {
	SetObserver(nil)
	if n := testing.AllocsPerRun(100, func() {
		observer.Load().note(4, 128)
	}); n != 0 {
		t.Errorf("detached pool hook allocates %v per batch, want 0", n)
	}
}

// TestSetObserverCounts checks the attached path records batches, tasks
// and the worker/queue high-water marks.
func TestSetObserverCounts(t *testing.T) {
	o := obs.New()
	SetObserver(o)
	defer SetObserver(nil)
	if err := ForEach(3, 10, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"pool.batches": 1, "pool.tasks": 10}
	for _, m := range o.Counters() {
		if v, ok := want[m.Name]; ok && m.Value != v {
			t.Errorf("%s = %d, want %d", m.Name, m.Value, v)
		}
	}
	for _, g := range o.Gauges() {
		if g.Name == "pool.workers.max" && g.Value != 3 {
			t.Errorf("pool.workers.max = %d, want 3", g.Value)
		}
	}
}
