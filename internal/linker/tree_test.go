package linker

import (
	"testing"

	"cla/internal/frontend"
	"cla/internal/prim"
)

// treeUnits compiles n distinct single-global units.
func treeUnits(t *testing.T, n int) ([]*prim.Program, []uint64) {
	t.Helper()
	progs := make([]*prim.Program, n)
	keys := make([]uint64, n)
	for i := range progs {
		src := "int shared;\nint *u" + string(rune('a'+i)) + " = &shared;\n"
		p, err := frontend.CompileSource("u.c", src, nil, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
		keys[i] = uint64(i + 1)
	}
	return progs, keys
}

func linkedEqual(t *testing.T, a, b *prim.Program) {
	t.Helper()
	if len(a.Syms) != len(b.Syms) || len(a.Assigns) != len(b.Assigns) {
		t.Fatalf("linked programs differ: %d/%d syms, %d/%d assigns",
			len(a.Syms), len(b.Syms), len(a.Assigns), len(b.Assigns))
	}
	for i := range a.Syms {
		if a.Syms[i] != b.Syms[i] {
			t.Fatalf("sym %d differs: %+v vs %+v", i, a.Syms[i], b.Syms[i])
		}
	}
	for i := range a.Assigns {
		if a.Assigns[i] != b.Assigns[i] {
			t.Fatalf("assign %d differs", i)
		}
	}
}

func TestLinkTreeMemoMatchesPlainLink(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		progs, keys := treeUnits(t, n)
		want, err := Link(progs)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := LinkTreeMemo(progs, keys, 4, NewMergeCache(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reused != 0 {
			t.Fatalf("n=%d: cold link reused %d merges", n, st.Reused)
		}
		linkedEqual(t, got, want)
	}
}

func TestLinkTreeMemoReusesCleanSubtrees(t *testing.T) {
	progs, keys := treeUnits(t, 8)
	cache := NewMergeCache()
	if _, st, err := LinkTreeMemo(progs, keys, 4, cache, nil); err != nil {
		t.Fatal(err)
	} else if st.Merges != 7 {
		t.Fatalf("cold merges = %d, want 7", st.Merges)
	}

	// Unchanged relink: every merge served from the memo.
	out, st, err := LinkTreeMemo(progs, keys, 4, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Merges != 0 || st.Reused != 7 {
		t.Fatalf("no-op relink stats = %+v, want all 7 reused", st)
	}
	want, _ := Link(progs)
	linkedEqual(t, out, want)

	// One dirty leaf: only its root path (3 of 7 merges) re-runs.
	dirty, err := frontend.CompileSource("u.c", "int shared;\nint *uz = &shared;\n", nil, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progs[3] = dirty
	keys[3] = 99
	out, st, err = LinkTreeMemo(progs, keys, 4, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Merges != 3 || st.Reused != 4 {
		t.Fatalf("one-dirty relink stats = %+v, want 3 merges / 4 reused", st)
	}
	want, _ = Link(progs)
	linkedEqual(t, out, want)
}

func TestLinkTreeMemoKeyMismatch(t *testing.T) {
	progs, keys := treeUnits(t, 3)
	if _, _, err := LinkTreeMemo(progs, keys[:2], 1, NewMergeCache(), nil); err == nil {
		t.Fatal("expected key/unit length mismatch error")
	}
}

func TestMergeCacheGenerationEviction(t *testing.T) {
	progs, keys := treeUnits(t, 4)
	cache := NewMergeCache()
	if _, _, err := LinkTreeMemo(progs, keys, 2, cache, nil); err != nil {
		t.Fatal(err)
	}
	// Two generations that no longer contain the original tree: its
	// nodes must age out (double-buffer eviction).
	other, otherKeys := treeUnits(t, 2)
	otherKeys[0], otherKeys[1] = 100, 101
	for i := 0; i < 2; i++ {
		if _, _, err := LinkTreeMemo(other, otherKeys, 2, cache, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err := LinkTreeMemo(progs, keys, 2, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reused != 0 {
		t.Fatalf("evicted tree still served %d reuses", st.Reused)
	}
}

// TestLinkTreeMemoStatsUnderParallelMerges counts work from eight
// workers over a warm cache. Merges+Reused must cover every internal
// node of the tree (n-1 for n leaves); run under -race it also checks
// that the workers never write the stats directly.
func TestLinkTreeMemoStatsUnderParallelMerges(t *testing.T) {
	const n = 25 // treeUnits names one unit per letter
	progs, keys := treeUnits(t, n)
	cache := NewMergeCache()
	for round := 0; round < 4; round++ {
		if round > 0 {
			keys[round*6] = uint64(1000 + round) // one dirty leaf per relink
		}
		_, st, err := LinkTreeMemo(progs, keys, 8, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Merges+st.Reused != n-1 {
			t.Fatalf("round %d: stats %+v cover %d merges, want %d", round, st, st.Merges+st.Reused, n-1)
		}
		if round > 0 && st.Reused == 0 {
			t.Fatalf("round %d: warm relink reused nothing: %+v", round, st)
		}
	}
}
