package frontend

import (
	"strings"
	"sync"
	"testing"

	"cla/internal/cpp"
	"cla/internal/gen"
)

// sharedMatchesAlone compiles every unit alone and then all of them
// concurrently on one memo, and requires equal digests.
func sharedMatchesAlone(t *testing.T, loader cpp.Loader, files map[string]string, units []string) {
	t.Helper()
	alone := make([]string, len(units))
	for i, u := range units {
		alone[i] = outcome(CompileSource(u, files[u], loader, Options{}))
		if strings.HasPrefix(alone[i], "error") {
			t.Fatalf("%s: %s", u, alone[i])
		}
	}
	m := NewMemo()
	shared := make([]string, len(units))
	var wg sync.WaitGroup
	for i, u := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i] = outcome(m.CompileSource(u, files[u], loader, Options{}))
		}()
	}
	wg.Wait()
	for i, u := range units {
		if shared[i] != alone[i] {
			t.Errorf("%s: shared memo %s, alone %s", u, shared[i], alone[i])
		}
	}
}

func TestSharedMemoMatchesAloneOnGeneratedTrees(t *testing.T) {
	for _, name := range []string{"gimp", "burlap", "nethack"} {
		p, ok := gen.ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		p = p.Scale(0.02)
		p.Files = 6
		code := gen.Generate(p, 3)
		sharedMatchesAlone(t, code.Loader(), code.Files, code.Units())
	}
}

func TestSharedMemoMatchesAloneOnCorpus(t *testing.T) {
	files := map[string]string{}
	var units []string
	for name, src := range readExamples(t, "../../examples/corpus") {
		files[name] = src
		if strings.HasSuffix(name, ".c") {
			units = append(units, name)
		}
	}
	sharedMatchesAlone(t, cpp.MapLoader(files), files, units)
}
