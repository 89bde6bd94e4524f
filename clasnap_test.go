package cla

// End-to-end tests of the clasnap binary and claserve's snapshot paths:
// build a snapshot from a source directory, inspect and verify it, serve
// it with -preload, and confirm staleness is a distinct exit code.

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestClasnapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clasnap", "claserve")
	work := t.TempDir()
	src := filepath.Join(work, "a.c")
	os.WriteFile(src,
		[]byte("int shared;\nint *sp, *tp;\nvoid init(void) { sp = &shared; tp = sp; }\n"), 0o644)
	snap := filepath.Join(work, "a.snap")

	out := run(t, tools["clasnap"], "-o", snap, work)
	if !strings.Contains(out, "symbols") {
		t.Fatalf("clasnap build output: %q", out)
	}
	info := run(t, tools["clasnap"], "-info", snap)
	for _, want := range []string{"solver      pre-transitive", "extmodel    unsound", "source      " + src} {
		if !strings.Contains(info, want) {
			t.Errorf("-info output missing %q:\n%s", want, info)
		}
	}
	if out := run(t, tools["clasnap"], "-verify", snap); !strings.Contains(out, "sources verified") {
		t.Fatalf("-verify output: %q", out)
	}

	// Serve it via -preload and query through the socket.
	sock := filepath.Join(t.TempDir(), "cla.sock")
	cmd := exec.Command(tools["claserve"], "-unix", sock, "-ready", "-preload", snap)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(stdout)
	ready := make(chan bool, 1)
	go func() {
		for lines.Scan() {
			if strings.HasPrefix(lines.Text(), "READY") {
				ready <- true
				return
			}
		}
		ready <- false
	}()
	select {
	case ok := <-ready:
		if !ok {
			t.Fatal("claserve exited before READY")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for READY")
	}
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			return net.Dial("unix", sock)
		},
	}}
	get := func(path string) string {
		t.Helper()
		resp, err := client.Get("http://claserve" + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, sb.String())
		}
		return sb.String()
	}
	if body := get("/v1/pointsto?name=sp"); !strings.Contains(body, "shared") {
		t.Errorf("pointsto(sp) over snapshot: %s", body)
	}
	if body := get("/metricsz"); !strings.Contains(body, "serve_snapshot_load_count") {
		t.Errorf("/metricsz missing serve_snapshot_load histogram:\n%s", body)
	}
	cmd.Process.Kill()

	// Staleness: edit the source, expect exit code 3 from -verify and a
	// refused serve without -no-verify.
	os.WriteFile(src, []byte("int shared; int other;\nint *sp;\nvoid init(void) { sp = &shared; }\n"), 0o644)
	vc := exec.Command(tools["clasnap"], "-verify", snap)
	vout, verr := vc.CombinedOutput()
	if verr == nil {
		t.Fatalf("stale -verify succeeded: %s", vout)
	}
	if code := vc.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("stale -verify exit code = %d, want 3\n%s", code, vout)
	}
	sc := exec.Command(tools["claserve"], "-preload", snap)
	sout, serr := sc.CombinedOutput()
	if serr == nil {
		t.Fatalf("stale serve succeeded: %s", sout)
	}
	if code := sc.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("stale serve exit code = %d, want 3\n%s", code, sout)
	}
	if out := run(t, tools["clasnap"], "-o", snap+"2", "-solver", "bitvec", work); !strings.Contains(out, "symbols") {
		t.Fatalf("rebuild output: %q", out)
	}
}

// TestClasnapRelativeSourcesVerifyElsewhere builds a snapshot from a
// relative source directory and verifies it from another working
// directory: the recorded source paths must not depend on the cwd.
func TestClasnapRelativeSourcesVerifyElsewhere(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "clasnap")
	work := t.TempDir()
	if err := os.Mkdir(filepath.Join(work, "src"), 0o755); err != nil {
		t.Fatal(err)
	}
	unit := filepath.Join(work, "src", "a.c")
	if err := os.WriteFile(unit, []byte("int g; int *p;\nvoid f(void) { p = &g; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(work, "a.snap")
	inDir := func(dir string, args ...string) (string, int) {
		cmd := exec.Command(tools["clasnap"], args...)
		cmd.Dir = dir
		out, _ := cmd.CombinedOutput()
		return string(out), cmd.ProcessState.ExitCode()
	}
	if out, code := inDir(work, "-o", snap, "src"); code != 0 {
		t.Fatalf("build from a relative path: exit %d\n%s", code, out)
	}
	if out, code := inDir(t.TempDir(), "-verify", snap); code != 0 || !strings.Contains(out, "sources verified") {
		t.Fatalf("-verify from another directory: exit %d\n%s", code, out)
	}
	if out, _ := inDir(t.TempDir(), "-info", snap); !strings.Contains(out, "source      "+unit) {
		t.Errorf("-info does not record the absolute source path %s:\n%s", unit, out)
	}
}
