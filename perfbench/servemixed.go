package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cla"
)

// dependLimit caps the dependents a dependence request returns.
const dependLimit = 20

// server is a running claserve process serving one preloaded snapshot.
type server struct {
	cmd     *exec.Cmd
	addr    string // query listener
	debug   string // pprof listener
	drained chan struct{}
}

// startServer runs claserve over snap and waits for its READY line.
func startServer(bin, snap string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no claserve binary given (--claserve)")
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-ready", "-preload", snap, "-j", strconv.Itoa(jobs))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "DEBUG "); ok {
				s.debug = a
			}
			if a, ok := strings.CutPrefix(sc.Text(), "READY "); ok {
				s.addr = a
				ready <- nil
				break
			}
		}
		if s.addr == "" {
			ready <- errors.New("claserve exited before READY")
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case err = <-ready:
	case <-time.After(90 * time.Second):
		err = errors.New("claserve not READY after 90s")
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
	}
	return s.cmd.Wait()
}

// liveHeap forces a collection in the server (pprof heap profile with
// gc=1) and returns its live heap in bytes.
func (s *server) liveHeap() (uint64, error) {
	resp, err := http.Get("http://" + s.debug + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, errors.New("no HeapAlloc in the server's heap profile")
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc    *http.Client
	base  string
	first map[string][]byte // first response body per request path
	ref   *reference
	ops   int
	fails []error
}

func newClient(addr string, ref *reference) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: "http://" + addr,
		first: map[string][]byte{}, ref: ref}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get issues one GET and returns its body and round-trip time.
func (c *client) get(path string) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, d, err
}

// check validates a response: the first one per path is decoded and must
// carry no error (and, for pointsto, the reference answer); every later
// one must repeat it byte for byte.
func (c *client) check(rq request, body []byte) error {
	path := rq.path
	if prev, ok := c.first[path]; ok {
		if !bytes.Equal(prev, body) {
			return fmt.Errorf("GET %s: response changed between requests", path)
		}
		return nil
	}
	var res cla.QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if res.Err != nil {
		return fmt.Errorf("GET %s: %s", path, res.Err.Message)
	}
	if rq.query.Kind == "pointsto" {
		if err := c.ref.checkAnswer(rq.query.Name, res); err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
	}
	c.first[path] = body
	return nil
}

// request is one fixed request of a client's cycle: the query and its
// GET path.
type request struct {
	path  string
	query cla.Query
}

// lookupRequests cycles pointsto, alias, modref and lint over fixed names.
func lookupRequests(ref *reference) []request {
	var out []request
	for i := 0; i < len(ref.probes); i++ {
		p, q := ref.probes[i], ref.probes[(i+1)%len(ref.probes)]
		f := ref.funcs[i%len(ref.funcs)]
		out = append(out,
			request{"/v1/pointsto?name=" + url.QueryEscape(p), cla.Query{Kind: "pointsto", Name: p}},
			request{"/v1/alias?x=" + url.QueryEscape(p) + "&y=" + url.QueryEscape(q),
				cla.Query{Kind: "alias", X: p, Y: q}},
			request{"/v1/modref?func=" + url.QueryEscape(f), cla.Query{Kind: "modref", Func: f}},
			request{"/v1/lint", cla.Query{Kind: "lint"}})
	}
	return out
}

// dependRequests issues dependence over fixed targets.
func dependRequests(ref *reference) []request {
	var out []request
	for _, t := range ref.targets {
		out = append(out, request{
			fmt.Sprintf("/v1/dependence?target=%s&limit=%d", url.QueryEscape(t), dependLimit),
			cla.Query{Kind: "dependence", Target: t, Limit: dependLimit}})
	}
	return out
}

// loop runs reqs round-robin until deadline, timing each by kind.
func (c *client) loop(reqs []request, deadline time.Time, by map[string]*samples) {
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		rq := reqs[i%len(reqs)]
		body, d, err := c.get(rq.path)
		if err == nil {
			by[rq.query.Kind].addKey(rq.path, d)
			err = c.check(rq, body)
		}
		c.ops++
		if err != nil {
			c.fails = append(c.fails, err)
		}
	}
}

// serveMixed measures request → HTTP response: claserve serves a
// preloaded snapshot to two closed-loop clients on their own
// connections, one cycling cheap lookups and one issuing dependence
// queries, so CPU freed in one layer shows in the other client.
func serveMixed(e *env, r *report) error {
	ctx := context.Background()
	t, err := writeTree(filepath.Join(e.work, "tree"), serveScale, e.treeSeed)
	if err != nil {
		return err
	}
	snap := filepath.Join(e.work, "tree.snap")
	pm := &pathMetrics{
		answer: &samples{name: "pointsto_p50_ms"},
		alt:    &samples{name: "dependence_p50_ms"},
		light:  &samples{name: "modref_p50_ms"},
	}
	// Set-up builds the snapshot and starts claserve on it, up to READY.
	var srv *server
	var ws *cla.Workspace
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		d := timed(func() {
			if ws, err = cla.OpenWorkspace(ctx, t.dir, &cla.WorkspaceOptions{Jobs: jobs}); err != nil {
				return
			}
			if err = ws.Analysis().SaveSnapshot(snap, &cla.SnapshotOptions{Sources: t.files}); err != nil {
				return
			}
			srv, err = startServer(e.claserve, snap)
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		pm.setup = append(pm.setup, d.Seconds())
	}
	ref, err := newReference(ws.Analysis().Database(), e.seed)
	if err != nil {
		return err
	}
	ws = nil

	// Each kind's samples are written by one client only.
	by := map[string]*samples{
		"pointsto": pm.answer, "modref": pm.light, "dependence": pm.alt,
		"alias": {name: "alias_ms"}, "lint": {name: "lint_ms"},
	}
	lookup, depend := newClient(srv.addr, ref), newClient(srv.addr, ref)
	defer lookup.close()
	defer depend.close()

	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	var lookupWall time.Duration
	wg.Add(2)
	go func() {
		defer wg.Done()
		lookup.loop(lookupRequests(ref), deadline, by)
		lookupWall = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		depend.loop(dependRequests(ref), deadline, by)
	}()
	wg.Wait()
	for _, c := range []*client{lookup, depend} {
		r.ops(c.ops, c.fails)
	}

	pm.opsPerS = float64(lookup.ops) / lookupWall.Seconds()
	if pm.peakRSS, err = vmHWM(srv.cmd.Process.Pid); err != nil {
		return err
	}
	if pm.liveHeap, err = srv.liveHeap(); err != nil {
		return err
	}
	fmt.Printf("detail lookup_qps=%.6g (%d requests in %.3fs)\n", pm.opsPerS, lookup.ops, lookupWall.Seconds())
	pm.answer.describe(1, "ms")
	pm.light.describe(1, "ms")
	pm.alt.describe(1, "ms")
	by["alias"].describe(1, "ms")
	by["lint"].describe(1, "ms")
	pm.publish(r)
	return nil
}
