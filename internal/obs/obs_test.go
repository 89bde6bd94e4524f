package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilObserverNoOps(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	sp := o.Start("phase")
	if sp != nil {
		t.Fatal("nil observer returned non-nil span")
	}
	sp.End()
	sp.Child("child").End()
	o.StartTrack(3, "slot").End()
	o.Counter("c").Add(5)
	o.Counter("c").Inc()
	o.Gauge("g").Max(7)
	o.SetCounter("x", 1)
	o.EnableMemStats(true)
	if got := o.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	if got := o.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %d", got)
	}
	if evs := o.Events(); evs != nil {
		t.Fatalf("nil observer events = %v", evs)
	}
	if o.OpenSpans() != 0 {
		t.Fatal("nil observer has open spans")
	}
	if err := o.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}
	if err := o.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
}

func TestNilNoOpsAllocateNothing(t *testing.T) {
	var o *Observer
	c := o.Counter("c")
	g := o.Gauge("g")
	n := testing.AllocsPerRun(100, func() {
		sp := o.Start("phase")
		sp.Child("child").End()
		sp.End()
		c.Add(1)
		c.Inc()
		g.Max(3)
		_ = c.Value()
		_ = g.Value()
	})
	if n != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f per op, want 0", n)
	}
}

func TestSpanNesting(t *testing.T) {
	o := New()
	root := o.Start("compile")
	child := root.Child("parse")
	child.End()
	child.End() // double End is ignored
	root.End()
	link := o.Start("link")
	link.End()

	if n := o.OpenSpans(); n != 0 {
		t.Fatalf("open spans = %d, want 0", n)
	}
	evs := o.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	// Sorted: parents before children on a track, then later phases.
	if evs[0].Name != "compile" || evs[1].Name != "parse" || evs[2].Name != "link" {
		t.Fatalf("order = %s, %s, %s", evs[0].Name, evs[1].Name, evs[2].Name)
	}
	for _, e := range evs {
		if e.Track != 0 {
			t.Fatalf("span %q on track %d, want 0", e.Name, e.Track)
		}
		if e.End < e.Start {
			t.Fatalf("span %q ends before start", e.Name)
		}
		if e.Alloc != -1 {
			t.Fatalf("span %q recorded alloc %d without memstats", e.Name, e.Alloc)
		}
	}
	if err := validateEvents(evs); err != nil {
		t.Fatalf("validateEvents: %v", err)
	}
}

func TestMemStatsSpans(t *testing.T) {
	o := New()
	o.EnableMemStats(true)
	sp := o.Start("analyze")
	_ = make([]byte, 1<<16)
	sp.End()
	evs := o.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	if evs[0].Alloc < 0 {
		t.Fatalf("alloc delta not recorded: %d", evs[0].Alloc)
	}
}

func TestTracksSortDeterministically(t *testing.T) {
	o := New()
	spans := make([]*Span, 4)
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := o.StartTrack(i+1, "unit")
			time.Sleep(time.Millisecond)
			sp.End()
		}(i)
	}
	wg.Wait()
	evs := o.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Track != i+1 {
			t.Fatalf("event %d on track %d, want %d", i, e.Track, i+1)
		}
	}
}

func TestCountersAndGauges(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o.Counter("hits").Add(10)
			o.Gauge("depth").Max(int64(i))
		}(i)
	}
	wg.Wait()
	if got := o.Counter("hits").Value(); got != 80 {
		t.Fatalf("hits = %d, want 80", got)
	}
	if got := o.Gauge("depth").Value(); got != 7 {
		t.Fatalf("depth = %d, want 7", got)
	}
	o.SetCounter("solver.passes", 3)
	cs := o.Counters()
	if len(cs) != 2 || cs[0].Name != "hits" || cs[1].Name != "solver.passes" {
		t.Fatalf("counters = %v", cs)
	}
	gs := o.Gauges()
	if len(gs) != 1 || gs[0].Name != "depth" || gs[0].Value != 7 {
		t.Fatalf("gauges = %v", gs)
	}
}

func TestReportFormat(t *testing.T) {
	var r Report
	r.Add("phases",
		KV{"compile", "0.001000s"},
		KV{"  parse", "0.000400s"},
	)
	r.Add("analysis", KV{"pointer vars:", "42"})
	var buf bytes.Buffer
	r.Format(&buf)
	out := buf.String()
	for _, want := range []string{"== phases ==", "compile", "== analysis ==", "pointer vars:", "42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseSection(t *testing.T) {
	o := New()
	root := o.Start("compile")
	for i := 0; i < 3; i++ {
		sp := o.StartTrack(i+1, "unit x.c")
		sp.End()
	}
	root.End()
	o.Start("link").End()

	sec := o.PhaseSection()
	if sec.Title != "phases" {
		t.Fatalf("title = %q", sec.Title)
	}
	var keys []string
	for _, row := range sec.Rows {
		keys = append(keys, row.Key)
	}
	joined := strings.Join(keys, "\n")
	for _, want := range []string{"compile", "link", "~ unit x3"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("phase section missing %q:\n%s", want, joined)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0B"}, {512, "512B"}, {2048, "2.0KB"}, {3 << 20, "3.0MB"},
	}
	for _, c := range cases {
		if got := FmtBytes(c.n); got != c.want {
			t.Errorf("FmtBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

// TestSpanRetentionIsBounded runs more refresh-shaped span groups than
// the observer retains: the event count stays at the cap, the loss is
// counted, the newest spans survive and the trace still nests.
func TestSpanRetentionIsBounded(t *testing.T) {
	o := New()
	const perRefresh, refreshes = 4, MaxEvents/4 + 1000
	for i := 0; i < refreshes; i++ {
		root := o.Start("refresh")
		o.Start("compile").End()
		u := o.StartTrack(1, "unit u.c")
		u.Child("parse").End()
		u.End()
		root.End()
	}
	evs := o.Events()
	if len(evs) != MaxEvents {
		t.Fatalf("retained %d events, want the cap %d", len(evs), MaxEvents)
	}
	if got, want := o.Counter("obs.spans_dropped").Value(), int64(perRefresh*refreshes-MaxEvents); got != want {
		t.Fatalf("obs.spans_dropped = %d, want %d", got, want)
	}
	// The last span closed is the last refresh root, which must be kept.
	last := evs[0]
	for _, e := range evs {
		if e.End > last.End {
			last = e
		}
	}
	if last.Name != "refresh" {
		t.Fatalf("newest retained span = %q, want the last refresh", last.Name)
	}
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatalf("trace of a wrapped ring: %v", err)
	}
}
