package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-linear latency histogram: fixed atomic
// buckets, so Observe is a single atomic add on any number of writers
// and readers never block them. Buckets follow the log-linear (HDR)
// scheme — each power-of-two octave is split into histSub equal
// sub-buckets — so quantile estimates carry a bounded relative error of
// 1/histSub (12.5%) while the whole non-negative int64 range fits in
// histBuckets cells. Values below 2*histSub land in exact unit buckets.
//
// Like Counter and Gauge, the nil *Histogram is a valid no-op, so
// instrumented code holds one unconditionally. Histograms are mergeable
// (shard per worker, Merge at publish) and renderable in Prometheus
// exposition format via Observer.WriteProm.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

const (
	// histSubBits sets the bucket resolution: 2^histSubBits sub-buckets
	// per power-of-two octave.
	histSubBits = 3
	histSub     = 1 << histSubBits

	// histBuckets covers values 0..math.MaxInt64: the 2*histSub exact
	// unit buckets plus histSub sub-buckets for each octave 2^4..2^62.
	histBuckets = 2*histSub + (62-histSubBits)*histSub
)

// bucketIndex maps a value to its log-linear bucket. Negative values
// clamp to bucket 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // u in [2^exp, 2^exp+1), exp >= histSubBits+1
	frac := int((u >> (uint(exp) - histSubBits)) & (histSub - 1))
	return 2*histSub + (exp-histSubBits-1)*histSub + frac
}

// bucketUpper returns the largest value the bucket holds — the "le"
// boundary WriteProm renders and the conservative quantile estimate.
func bucketUpper(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	i -= 2 * histSub
	exp := uint(histSubBits + 1 + i/histSub)
	frac := uint64(i % histSub)
	lower := uint64(1)<<exp + frac<<(exp-histSubBits)
	upper := lower + uint64(1)<<(exp-histSubBits) - 1
	if upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the nanoseconds elapsed since start — the
// latency-recording shorthand the serving layer uses.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Merge adds src's observations into h — the shard-per-worker publish
// path. Merging against concurrent writers is safe; the merged totals
// are eventually consistent like any concurrent read.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := range src.buckets {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.sum.Add(src.sum.Load())
	h.count.Add(src.count.Load())
}

// snapshot copies the bucket counts and returns their total. Totaling
// the copied buckets (rather than reading count) keeps the quantile
// walk internally consistent under concurrent writers.
func (h *Histogram) snapshot() (counts [histBuckets]int64, total int64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper edge of
// the bucket holding the matching rank: an upper bound with relative
// error at most 1/histSub. An empty (or nil) histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	counts, total := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if c != 0 && cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Hist is one named histogram from the registry.
type Hist struct {
	Name string
	H    *Histogram
}

// Histogram returns the named histogram from the registry, creating it
// on first use. Returns nil (a valid no-op histogram) on a nil observer.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	o.cmu.Lock()
	h := o.hists[name]
	if h == nil {
		h = &Histogram{}
		o.hists[name] = h
	}
	o.cmu.Unlock()
	return h
}

// RemoveHistogram unregisters the named histogram, so the registry (and
// WriteProm) no longer reports it; a later Histogram(name) starts a
// fresh one. Callers bound per-entity series with it when the entity
// goes away. No-op on a nil observer or an unknown name.
func (o *Observer) RemoveHistogram(name string) {
	if o == nil {
		return
	}
	o.cmu.Lock()
	delete(o.hists, name)
	o.cmu.Unlock()
}

// Histograms returns the histogram registry sorted by name.
func (o *Observer) Histograms() []Hist {
	if o == nil {
		return nil
	}
	o.cmu.Lock()
	out := make([]Hist, 0, len(o.hists))
	for name, h := range o.hists {
		out = append(out, Hist{Name: name, H: h})
	}
	o.cmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
