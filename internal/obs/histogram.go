package obs

import (
	"sort"
	"sync"
)

// Histogram is a fixed-bucket histogram. Bucket semantics follow
// Prometheus: an observation v lands in the first bucket whose upper bound
// is >= v; observations past the last finite bound land in the implicit
// +Inf overflow bucket and are reported there honestly instead of being
// folded into the last finite bucket.
type Histogram struct {
	bounds []float64 // ascending, finite

	mu        sync.Mutex
	counts    []int64 // len(bounds)+1; the final slot is the +Inf bucket
	total     int64
	sum       float64
	exemplars []*Exemplar // len(bounds)+1 when any exemplar was recorded
}

// Exemplar is an OpenMetrics exemplar: a reference from one histogram
// bucket (or counter sample) to a concrete observation — in this fleet, a
// trace id — rendered after the sample as `# {labels} value timestamp`.
type Exemplar struct {
	Labels []Label
	Value  float64
	Ts     float64 // unix seconds; 0 omits the timestamp
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]int64, len(bounds)+1),
	}
}

// Observe records one value. The bucket is found by binary search
// (sort.SearchFloat64s), not a linear scan.
func (h *Histogram) Observe(v float64) {
	// SearchFloat64s returns the smallest i with bounds[i] >= v, which is
	// exactly the `le` bucket; v past every finite bound yields
	// len(bounds), the +Inf slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += v
	h.mu.Unlock()
}

// ObserveWithExemplar records one value and attaches an exemplar to the
// bucket it lands in, replacing that bucket's previous exemplar (latest
// wins — the point of an exemplar is a recent, retrievable instance).
// ts is the observation time in unix seconds.
func (h *Histogram) ObserveWithExemplar(v float64, ts float64, labels ...Label) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += v
	if h.exemplars == nil {
		h.exemplars = make([]*Exemplar, len(h.bounds)+1)
	}
	h.exemplars[i] = &Exemplar{Labels: labels, Value: v, Ts: ts}
	h.mu.Unlock()
}

// snapshot copies the counts, total, sum, and per-bucket exemplars under
// the lock. exemplars is nil when none were ever recorded.
func (h *Histogram) snapshot() (counts []int64, total int64, sum float64, exemplars []*Exemplar) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.exemplars != nil {
		exemplars = append([]*Exemplar(nil), h.exemplars...)
	}
	return append([]int64(nil), h.counts...), h.total, h.sum, exemplars
}
