package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"schemanet"
)

// recorder pools a run's end-to-end samples. Timings are pooled over
// every session of the run — sessions are built just before they are
// driven, so set-up, steps and reopens all sample the whole run rather
// than one phase of the host's drifting speed.
type recorder struct {
	steps    []float64 // ms, Suggest call to Assert return, every completed step
	driveSec float64   // wall seconds spent in annotation loops
	alloc    uint64    // bytes allocated inside annotation loops
	setups   []float64 // s per session build
	insts    []float64 // ms per Instantiate call at the goal
	reopens  []float64 // ms per restore of a closed or evicted session
	efforts  []float64 // share of candidates asserted at the goal
	f1s      []float64
	heaps    []float64 // MB of live heap per resident session

	attempted, failed int
	problems          []string
}

// op counts one attempted operation and, when err is non-nil, a failed
// one. It reports whether the operation succeeded.
func (r *recorder) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%s: %v", what, err)
		return false
	}
	return true
}

// problem records a correctness violation; any makes the run incorrect.
func (r *recorder) problem(format string, args ...any) {
	const keep = 20
	switch {
	case len(r.problems) < keep:
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	case len(r.problems) == keep:
		r.problems = append(r.problems, "further problems suppressed")
	}
}

func (r *recorder) metrics() map[string]metric {
	steps := float64(len(r.steps))
	vals := map[string]float64{
		"setup_s":             median(r.setups),
		"steps_per_s":         steps / r.driveSec,
		"step_p50_ms":         quantile(r.steps, 0.50),
		"step_p99_ms":         quantile(r.steps, 0.99),
		"instantiate_ms":      trimmedMean(r.insts),
		"reopen_ms":           median(r.reopens),
		"effort_h10":          mean(r.efforts),
		"match_f1":            mean(r.f1s),
		"heap_mb_per_session": median(r.heaps),
		"alloc_kb_per_step":   float64(r.alloc) / 1024 / steps,
	}
	return withUnits(endToEnd, vals)
}

func (r *recorder) summary() string {
	p99 := quantile(r.steps, 0.99)
	above := 0
	for _, s := range r.steps {
		if s > p99 {
			above++
		}
	}
	return fmt.Sprintf("samples: steps=%d above_p99=%d setups=%d instantiates=%d reopens=%d attempted=%d failed=%d",
		len(r.steps), above, len(r.setups), len(r.insts), len(r.reopens), r.attempted, r.failed)
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// matchF1 scores an instantiated matching against the reachable ground
// truth.
func matchF1(m *schemanet.Matching, nw *network) float64 {
	tp := m.IntersectionSize(nw.reachable)
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(m.Size())
	r := float64(tp) / float64(nw.reachable.Size())
	return 2 * p * r / (p + r)
}

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(b int64) float64 { return float64(b) / (1 << 20) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of the middle 80% of xs. It averages over the
// host's fast and slow phases, which a median of bimodal samples does
// not, while a stray preemption or collection at either end is dropped.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	return mean(s[k : len(s)-k])
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
