package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"schemanet"
	"schemanet/internal/wal"
)

// timingFS wraps a wal.FS, counting every operation and, when timed,
// the time spent in writes and fsyncs. Bytes and errors pass through
// unchanged. The durable workload always counts (ReadFile calls reveal a
// tenant reopening from disk); only the traced run times.
//
// Unless flush is set, Sync and SyncDir are counted but not passed on:
// a shared host's device flush swings several-fold between runs, which
// would set every end-to-end figure of the workload. The untraced run
// therefore measures the store's own work (record encoding, writes to
// the page cache, compaction, replay); the traced run flushes for real
// and reports the device's share as wal.fsync_ms.
type timingFS struct {
	inner wal.FS
	timed bool
	flush bool

	reads, readBytes   atomic.Int64
	writes, writeBytes atomic.Int64
	fsyncs, renames    atomic.Int64
	writeNs, fsyncNs   atomic.Int64
}

// fsStats is a plain copy of a timingFS's counters.
type fsStats struct {
	reads, readBytes     int64
	writes, writeBytes   int64
	fsyncs, renames      int64
	writeTime, fsyncTime time.Duration
}

func (f *timingFS) stats() fsStats {
	return fsStats{
		reads: f.reads.Load(), readBytes: f.readBytes.Load(),
		writes: f.writes.Load(), writeBytes: f.writeBytes.Load(),
		fsyncs: f.fsyncs.Load(), renames: f.renames.Load(),
		writeTime: time.Duration(f.writeNs.Load()), fsyncTime: time.Duration(f.fsyncNs.Load()),
	}
}

// io is the time spent in writes and fsyncs so far.
func (s fsStats) io() time.Duration { return s.writeTime + s.fsyncTime }

func (s *fsStats) add(o fsStats) {
	s.reads += o.reads
	s.readBytes += o.readBytes
	s.writes += o.writes
	s.writeBytes += o.writeBytes
	s.fsyncs += o.fsyncs
	s.renames += o.renames
	s.writeTime += o.writeTime
	s.fsyncTime += o.fsyncTime
}

// span times fn into ns when the FS is timed.
func (f *timingFS) span(ns *atomic.Int64, fn func() error) error {
	if !f.timed {
		return fn()
	}
	start := time.Now()
	err := fn()
	ns.Add(int64(time.Since(start)))
	return err
}

func (f *timingFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	data, err := f.inner.ReadFile(name)
	f.reads.Add(1)
	f.readBytes.Add(int64(len(data)))
	return data, err
}

func (f *timingFS) Create(name string) (wal.File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{inner: file, fs: f}, nil
}

func (f *timingFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{inner: file, fs: f}, nil
}

func (f *timingFS) Rename(oldname, newname string) error {
	f.renames.Add(1)
	return f.inner.Rename(oldname, newname)
}

func (f *timingFS) Remove(name string) error { return f.inner.Remove(name) }

func (f *timingFS) SyncDir(dir string) error {
	f.fsyncs.Add(1)
	if !f.flush {
		return nil
	}
	return f.span(&f.fsyncNs, func() error { return f.inner.SyncDir(dir) })
}

type timingFile struct {
	inner wal.File
	fs    *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	var n int
	err := t.fs.span(&t.fs.writeNs, func() error {
		var err error
		n, err = t.inner.Write(p)
		return err
	})
	t.fs.writes.Add(1)
	t.fs.writeBytes.Add(int64(n))
	return n, err
}

func (t *timingFile) Sync() error {
	t.fs.fsyncs.Add(1)
	if !t.fs.flush {
		return nil
	}
	return t.fs.span(&t.fs.fsyncNs, t.inner.Sync)
}

func (t *timingFile) Close() error { return t.inner.Close() }

// ack is one acknowledged durable assertion.
type ack struct {
	cand     int
	approved bool
}

// tenant is the driver's view of one durable session.
type tenant struct {
	name      string
	annotator string
	ds        *schemanet.DurableSession
	goal      float64 // < 0 until the first burst reads the initial uncertainty
	acked     []ack
	done      bool
}

// durableRound runs one store generation: open a store with fsync per
// assertion and a resident pool smaller than its tenants, create every
// tenant, drive them in round-robin bursts to their goals (the LRU
// evicts with compaction and reopens with replay), instantiate each,
// close the store, reopen every tenant, and check that each one's
// durable history equals its acknowledged asserts. flush says whether
// the store's syncs reach the device (see timingFS).
func (r *recorder) durableRound(w *workload, nw *network, opts schemanet.Options, dir string, tr *tracer, flush bool) {
	defer os.RemoveAll(dir)
	fsys := &timingFS{inner: wal.OS(), timed: tr != nil, flush: flush}
	sopts := &schemanet.StoreOptions{
		Session: &opts, MaxOpen: w.maxOpen, Sync: "always", FS: fsys,
		Logf: func(format string, args ...any) { r.problem("store: "+format, args...) },
	}
	base := liveHeap()
	start := time.Now()
	st, err := schemanet.OpenStore(dir, nw.d.Network, sopts)
	if !r.op(err, "OpenStore") {
		return
	}
	defer st.Close()
	tenants := make([]*tenant, w.tenants)
	for i := range tenants {
		t := &tenant{name: fmt.Sprintf("tenant-%d", i), annotator: fmt.Sprintf("expert-%d", i), goal: -1}
		t.ds, err = st.Session(t.name)
		// One set-up sample per tenant; the first one carries OpenStore.
		r.setups = append(r.setups, time.Since(start).Seconds())
		if !r.op(err, "first touch of "+t.name) {
			return
		}
		tenants[i] = t
		start = time.Now()
	}
	opens := len(tenants) // tenant loads; each beyond the resident ones was evicted

	a0 := totalAlloc()
	start = time.Now()
	// Burst-opening touches (and the reopens they trigger) are reported
	// as reopen_ms; steps_per_s counts only the time spent stepping.
	var touching time.Duration
	for remaining := len(tenants); remaining > 0; {
		for _, t := range tenants {
			if t.done {
				continue
			}
			touchStart := time.Now()
			h, reopened, ok := r.touch(t, fsys, tr, func() (float64, error) { return t.ds.Uncertainty() })
			touching += time.Since(touchStart)
			if !ok {
				return
			}
			if reopened {
				opens++
			}
			if t.goal < 0 {
				t.goal = 0.1 * h
			}
			for b := 0; b < w.burst && h > t.goal; b++ {
				if !r.durableStep(t, nw, fsys, tr) {
					return
				}
				if h, err = t.ds.Uncertainty(); !r.op(err, "Uncertainty") {
					return
				}
			}
			if h <= t.goal {
				t.done = true
				remaining--
				e, err := t.ds.Effort()
				if !r.op(err, "Effort") {
					return
				}
				r.efforts = append(r.efforts, e)
			}
		}
	}
	r.driveSec += (time.Since(start) - touching).Seconds()

	r.alloc += totalAlloc() - a0
	r.heaps = append(r.heaps, mb(liveHeap()-base)/float64(st.Resident()))

	for _, t := range tenants {
		_, reopened, ok := r.touch(t, fsys, tr, func() (float64, error) {
			seq, err := t.ds.Seq()
			return float64(seq), err
		})
		if !ok {
			return
		}
		if reopened {
			opens++
		}
		var m *schemanet.Matching
		for i := 0; i < instantiateReps; i++ {
			start := time.Now()
			m, err = t.ds.Instantiate()
			r.insts = append(r.insts, ms(time.Since(start)))
			if !r.op(err, "Instantiate") {
				return
			}
		}
		f1 := matchF1(m, nw)
		if f1 <= 0 || f1 > 1 {
			r.problem("%s: match F1 %v at the goal", t.name, f1)
		}
		r.f1s = append(r.f1s, f1)
	}

	if tr != nil {
		tr.evictions += opens - st.Resident()
	}

	// Restart: close the store, reopen every tenant, and check that no
	// acknowledged assertion was lost.
	if !r.op(st.Close(), "closing store") {
		return
	}
	st, err = schemanet.OpenStore(dir, nw.d.Network, sopts)
	if !r.op(err, "reopening store") {
		return
	}
	defer st.Close()
	for _, t := range tenants {
		start := time.Now()
		t.ds, err = st.Session(t.name)
		r.reopens = append(r.reopens, ms(time.Since(start)))
		if !r.op(err, "reopening "+t.name) {
			return
		}
		if tr != nil {
			tr.reopens++
		}
		r.checkHistory(t, nw)
	}
	if tr != nil {
		tr.fs.add(fsys.stats())
	}
}

// touch makes the first call of a burst on t, timing it as a reopen
// when the tenant had to be read back from disk (a tenant load is the
// only thing that reads files).
func (r *recorder) touch(t *tenant, fsys *timingFS, tr *tracer, call func() (float64, error)) (v float64, reopened, ok bool) {
	reads := fsys.reads.Load()
	start := time.Now()
	v, err := call()
	d := time.Since(start)
	if !r.op(err, "touching "+t.name) {
		return 0, false, false
	}
	reopened = fsys.reads.Load() != reads
	if reopened {
		r.reopens = append(r.reopens, ms(d))
		if tr != nil {
			tr.reopens++
		}
	}
	return v, reopened, true
}

// durableStep runs one suggest→assert step on a tenant.
func (r *recorder) durableStep(t *tenant, nw *network, fsys *timingFS, tr *tracer) bool {
	r.attempted++
	var io0 time.Duration
	if tr != nil {
		io0 = fsys.stats().io()
	}
	start := time.Now()
	c, ok := t.ds.Suggest()
	var mid time.Time
	if tr != nil {
		mid = time.Now()
	}
	if !ok {
		r.op(errNoSuggestion, t.name)
		return false
	}
	err := t.ds.AssertAs(t.annotator, c, nw.truth[c])
	end := time.Now()
	if err != nil {
		r.op(err, fmt.Sprintf("%s: AssertAs(%d)", t.name, c))
		return false
	}
	r.steps = append(r.steps, ms(end.Sub(start)))
	t.acked = append(t.acked, ack{cand: c, approved: nw.truth[c]})
	if tr != nil {
		tr.addStep(step{cand: c, approved: nw.truth[c], suggest: mid.Sub(start), assert: end.Sub(mid)})
		tr.walInSteps += fsys.stats().io() - io0
	}
	return true
}

// checkHistory verifies a reopened tenant's durable history against the
// asserts the store acknowledged.
func (r *recorder) checkHistory(t *tenant, nw *network) {
	seq, err := t.ds.Seq()
	if !r.op(err, "Seq") {
		return
	}
	hist, err := t.ds.History()
	if !r.op(err, "History") {
		return
	}
	if seq != uint64(len(t.acked)) || len(hist) != len(t.acked) {
		r.problem("%s: %d acknowledged asserts, reopened with seq %d and %d history records", t.name, len(t.acked), seq, len(hist))
		return
	}
	net := nw.d.Network
	for i, a := range t.acked {
		cand := net.Candidate(a.cand)
		h := hist[i]
		if h.Seq != uint64(i+1) || h.From != net.FullName(cand.A) || h.To != net.FullName(cand.B) ||
			h.Approved != a.approved || h.Annotator != t.annotator {
			r.problem("%s: history record %d is %+v, acknowledged candidate %d approved=%v", t.name, i, h, a.cand, a.approved)
			return
		}
	}
}
