package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"schemanet/internal/wal"
)

// small returns a copy of the named workload shrunk to test size: a
// small network, and with smallConfig one unit, so a run takes well
// under a second.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.size = 96
	switch c.kind {
	case crowdDriver:
		c.size = 128
	case durableDriver:
		c.tenants, c.maxOpen, c.burst = 3, 2, 5
	}
	return &c
}

func smallConfig(t *testing.T, traced bool) runConfig {
	return runConfig{seed: 3, seconds: 1e-9, traced: traced, tmp: filepath.Join(t.TempDir(), "stores")}
}

func TestNetworksRepeatForASeed(t *testing.T) {
	for _, name := range workloadNames() {
		w := small(t, name)
		a, err := w.network(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.network(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.d.Network.Candidates(), b.d.Network.Candidates()) || !reflect.DeepEqual(a.truth, b.truth) {
			t.Errorf("%s: seed 5 generated two different networks", name)
		}
		c, err := w.network(6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.d.Network.Candidates(), c.d.Network.Candidates()) {
			t.Errorf("%s: seeds 5 and 6 generated the same network", name)
		}
	}
}

// TestSingleDriverRunsRepeatForASeed: with one driver, a seed fixes the
// whole step sequence and therefore effort_h10.
func TestSingleDriverRunsRepeatForASeed(t *testing.T) {
	for _, name := range []string{"solo-dense", "solo-manysmall"} {
		w := small(t, name)
		nw, err := w.network(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts := sessionOptions(2, 0)
		var r1, r2 recorder
		t1 := r1.session(w.kind, nw, opts, true)
		t2 := r2.session(w.kind, nw, opts, true)
		if t1 == nil || t2 == nil || len(r1.problems)+len(r2.problems) > 0 {
			t.Fatalf("%s: sessions failed: %v %v", name, r1.problems, r2.problems)
		}
		if !reflect.DeepEqual(cands(t1.steps), cands(t2.steps)) {
			t.Errorf("%s: step sequences differ:\n%v\n%v", name, cands(t1.steps), cands(t2.steps))
		}
		if !reflect.DeepEqual(r1.efforts, r2.efforts) {
			t.Errorf("%s: effort %v vs %v", name, r1.efforts, r2.efforts)
		}
	}
	w := small(t, "durable-tenants")
	nw, err := w.network(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var r1, r2 recorder
	r1.durableRound(w, nw, sessionOptions(2, 0), filepath.Join(t.TempDir(), "a"), nil, false)
	r2.durableRound(w, nw, sessionOptions(2, 0), filepath.Join(t.TempDir(), "b"), nil, false)
	if len(r1.problems)+len(r2.problems) > 0 {
		t.Fatalf("durable rounds failed: %v %v", r1.problems, r2.problems)
	}
	if len(r1.steps) != len(r2.steps) || !reflect.DeepEqual(r1.efforts, r2.efforts) {
		t.Errorf("durable: %d steps, effort %v vs %d steps, effort %v", len(r1.steps), r1.efforts, len(r2.steps), r2.efforts)
	}
}

func cands(steps []step) []int {
	out := make([]int, len(steps))
	for i, s := range steps {
		out[i] = s.cand
	}
	return out
}

// TestSmokeEmitsEveryMetric runs every workload briefly in both modes:
// the run must pass its correctness gate and report exactly the metrics
// BENCHMARK.json names, end-to-end ones all non-zero.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := smallConfig(t, traced)
			res, notes, err := small(t, name).measure(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%v",
					name, traced, res.Correct, res.Attempted, res.Failed, notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if _, err := os.Stat(cfg.tmp); !os.IsNotExist(err) {
				t.Errorf("%s traced=%v: scratch directory left behind (%v)", name, traced, err)
			}
		}
	}
}

// TestTimingFSPassesThrough: the timing wrapper must hand back exactly
// the bytes and errors of the filesystem it wraps.
func TestTimingFSPassesThrough(t *testing.T) {
	for _, timed := range []bool{false, true} {
		mem := wal.NewMemFS()
		fsys := &timingFS{inner: mem, timed: timed, flush: true}
		if err := fsys.MkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		recs := []wal.Record{
			{Seq: 1, Annotator: "expert", From: "s.a", To: "t.b", Approved: true},
			{Seq: 2, From: "s.c", To: "t.d"},
		}
		l, _, _, err := wal.Open(fsys, "d", "d/wal.log", wal.SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want, err := mem.ReadFile("d/wal.log")
		if err != nil {
			t.Fatal(err)
		}
		got, err := fsys.ReadFile("d/wal.log")
		if err != nil || string(got) != string(want) {
			t.Fatalf("ReadFile through the wrapper = %q, %v; want %q", got, err, want)
		}
		if back, res := wal.Recover(got); !res.Clean() || !reflect.DeepEqual(back, recs) {
			t.Fatalf("recovered %+v (%+v), want %+v", back, res, recs)
		}
		if _, err := fsys.ReadFile("d/missing"); !os.IsNotExist(err) {
			t.Errorf("ReadFile of a missing file: %v, want not-exist", err)
		}

		boom := errors.New("injected")
		for _, op := range []string{"create", "append", "write", "sync", "rename", "syncdir"} {
			f, err := fsys.Create("d/x")
			if err != nil {
				t.Fatal(err)
			}
			mem.SetHook(func(o, _ string, _ int) error {
				if o == op {
					return boom
				}
				return nil
			})
			switch op {
			case "create":
				_, err = fsys.Create("d/y")
			case "append":
				_, err = fsys.OpenAppend("d/y")
			case "write":
				_, err = f.Write([]byte("payload"))
			case "sync":
				err = f.Sync()
			case "rename":
				err = fsys.Rename("d/x", "d/y")
			case "syncdir":
				err = fsys.SyncDir("d")
			}
			mem.SetHook(nil)
			if err != boom {
				t.Errorf("timed=%v: %s returned %v, want the injected error unchanged", timed, op, err)
			}
		}
		f, err := fsys.OpenAppend("d/short")
		if err != nil {
			t.Fatal(err)
		}
		mem.ShortWriteNext(3)
		if n, err := f.Write([]byte("payload")); n != 3 || !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("short write returned %d, %v; want 3, io.ErrShortWrite", n, err)
		}

		st := fsys.stats()
		if st.writes == 0 || st.fsyncs == 0 || st.renames == 0 || st.readBytes != int64(len(want)) {
			t.Errorf("counters not kept: %+v", st)
		}
		if !timed && st.io() != 0 {
			t.Errorf("untimed wrapper recorded %v of I/O time", st.io())
		}
	}
}

// TestTimingFSCountsElidedFlushes: without flush, syncs are counted but
// never reach the wrapped filesystem.
func TestTimingFSCountsElidedFlushes(t *testing.T) {
	mem := wal.NewMemFS()
	fsys := &timingFS{inner: mem}
	if err := fsys.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create("d/x")
	if err != nil {
		t.Fatal(err)
	}
	mem.SetHook(func(op, _ string, _ int) error {
		if op == "sync" || op == "syncdir" {
			t.Errorf("%s reached the wrapped filesystem", op)
		}
		return nil
	})
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	if got := fsys.stats().fsyncs; got != 2 {
		t.Errorf("counted %d syncs, want 2", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload tables in
// step with the benchmark's declaration at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "solo-dense", "--trace", "2"},
		{"--workload", "solo-dense", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}
