package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"schemanet"
)

var errNoSuggestion = errors.New("no suggestion before the goal")

// step is one completed suggest→assert step as a traced run records it.
type step struct {
	cand            int
	approved        bool
	suggest, assert time.Duration // summed over collision retries
	collisions      int
}

// trail is what a traced session leaves for the core replay.
type trail struct {
	nw    *network
	opts  schemanet.Options
	steps []step    // in the order the session committed them
	probs []float64 // probabilities at the goal
}

// annotator is the read/write surface one expert drives.
type annotator interface {
	Suggest() (int, bool)
	Assert(c int, correct bool) error
	Uncertainty() float64
}

// lane is one annotator goroutine's share of a session.
type lane struct {
	steps      []float64
	spans      []step
	attempted  int
	collisions int
	err        error
}

// annotate runs one closed-loop expert until the network uncertainty
// reaches goal: Suggest, answer from the ground truth, Assert, repeat.
// An ErrAlreadyAsserted collision (another expert took the same
// suggestion first) is retried inside the step; the step's time is the
// expert's whole wait.
func annotate(s annotator, truth []bool, goal float64, traced bool) lane {
	var l lane
	for s.Uncertainty() > goal {
		var sp step
		start := time.Now()
		for {
			l.attempted++
			t := time.Now()
			c, ok := s.Suggest()
			if !ok {
				l.err = errNoSuggestion
				return l
			}
			var mid time.Time
			if traced {
				mid = time.Now()
			}
			err := s.Assert(c, truth[c])
			if traced {
				end := time.Now()
				sp.suggest += mid.Sub(t)
				sp.assert += end.Sub(mid)
				sp.cand, sp.approved = c, truth[c]
			}
			if errors.Is(err, schemanet.ErrAlreadyAsserted) {
				sp.collisions++
				l.collisions++
				continue
			}
			if err != nil {
				l.err = fmt.Errorf("Assert(%d): %w", c, err)
				return l
			}
			break
		}
		l.steps = append(l.steps, ms(time.Since(start)))
		if traced {
			l.spans = append(l.spans, sp)
		}
	}
	return l
}

// session builds one in-memory session, drives it to the paper's goal
// (uncertainty at most a tenth of its initial value), instantiates it,
// and restores it from its saved form. A solo session has one annotator
// on a plain Session; a crowd session has two annotator goroutines on
// one ConcurrentSession. Traced sessions return a trail for the replay.
func (r *recorder) session(kind driverKind, nw *network, opts schemanet.Options, traced bool) *trail {
	base := liveHeap()
	start := time.Now()
	var (
		s    *schemanet.Session
		cs   *schemanet.ConcurrentSession
		err  error
		live annotator
	)
	if kind == crowdDriver {
		cs, err = schemanet.NewConcurrentSession(nw.d.Network, &opts)
		live = cs
	} else {
		s, err = schemanet.NewSession(nw.d.Network, &opts)
		live = s
	}
	setup := time.Since(start)
	if !r.op(err, "NewSession") {
		return nil
	}
	r.setups = append(r.setups, setup.Seconds())
	goal := 0.1 * live.Uncertainty()

	a0 := totalAlloc()
	start = time.Now()
	lanes := make([]lane, 1)
	if kind == crowdDriver {
		lanes = make([]lane, 2)
		var wg sync.WaitGroup
		for i := range lanes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lanes[i] = annotate(live, nw.truth, goal, traced)
			}(i)
		}
		wg.Wait()
	} else {
		lanes[0] = annotate(live, nw.truth, goal, traced)
	}
	r.driveSec += time.Since(start).Seconds()
	r.alloc += totalAlloc() - a0

	t := &trail{nw: nw, opts: opts}
	for _, l := range lanes {
		r.steps = append(r.steps, l.steps...)
		t.steps = append(t.steps, l.spans...)
		// Suggest→Assert attempts; collisions were retried, not failed.
		r.attempted += l.attempted - 1
		r.op(l.err, "annotation loop")
	}
	if h := live.Uncertainty(); h > goal {
		r.problem("session seed %d stopped at uncertainty %.4g above its goal %.4g", opts.Seed, h, goal)
	}
	n := nw.d.Network.NumCandidates()
	var effort float64
	if cs != nil {
		effort = cs.Effort()
	} else {
		effort = s.Effort()
	}
	r.efforts = append(r.efforts, effort)
	if traced {
		t.probs = make([]float64, n)
		for c := range t.probs {
			p, err := probability(s, cs, c)
			if !r.op(err, "Probability") {
				return nil
			}
			t.probs[c] = p
		}
	}
	r.heaps = append(r.heaps, mb(liveHeap()-base))
	runtime.KeepAlive(s)
	runtime.KeepAlive(cs)

	// Instantiate takes a few milliseconds, shorter than the host's speed
	// phases, so any single call lands in whichever phase is current.
	// Every call of a back-to-back series is pooled, and the metric
	// averages over the whole run's pool.
	var m *schemanet.Matching
	for i := 0; i < instantiateReps; i++ {
		start := time.Now()
		if cs != nil {
			m = cs.Instantiate()
		} else {
			m = s.Instantiate()
		}
		r.insts = append(r.insts, ms(time.Since(start)))
		r.attempted++
	}
	f1 := matchF1(m, nw)
	if f1 <= 0 || f1 > 1 {
		r.problem("session seed %d: match F1 %v at the goal", opts.Seed, f1)
	}
	r.f1s = append(r.f1s, f1)

	// Restore from the saved form: the in-memory session's reopen.
	var buf bytes.Buffer
	if cs != nil {
		err = cs.Save(&buf)
	} else {
		err = s.Save(&buf)
	}
	if !r.op(err, "Save") {
		return nil
	}
	r.reopens = append(r.reopens, fastest(func() error {
		back, err := schemanet.LoadSession(nw.d.Network, &opts, bytes.NewReader(buf.Bytes()))
		if err == nil && cs != nil {
			_ = back.Concurrent()
		}
		if r.op(err, "LoadSession") && back.Effort() != effort {
			r.problem("session seed %d reloaded at effort %v, saved at %v", opts.Seed, back.Effort(), effort)
		}
		return err
	}))

	if traced && cs != nil {
		// Concurrent steps committed in the session's history order,
		// which is what the replay must follow; the lanes' own order can
		// differ by a scheduling hair.
		order, err := savedOrder(buf.Bytes(), nw)
		if !r.op(err, "reading saved history") {
			return nil
		}
		t.steps, err = reorder(t.steps, order)
		if !r.op(err, "matching saved history to steps") {
			return nil
		}
	}
	return t
}

// instantiateReps is how many back-to-back Instantiate calls a session
// (or durable tenant) times at its goal.
const instantiateReps = 10

// fastest times op a few times and returns the fastest run in ms. The
// repeats do identical work back to back, so the minimum filters out
// the collections and host slowdowns that land on single calls of
// these millisecond operations.
func fastest(op func() error) float64 {
	const reps = 3
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		err := op()
		best = math.Min(best, ms(time.Since(start)))
		if err != nil {
			break
		}
	}
	return best
}

func probability(s *schemanet.Session, cs *schemanet.ConcurrentSession, c int) (float64, error) {
	if cs != nil {
		return cs.Probability(c)
	}
	return s.Probability(c)
}

// savedOrder reads the candidate order of a saved session's history.
func savedOrder(saved []byte, nw *network) ([]int, error) {
	var st struct {
		History []struct {
			From string `json:"from"`
			To   string `json:"to"`
		} `json:"history"`
	}
	if err := json.Unmarshal(saved, &st); err != nil {
		return nil, err
	}
	net := nw.d.Network
	byName := make(map[string]schemanet.AttrID, net.NumAttributes())
	for a := 0; a < net.NumAttributes(); a++ {
		byName[net.FullName(schemanet.AttrID(a))] = schemanet.AttrID(a)
	}
	out := make([]int, len(st.History))
	for i, h := range st.History {
		a, okA := byName[h.From]
		b, okB := byName[h.To]
		c := net.CandidateIndex(a, b)
		if !okA || !okB || c < 0 {
			return nil, fmt.Errorf("history entry %d (%s, %s) names no candidate", i, h.From, h.To)
		}
		out[i] = c
	}
	return out, nil
}

// reorder arranges steps in the given candidate order.
func reorder(steps []step, order []int) ([]step, error) {
	if len(steps) != len(order) {
		return nil, fmt.Errorf("%d steps but %d history entries", len(steps), len(order))
	}
	at := make(map[int]step, len(steps))
	for _, s := range steps {
		at[s.cand] = s
	}
	out := make([]step, len(order))
	for i, c := range order {
		s, ok := at[c]
		if !ok {
			return nil, fmt.Errorf("history entry %d (candidate %d) has no step", i, c)
		}
		out[i] = s
	}
	return out, nil
}
