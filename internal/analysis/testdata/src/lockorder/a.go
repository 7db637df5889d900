// Package lockfix mirrors the concurrent serving layer's lock fields
// so the lockorder analyzer's hierarchy table can be exercised without
// loading the real root package.
package lockfix

import "sync"

type ComponentSnapshot struct{ probs []float64 }

type ConcurrentSession struct {
	topoMu  sync.RWMutex
	batchMu sync.RWMutex
	locks   []sync.Mutex
	feedMu  sync.Mutex
	sugMu   sync.Mutex
}

type SessionStore struct {
	mu   sync.Mutex
	open map[string]*liveSession
}

type liveSession struct {
	walMu sync.Mutex
}

// assertPattern is the canonical write path: topo read lock, one
// component lock, feedMu briefly inside it. In order; silent.
func (cs *ConcurrentSession) assertPattern(k int) {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	cs.locks[k].Lock()
	defer cs.locks[k].Unlock()
	cs.feedMu.Lock()
	cs.feedMu.Unlock()
}

// lockAllPattern is the whole-network path: batch exclusion, every
// component in ascending range order, then feedMu. Silent.
func (cs *ConcurrentSession) lockAllPattern() {
	cs.batchMu.Lock()
	for k := range cs.locks {
		cs.locks[k].Lock()
	}
	cs.feedMu.Lock()
}

// feedThenComponent inverts the component/feed order.
func (cs *ConcurrentSession) feedThenComponent(k int) {
	cs.feedMu.Lock()
	defer cs.feedMu.Unlock()
	cs.locks[k].Lock() // want `locks\[k\] acquired while holding ConcurrentSession\.feedMu`
	defer cs.locks[k].Unlock()
}

// descendingComponents acquires two component locks out of ascending
// order.
func (cs *ConcurrentSession) descendingComponents() {
	cs.locks[2].Lock()
	cs.locks[1].Lock() // want `component lock 1 acquired while holding component lock 2`
	cs.locks[1].Unlock()
	cs.locks[2].Unlock()
}

// batchAfterComponent takes the batch exclusion after a component lock.
func (cs *ConcurrentSession) batchAfterComponent(k int) {
	cs.locks[k].Lock()
	defer cs.locks[k].Unlock()
	cs.batchMu.RLock() // want `batchMu acquired while holding ConcurrentSession\.locks\[k\]`
	defer cs.batchMu.RUnlock()
}

// topoAfterFeed violates the order across the whole hierarchy.
func (cs *ConcurrentSession) topoAfterFeed() {
	cs.feedMu.Lock()
	defer cs.feedMu.Unlock()
	cs.topoMu.Lock() // want `topoMu acquired while holding ConcurrentSession\.feedMu`
	defer cs.topoMu.Unlock()
}

// doubleFeed self-deadlocks.
func (cs *ConcurrentSession) doubleFeed() {
	cs.feedMu.Lock()
	cs.feedMu.Lock() // want `feedMu acquired while already held`
	cs.feedMu.Unlock()
	cs.feedMu.Unlock()
}

// releasedBetween is silent: the first component lock is released
// before the lower-indexed one is taken, and feedMu is released before
// the next component lock.
func (cs *ConcurrentSession) releasedBetween(k int) {
	cs.locks[2].Lock()
	cs.locks[2].Unlock()
	cs.locks[1].Lock()
	cs.locks[1].Unlock()
	cs.feedMu.Lock()
	cs.feedMu.Unlock()
	cs.locks[k].Lock()
	cs.locks[k].Unlock()
}

// goroutineBody starts fresh: the literal holds nothing at entry, so
// its topoMu acquisition is silent even though the method holds feedMu.
func (cs *ConcurrentSession) goroutineBody() {
	cs.feedMu.Lock()
	defer cs.feedMu.Unlock()
	go func() {
		cs.topoMu.RLock()
		cs.topoMu.RUnlock()
	}()
}

// outsideHelper acquires a component lock from a plain function: even
// in the right order, the discipline must live in session methods.
func outsideHelper(cs *ConcurrentSession, k int) {
	cs.locks[k].Lock() // want `component lock ConcurrentSession\.locks acquired outside ConcurrentSession's methods`
	cs.locks[k].Unlock()
}

// otherOwner is a method, but of the wrong type.
func (st *SessionStore) otherOwner(cs *ConcurrentSession) {
	cs.locks[0].Lock() // want `component lock ConcurrentSession\.locks acquired outside ConcurrentSession's methods`
	cs.locks[0].Unlock()
}

// storeOrder is the documented store hierarchy. Silent.
func (st *SessionStore) storeOrder(ls *liveSession) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
}

// storeInverted takes the store lock under a session's WAL lock.
func (st *SessionStore) storeInverted(ls *liveSession) {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	st.mu.Lock() // want `SessionStore\.mu acquired while holding liveSession\.walMu`
	defer st.mu.Unlock()
}

// suggestRankPattern is a lazy rank loop: under the topology read lock,
// stale components are ranked in an index order the analyzer cannot
// see, which is safe only because each component lock is released
// before the next is taken. Silent.
func (cs *ConcurrentSession) suggestRankPattern(pending []int) {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	for _, k := range pending {
		cs.locks[k].Lock()
		cs.locks[k].Unlock()
	}
}

// rankHoldingPrevious shows why the release matters: ranking component
// 1 while still holding component 2 (an index list need not be
// ascending) is the deadlock the released-between discipline prevents.
func (cs *ConcurrentSession) rankHoldingPrevious() {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	cs.locks[2].Lock()
	defer cs.locks[2].Unlock()
	cs.locks[1].Lock() // want `component lock 1 acquired while holding component lock 2`
	cs.locks[1].Unlock()
}

// localMutex is untracked state; silent whatever the order.
func (cs *ConcurrentSession) localMutex() {
	var mu sync.Mutex
	cs.feedMu.Lock()
	defer cs.feedMu.Unlock()
	mu.Lock()
	mu.Unlock()
}

// suppressed documents a deliberate, justified violation.
func (cs *ConcurrentSession) suppressed(k int) {
	cs.feedMu.Lock()
	defer cs.feedMu.Unlock()
	//lint:ignore lockorder fixture: proving the escape hatch silences a real violation
	cs.locks[k].Lock()
	cs.locks[k].Unlock()
}
