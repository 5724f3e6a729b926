package app

import (
	"sync"
	"time"

	"lockholdtest/wire"
)

type state struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// acrossRPC holds the mutex over a wire round trip.
func acrossRPC(s *state, c *wire.Client) {
	s.mu.Lock()
	_, _ = c.Call("x") // want `blocking call to \(\*wire\.Client\)\.Call while s\.mu is held by s\.mu\.Lock\(\)`
	s.mu.Unlock()
}

// acrossRPCDeferred: a deferred unlock holds the lock across the call
// just the same.
func acrossRPCDeferred(s *state, c *wire.Client) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	_, _ = c.Call("x") // want `blocking call to \(\*wire\.Client\)\.Call while s\.rw is held by s\.rw\.RLock\(\)`
}

// acrossChan: channel operations block indefinitely with no reader.
func acrossChan(s *state, ch chan int) {
	s.mu.Lock()
	ch <- 1    // want `channel send while s\.mu is held`
	s.n = <-ch // want `channel receive while s\.mu is held`
	s.mu.Unlock()
}

// acrossSleep under a deferred unlock.
func acrossSleep(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while s\.mu is held`
}

// waitUnder: Wait parks the goroutine while everyone else contends.
func waitUnder(s *state, wg *sync.WaitGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wg.Wait() // want `\(\*sync\.WaitGroup\)\.Wait while s\.mu is held`
}

// condWait is fine: sync.Cond.Wait must be called holding its L (here
// &s.mu), and gives it up while it waits.
func condWait(s *state, c *sync.Cond) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 {
		c.Wait()
	}
}

// blockingSelect: no default clause means this can park forever.
func blockingSelect(s *state, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select without default while s\.mu is held`
	case v := <-ch:
		s.n = v
	}
}

// earlyReturn leaves the function with the mutex still held.
func earlyReturn(s *state, bad bool) {
	s.mu.Lock()
	if bad {
		return // want `return while s\.mu is held by s\.mu\.Lock\(\) with no Unlock on this path`
	}
	s.mu.Unlock()
}

// neverUnlocked: no release anywhere in the function.
func neverUnlocked(s *state) int {
	s.mu.Lock() // want `s\.mu\.Lock\(\) has no matching Unlock in this function \(use defer\)`
	return s.n  // want `return while s\.mu is held`
}

// releasedFirst is fine: the lock is dropped before the round trip.
func releasedFirst(s *state, c *wire.Client) {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	if n > 0 {
		_, _ = c.Call("x")
	}
}

// nonBlockingSelect is fine: the default clause makes it a poll.
func nonBlockingSelect(s *state, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// branchRelease is fine: every path unlocks before returning.
func branchRelease(s *state, bad bool) {
	s.mu.Lock()
	if bad {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

// goroutineUnderLock is fine: the spawned goroutine's channel send
// does not run while the caller holds the lock.
func goroutineUnderLock(s *state, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { ch <- s.n }()
}

// nonRPCCall is fine: Describe is not a wire round trip.
func nonRPCCall(s *state, c *wire.Client) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.Describe()
}
