package staleness

import (
	"sync"
	"testing"
	"time"
)

func TestControllerAIMD(t *testing.T) {
	c := NewController(nil)
	if c.Share() != 1 {
		t.Fatalf("initial share = %v", c.Share())
	}
	// Full share admits everything.
	for i := 0; i < 10; i++ {
		if !c.Allow() {
			t.Fatal("full share denied a read")
		}
	}
	// A violation cuts hard.
	c.Violation()
	if s := c.Share(); s != 0.25 {
		t.Fatalf("post-violation share = %v, want 0.25", s)
	}
	// Deterministic token accumulation: share 0.25 admits exactly one
	// in four.
	admitted := 0
	for i := 0; i < 40; i++ {
		if c.Allow() {
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("share 0.25 admitted %d/40, want 10", admitted)
	}
	// Successes widen additively back toward 1.
	for i := 0; i < 64; i++ {
		c.Success()
	}
	if s := c.Share(); s != 1 {
		t.Fatalf("recovered share = %v, want 1", s)
	}
}

func TestControllerCooldownCoalescesBurst(t *testing.T) {
	now, advance := fakeNow()
	c := NewController(now)
	// A burst inside one cooldown costs one cut, however many reads
	// were in flight; every violation is still counted.
	c.Violation()
	advance(cooldown / 2)
	c.Violation()
	advance(cooldown/2 - time.Nanosecond)
	c.Redirect()
	if s := c.Share(); s != 0.25 {
		t.Fatalf("burst share = %v, want one cut (0.25)", s)
	}
	if v, cuts := c.Counters(); v != 2 || cuts != 1 {
		t.Fatalf("counters = %d violations %d cuts, want 2 and 1", v, cuts)
	}
	// Once the cooldown has passed the next signal cuts again.
	advance(time.Nanosecond)
	c.Redirect()
	if s := c.Share(); s != 0.125 {
		t.Fatalf("share after cooldown = %v, want 0.125", s)
	}
	if _, cuts := c.Counters(); cuts != 2 {
		t.Fatalf("cuts = %d, want 2", cuts)
	}
}

func TestControllerFloorKeepsProbing(t *testing.T) {
	now, advance := fakeNow()
	c := NewController(now)
	for i := 0; i < 100; i++ {
		advance(cooldown)
		c.Violation()
	}
	if s := c.Share(); s != minShare {
		t.Fatalf("floored share = %v, want %v", s, minShare)
	}
	saw := false
	for i := 0; i < 200; i++ {
		if c.Allow() {
			saw = true
		}
	}
	if !saw {
		t.Fatal("floored controller never probes")
	}
}

func TestControllerConcurrency(t *testing.T) {
	c := NewController(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if c.Allow() {
					c.Success()
				} else {
					c.Redirect()
				}
			}
		}()
	}
	wg.Wait()
}
