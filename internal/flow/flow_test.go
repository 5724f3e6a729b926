package flow

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ace/internal/telemetry"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestAIMDLimiterIncreaseAndDecrease(t *testing.T) {
	clk := newFakeClock()
	l := aimd{limit: 10, min: 2, max: 20}

	// Below-target completions grow the limit additively.
	for i := 0; i < 200; i++ {
		l.observe(time.Millisecond, clk.Now())
	}
	if got := l.current(); got <= 10 {
		t.Fatalf("limit should grow under low latency, got %d", got)
	}

	// One over-target completion cuts it...
	before := l.current()
	l.observe(time.Second, clk.Now())
	after := l.current()
	if after >= before {
		t.Fatalf("limit should drop after over-target latency: %d -> %d", before, after)
	}
	// ...but the cooldown absorbs the rest of the burst.
	l.observe(time.Second, clk.Now())
	if got := l.current(); got != after {
		t.Fatalf("second decrease inside cooldown should be ignored: %d -> %d", after, got)
	}
	// After the cooldown the next congested completion bites again,
	// and the floor holds.
	for i := 0; i < 50; i++ {
		clk.Advance(targetLatency + time.Millisecond)
		l.observe(time.Second, clk.Now())
	}
	if got := l.current(); got != 2 {
		t.Fatalf("limit should bottom out at min=2, got %d", got)
	}

	// Growth is capped at max.
	for i := 0; i < 10000; i++ {
		l.observe(time.Millisecond, clk.Now())
	}
	if got := l.current(); got != 20 {
		t.Fatalf("limit should cap at max=20, got %d", got)
	}
}

// one builds a controller with a pinned concurrency limit.
func pinned(limit, queueLen int, maxWait time.Duration) *Controller {
	return NewController(Config{
		InitialLimit: limit, MinLimit: limit, MaxLimit: limit,
		QueueLen: queueLen, MaxQueueWait: maxWait,
	}, telemetry.NewRegistry())
}

func TestAdmitAndDone(t *testing.T) {
	c := pinned(4, 8, time.Second)
	tk, err := c.Admit(context.Background(), Data, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Inflight != 1 || s.AdmittedData != 1 || s.Principals != 1 {
		t.Fatalf("snapshot after admit: %+v", s)
	}
	tk.Done()
	tk.Done() // idempotent
	if s := c.Snapshot(); s.Inflight != 0 || s.Principals != 0 {
		t.Fatalf("snapshot after done: %+v", s)
	}
}

func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	c := pinned(1, 8, 5*time.Second)
	first, err := c.Admit(context.Background(), Data, "a")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		tk, err := c.Admit(context.Background(), Data, "b")
		tk.Done()
		got <- err
	}()
	waitForQueueDepth(t, c, 1)
	first.Done()
	if err := <-got; err != nil {
		t.Fatalf("queued admit should succeed once the slot frees: %v", err)
	}
}

// A principal alone at the limit queues instead of being shed for its
// fair share: there is nobody it could starve. Every plaintext
// connection is the one principal "anonymous", so this is the
// data-plane queue of every plaintext deployment.
func TestLonePrincipalQueuesAtLimit(t *testing.T) {
	c := pinned(1, 8, 5*time.Second)
	first, err := c.Admit(context.Background(), Data, "anonymous")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		tk, err := c.Admit(context.Background(), Data, "anonymous")
		tk.Done()
		got <- err
	}()
	waitForQueueDepth(t, c, 1)
	first.Done()
	if err := <-got; err != nil {
		t.Fatalf("the queued admit of a lone principal should succeed once the slot frees: %v", err)
	}
	if s := c.Snapshot(); s.ShedData != 0 || s.AdmittedData != 2 {
		t.Fatalf("lone principal at the limit: %+v, want 2 admitted and none shed", s)
	}
}

func TestQueueTimeout(t *testing.T) {
	c := pinned(1, 8, 30*time.Millisecond)
	first, err := c.Admit(context.Background(), Data, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Done()
	_, err = c.Admit(context.Background(), Data, "b")
	re, ok := IsRejected(err)
	if !ok || re.Reason != ReasonQueueTimeout {
		t.Fatalf("want queue_timeout rejection, got %v", err)
	}
	if re.RetryAfter <= 0 {
		t.Fatalf("rejection should carry a retry hint, got %v", re.RetryAfter)
	}
	if s := c.Snapshot(); s.ShedData != 1 {
		t.Fatalf("shed counter: %+v", s)
	}
}

func TestQueueFullShedsOldestWaiter(t *testing.T) {
	c := pinned(1, 2, 5*time.Second)
	holder, err := c.Admit(context.Background(), Data, "holder")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Done()

	errs := make(chan error, 2)
	go func() { _, err := c.Admit(context.Background(), Data, "w1"); errs <- err }()
	waitForQueueDepth(t, c, 1)
	go func() { _, err := c.Admit(context.Background(), Data, "w2"); errs <- err }()
	waitForQueueDepth(t, c, 2)

	// The queue is full: a third arrival sheds the oldest waiter (w1)
	// and takes its place.
	done := make(chan struct{})
	go func() {
		_, _ = c.Admit(context.Background(), Data, "w3")
		close(done)
	}()
	err = <-errs
	re, ok := IsRejected(err)
	if !ok || re.Reason != ReasonQueueFull {
		t.Fatalf("oldest waiter should be shed queue_full, got %v", err)
	}
	if s := c.Snapshot(); s.QueueDepth != 2 {
		t.Fatalf("queue depth after drop should stay at bound: %+v", s)
	}
	c.Close()
	<-done
}

func TestControlOutranksData(t *testing.T) {
	c := pinned(2, 4, 50*time.Millisecond)
	// Fill the data-plane limit.
	for i := 0; i < 2; i++ {
		if _, err := c.Admit(context.Background(), Data, "d"); err != nil {
			t.Fatal(err)
		}
	}
	// Data is now queued-then-shed...
	if _, err := c.Admit(context.Background(), Data, "d2"); err == nil {
		t.Fatal("data admit beyond the limit should be rejected")
	}
	// ...but control admits into the reserved headroom immediately.
	tk, err := c.Admit(context.Background(), Control, "infra")
	if err != nil {
		t.Fatalf("control admit should use reserved headroom: %v", err)
	}
	tk.Done()
	s := c.Snapshot()
	if s.AdmittedControl != 1 || s.HardCap <= s.Limit {
		t.Fatalf("control accounting: %+v", s)
	}
}

// TestControlReserveSurvivesLimitCut: data admitted under the limit
// before a cut can hold more than the hard cap after it (64 in flight,
// the limit cut to 48, the hard cap 60). The reserve is control's all
// the same: a control request is admitted at once, not queued behind
// completions that take longer than the target latency, and control
// fills the reserve and no more.
func TestControlReserveSurvivesLimitCut(t *testing.T) {
	c := NewController(Config{InitialLimit: 64, MinLimit: 8, MaxLimit: 64, MaxQueueWait: time.Second}, telemetry.NewRegistry())
	data := make([]Ticket, 64)
	for i := range data {
		var err error
		if data[i], err = c.Admit(context.Background(), Data, "d"); err != nil {
			t.Fatal(err)
		}
	}
	slow := &data[0]
	slow.start = slow.start.Add(-2 * targetLatency)
	slow.Done()
	s := c.Snapshot()
	if s.Limit != 48 || s.HardCap != 60 || s.Inflight != 63 {
		t.Fatalf("after one slow completion: %+v, want limit 48, hard cap 60, 63 in flight", s)
	}
	admit := func(pri Priority) (Ticket, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		return c.Admit(ctx, pri, "p")
	}
	reserve := s.HardCap - s.Limit
	for i := 0; i < reserve; i++ {
		start := time.Now()
		if _, err := admit(Control); err != nil {
			t.Fatalf("control request %d of the reserve %d shed: %v", i+1, reserve, err)
		}
		if waited := time.Since(start); waited > 10*time.Millisecond {
			t.Fatalf("control request %d waited %v for a reserved slot", i+1, waited)
		}
	}
	if _, err := admit(Control); err == nil {
		t.Fatal("a control request beyond the reserve was admitted while data holds the limit")
	}
	if _, err := admit(Data); err == nil {
		t.Fatal("a data request was admitted above the cut limit")
	}
}

func TestFairShare(t *testing.T) {
	c := pinned(4, 4, 20*time.Millisecond)
	// A noisy principal grabs three of four slots.
	for i := 0; i < 3; i++ {
		if _, err := c.Admit(context.Background(), Data, "noisy"); err != nil {
			t.Fatal(err)
		}
	}
	// A quiet principal still gets in (share = 4/2 = 2 > 0 held).
	quiet, err := c.Admit(context.Background(), Data, "quiet")
	if err != nil {
		t.Fatalf("quiet principal must not be starved: %v", err)
	}
	defer quiet.Done()
	// The noisy one is over its share now and is shed immediately —
	// no queueing, so the rejection is cheap.
	_, err = c.Admit(context.Background(), Data, "noisy")
	re, ok := IsRejected(err)
	if !ok || re.Reason != ReasonFairShare {
		t.Fatalf("noisy principal should be shed fair_share, got %v", err)
	}
}

// Control tickets do not count toward fair share: a lease renewal in
// flight is not a second data-plane principal competing for slots.
func TestFairShareIgnoresControlTickets(t *testing.T) {
	c := pinned(4, 4, 20*time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, err := c.Admit(context.Background(), Data, "client"); err != nil {
			t.Fatal(err)
		}
	}
	lease, err := c.Admit(context.Background(), Control, "lease_a")
	if err != nil {
		t.Fatal(err)
	}
	// Two data slots are free and client is the only data principal.
	if _, err := c.Admit(context.Background(), Data, "client"); err != nil {
		t.Fatalf("lone data principal shed with free data slots: %v", err)
	}
	if s := c.Snapshot(); s.Principals != 1 {
		t.Fatalf("principals = %d, want 1 (the control holder is not one)", s.Principals)
	}
	lease.Done()
	if s := c.Snapshot(); s.Principals != 1 || s.Inflight != 3 {
		t.Fatalf("after the control ticket's release: %+v, want 1 principal and 3 in flight", s)
	}
}

// A principal waiting for its first slot is active for fair share: a
// principal holding every slot is shed rather than queued ahead of it.
func TestFairShareCountsWaitingPrincipal(t *testing.T) {
	c := pinned(2, 4, 5*time.Second)
	var noisy []Ticket
	for i := 0; i < 2; i++ {
		tk, err := c.Admit(context.Background(), Data, "noisy")
		if err != nil {
			t.Fatal(err)
		}
		noisy = append(noisy, tk)
	}
	got := make(chan error, 1)
	go func() {
		tk, err := c.Admit(context.Background(), Data, "quiet")
		tk.Done()
		got <- err
	}()
	waitForQueueDepth(t, c, 1)
	_, err := c.Admit(context.Background(), Data, "noisy")
	if re, ok := IsRejected(err); !ok || re.Reason != ReasonFairShare {
		t.Fatalf("noisy holding every slot while quiet waits should be shed fair_share, got %v", err)
	}
	noisy[0].Done()
	if err := <-got; err != nil {
		t.Fatalf("quiet should take the freed slot: %v", err)
	}
	noisy[1].Done()
	if s := c.Snapshot(); s.Principals != 0 || s.Inflight != 0 {
		t.Fatalf("after every release: %+v", s)
	}
}

func TestLIFOUnderOverload(t *testing.T) {
	c := pinned(1, 4, 10*time.Second)
	holder, err := c.Admit(context.Background(), Data, "holder")
	if err != nil {
		t.Fatal(err)
	}

	admitted := make(chan int, 4)
	tickets := make(chan Ticket, 4)
	for i := 1; i <= 4; i++ {
		i := i
		go func() {
			tk, err := c.Admit(context.Background(), Data, "w")
			if err != nil {
				t.Errorf("waiter %d rejected: %v", i, err)
				return
			}
			admitted <- i
			tickets <- tk
		}()
		waitForQueueDepth(t, c, i)
	}

	// Release one slot at a time. With the queue at or above half its
	// bound the newest waiter is served (LIFO); once it drains below
	// half, FIFO resumes. Expected order: 4, 3, 2, then 1.
	order := []int{}
	holder.Done()
	for i := 0; i < 4; i++ {
		order = append(order, <-admitted)
		tk := <-tickets
		tk.Done()
	}
	want := []int{4, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order %v, want %v", order, want)
		}
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	c := pinned(1, 8, 10*time.Second)
	holder, err := c.Admit(context.Background(), Data, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Done()
	got := make(chan error, 1)
	go func() { _, err := c.Admit(context.Background(), Data, "b"); got <- err }()
	waitForQueueDepth(t, c, 1)
	c.Close()
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued waiter should fail ErrClosed, got %v", err)
	}
	if _, err := c.Admit(context.Background(), Data, "c"); !errors.Is(err, ErrClosed) {
		t.Fatalf("admit after close should fail ErrClosed, got %v", err)
	}
}

func TestConnAdmission(t *testing.T) {
	c := NewController(Config{MaxConns: 2}, telemetry.NewRegistry())
	if !c.AdmitConn() || !c.AdmitConn() {
		t.Fatal("first two connections should be admitted")
	}
	if c.AdmitConn() {
		t.Fatal("third connection should be shed")
	}
	if s := c.Snapshot(); s.Conns != 2 || s.ConnsShed != 1 {
		t.Fatalf("conn accounting: %+v", s)
	}
	c.ReleaseConn()
	if !c.AdmitConn() {
		t.Fatal("released slot should be reusable")
	}
}

func TestTelemetryInstruments(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewController(Config{InitialLimit: 4, MinLimit: 4, MaxLimit: 4, MaxQueueWait: 10 * time.Millisecond}, reg)
	tk, err := c.Admit(context.Background(), Data, "a")
	if err != nil {
		t.Fatal(err)
	}
	tk.Done()
	snap := reg.Snapshot()
	if snap.Counter(MetricAdmittedData) != 1 {
		t.Fatalf("admitted counter not recorded: %+v", snap.Counters)
	}
	if snap.Gauge(MetricLimit) != 4 {
		t.Fatalf("limit gauge = %d, want 4", snap.Gauge(MetricLimit))
	}
	if h, ok := snap.Histogram(MetricQueueWaitData); !ok || h.Count != 1 {
		t.Fatal("queue-wait histogram not recorded")
	}
}

// waitForQueueDepth polls until the controller's queue holds at
// least n waiters.
func waitForQueueDepth(t *testing.T, c *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Snapshot().QueueDepth >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached depth %d (now %d)", n, c.Snapshot().QueueDepth)
}
