package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// tightPool returns a pool tuned so that failures are cheap and the
// breaker's lifecycle is observable within a fast test.
func tightPool(cfg PoolConfig) *Pool {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 200 * time.Millisecond
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 300 * time.Millisecond
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 5 * time.Millisecond
	}
	return NewPoolConfig(cfg)
}

// deadAddr reserves a loopback port and releases it, yielding an
// address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestBreakerOpensAfterConsecutiveFailures: transport failures open
// the per-address breaker, after which calls fail fast without
// paying the dial timeout.
func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	p := tightPool(PoolConfig{
		MaxRetries:       -1, // isolate breaker behavior from retries
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // stay open for the whole test
	})
	defer p.Close()
	addr := deadAddr(t)

	for i := 0; i < 3; i++ {
		if _, err := p.Call(addr, cmdlang.New(CmdPing)); err == nil {
			t.Fatal("call to dead address succeeded")
		}
	}
	if st := p.BreakerState(addr); st != "open" {
		t.Fatalf("breaker state after %d failures: %s", 3, st)
	}

	start := time.Now()
	_, err := p.Call(addr, cmdlang.New(CmdPing))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("open-breaker call took %v; not failing fast", elapsed)
	}
}

// TestPeerRecordOutlivesClient: an address has one record in the pool.
// Dropping its client after a transport failure leaves the record and
// the breaker's failure count in place — the dial failure that follows
// is the second strike, not a fresh first — and Close empties the table.
func TestPeerRecordOutlivesClient(t *testing.T) {
	d := New(Config{Name: "mortal"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	addr := d.Addr()
	p := tightPool(PoolConfig{MaxRetries: -1, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	if _, err := p.Call(addr, cmdlang.New(CmdPing)); err != nil {
		t.Fatal(err)
	}
	d.Stop()

	// Strike one fails on the pooled connection and drops it.
	if _, err := p.Call(addr, cmdlang.New(CmdPing)); err == nil {
		t.Fatal("call to a stopped daemon succeeded")
	}
	p.mu.Lock()
	pe, n := p.peers[addr], len(p.peers)
	dropped := pe != nil && pe.client == nil
	p.mu.Unlock()
	if n != 1 || !dropped {
		t.Fatalf("after a drop: %d records, client dropped=%v; want the one record without a client", n, dropped)
	}
	if st := p.BreakerState(addr); st != "closed" {
		t.Fatalf("breaker %s after one failure, want closed", st)
	}
	// Strike two fails on the redial.
	if _, err := p.Call(addr, cmdlang.New(CmdPing)); err == nil {
		t.Fatal("call to a stopped daemon succeeded")
	}
	if st := p.BreakerState(addr); st != "open" {
		t.Fatalf("breaker %s after two failures spanning a drop, want open", st)
	}

	p.Close()
	p.mu.Lock()
	n = len(p.peers)
	p.mu.Unlock()
	if n != 0 {
		t.Fatalf("Close left %d peer records", n)
	}
	if _, err := p.Call(addr, cmdlang.New(CmdPing)); !errors.Is(err, wire.ErrClosed) {
		t.Fatalf("call on a closed pool: %v, want wire.ErrClosed", err)
	}
}

// TestBreakerHalfOpenProbeRecovers: once the peer is back, the
// half-open probe closes the breaker and traffic flows again.
func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	p := tightPool(PoolConfig{
		MaxRetries:       -1,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	defer p.Close()
	addr := deadAddr(t)

	for i := 0; i < 2; i++ {
		p.Call(addr, cmdlang.New(CmdPing)) //nolint:errcheck
	}
	if st := p.BreakerState(addr); st != "open" {
		t.Fatalf("breaker state: %s", st)
	}

	// Resurrect the peer on the same address.
	d := New(Config{Name: "lazarus", Listen: addr})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := d.Start(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not rebind address")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(d.Stop)

	// After the cooldown, a half-open probe must succeed and close
	// the breaker.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := p.Call(addr, cmdlang.New(CmdPing)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after peer came back")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := p.BreakerState(addr); st != "closed" {
		t.Fatalf("breaker state after recovery: %s", st)
	}
}

// TestBreakerFailedProbeReopens: a failed half-open probe snaps the
// breaker back to open rather than letting traffic through.
func TestBreakerFailedProbeReopens(t *testing.T) {
	p := tightPool(PoolConfig{
		MaxRetries:       -1,
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
	})
	defer p.Close()
	addr := deadAddr(t)

	p.Call(addr, cmdlang.New(CmdPing)) //nolint:errcheck
	if st := p.BreakerState(addr); st != "open" {
		t.Fatalf("breaker state: %s", st)
	}
	time.Sleep(50 * time.Millisecond)
	// Cooldown elapsed → this call is admitted as the half-open probe
	// and fails (peer still dead) → breaker reopens.
	if _, err := p.Call(addr, cmdlang.New(CmdPing)); err == nil {
		t.Fatal("probe against dead peer succeeded")
	}
	if st := p.BreakerState(addr); st != "open" {
		t.Fatalf("breaker state after failed probe: %s", st)
	}
}

// TestCancelledCallDoesNotChargeBreakerOrDropConnection: a caller
// abandoning a call mid-flight (the quorum fast-path cancelling a
// straggler) is not evidence against the peer — the breaker stays
// closed and the pooled connection survives for other callers.
func TestCancelledCallDoesNotChargeBreakerOrDropConnection(t *testing.T) {
	block := make(chan struct{})
	d := New(Config{Name: "molasses"})
	d.Handle(cmdlang.CommandSpec{Name: "slow"},
		func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			<-block
			return cmdlang.OK(), nil
		})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	p := tightPool(PoolConfig{
		MaxRetries:       -1,
		BreakerThreshold: 1, // a single charge would open it
		BreakerCooldown:  time.Hour,
	})
	defer p.Close()

	if _, err := p.Call(d.Addr(), cmdlang.New(CmdPing)); err != nil {
		t.Fatal(err)
	}
	before, err := p.Get(d.Addr())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.CallContext(ctx, d.Addr(), cmdlang.New("slow"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the peer
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call returned %v, want context.Canceled", err)
	}

	if st := p.BreakerState(d.Addr()); st != "closed" {
		t.Fatalf("breaker state after cancelled call: %s", st)
	}
	after, err := p.Get(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("cancelled call dropped the pooled connection")
	}
	// Unblock the handler (the daemon executes commands serially, so
	// nothing else answers until it returns);
	// its late reply must be discarded by seq, leaving the shared
	// connection in sync for the next exchange.
	close(block)
	if _, err := p.Call(d.Addr(), cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("ping after cancelled call: %v", err)
	}
}

// TestCancelledProbeReleasesHalfOpenSlot: abandoning the half-open
// probe (cancelled, not failed) must free the slot for the next
// caller instead of wedging the breaker open forever.
func TestCancelledProbeReleasesHalfOpenSlot(t *testing.T) {
	b := newBreaker(1, 0)
	b.failure()
	if st := b.currentState(); st != breakerOpen {
		t.Fatalf("state after failure: %v", st)
	}
	// Cooldown 0: the next allow admits the half-open probe.
	if err := b.allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	// While the probe is out, other callers are refused.
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second probe admitted alongside the first: %v", err)
	}
	b.abandon()
	// The slot is free again: a fresh probe is admitted and its
	// success closes the breaker.
	if err := b.allow(); err != nil {
		t.Fatalf("probe after abandon refused: %v", err)
	}
	b.success()
	if st := b.currentState(); st != breakerClosed {
		t.Fatalf("state after successful probe: %v", st)
	}
}

// TestCallRetriesTransportFailureWithBackoff: a flaky peer that dies
// once is reached on the retry, and remote errors are never retried.
func TestCallRetriesTransportFailureWithBackoff(t *testing.T) {
	d := New(Config{Name: "flaky"})
	calls := 0
	var mu sync.Mutex
	d.Handle(cmdlang.CommandSpec{Name: "once"},
		func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return cmdlang.Fail(cmdlang.CodeConflict, "no retries please"), nil
		})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	p := tightPool(PoolConfig{MaxRetries: 2})
	defer p.Close()

	// Seed the pool with a connection, then kill it server-side so the
	// next call hits a dead pooled connection and must retry.
	if _, err := p.Call(d.Addr(), cmdlang.New(CmdPing)); err != nil {
		t.Fatal(err)
	}
	d.connsMu.Lock()
	for c := range d.conns {
		c.Close()
	}
	d.connsMu.Unlock()
	time.Sleep(20 * time.Millisecond)

	if _, err := p.Call(d.Addr(), cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("retry did not recover dead pooled connection: %v", err)
	}

	// Remote errors pass through exactly once.
	_, err := p.Call(d.Addr(), cmdlang.New("once"))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeConflict) {
		t.Fatalf("err=%v", err)
	}
	mu.Lock()
	n := calls
	mu.Unlock()
	if n != 1 {
		t.Fatalf("remote error was retried: handler ran %d times", n)
	}
}

// TestCallContextDeadlineBoundsRetries: the caller's deadline caps
// the whole retry loop, not each attempt.
func TestCallContextDeadlineBoundsRetries(t *testing.T) {
	p := tightPool(PoolConfig{
		MaxRetries:       10,
		BackoffBase:      50 * time.Millisecond,
		BackoffMax:       time.Second,
		BreakerThreshold: -1, // let retries run without the breaker cutting in
	})
	defer p.Close()
	addr := deadAddr(t)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := p.CallContext(ctx, addr, cmdlang.New(CmdPing)); err == nil {
		t.Fatal("call to dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v past the deadline", elapsed)
	}
}

// TestSendRetriesOnlyKnownDeadConnections: Send redials when the
// pooled connection was closed before the write (nothing hit the
// wire), which is the only safe retry under at-least-once delivery.
func TestSendRetriesOnlyKnownDeadConnections(t *testing.T) {
	d := New(Config{Name: "sink"})
	got := make(chan string, 16)
	d.Handle(cmdlang.CommandSpec{Name: "note", AllowExtra: true},
		func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			got <- c.Str("id", "")
			return nil, nil
		})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	p := tightPool(PoolConfig{})
	defer p.Close()

	// Seed the pool, then close the client locally: the pool holds a
	// known-dead connection, so Send must transparently redial.
	c, err := p.Get(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := p.Send(d.Addr(), cmdlang.New("note").SetString("id", "after_dead")); err != nil {
		t.Fatalf("Send did not recover known-dead connection: %v", err)
	}
	select {
	case id := <-got:
		if id != "after_dead" {
			t.Fatalf("got %q", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notification never delivered")
	}
}

// busyDaemon starts a daemon whose "work" handler answers busy (with
// the given retry_after hint) for the first n calls and ok afterward.
// It returns the daemon and a counter of handler invocations.
func busyDaemon(t *testing.T, n int, hint time.Duration) (*Daemon, *atomic.Int64) {
	t.Helper()
	calls := &atomic.Int64{}
	d := startTestDaemon(t, Config{Name: "swamped"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "work"}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			if calls.Add(1) <= int64(n) {
				return cmdlang.Busy(hint), nil
			}
			return cmdlang.OK(), nil
		})
	})
	return d, calls
}

// TestCallRetriesBusyHonoringRetryAfter: a busy reply is retried
// within the same attempt budget, the server's retry_after hint
// raises the backoff floor, and the breaker is never charged — the
// peer is alive, just shedding.
func TestCallRetriesBusyHonoringRetryAfter(t *testing.T) {
	const hint = 40 * time.Millisecond
	d, calls := busyDaemon(t, 2, hint)
	p := tightPool(PoolConfig{MaxRetries: 5, Telemetry: telemetry.NewRegistry()})
	defer p.Close()

	start := time.Now()
	reply, err := p.Call(d.Addr(), cmdlang.New("work"))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("call should succeed after busy retries: %v", err)
	}
	if !cmdlang.IsOK(reply) {
		t.Fatalf("reply: %v", reply)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("handler ran %d times, want 3 (2 busy + 1 ok)", got)
	}
	// Two busy replies → two waits of at least the server hint each.
	if elapsed < 2*hint {
		t.Fatalf("retries ignored retry_after: finished in %v, want >= %v", elapsed, 2*hint)
	}
	if st := p.BreakerState(d.Addr()); st != "closed" {
		t.Fatalf("busy replies must not charge the breaker: state %s", st)
	}
	snap := p.Telemetry().Snapshot()
	if got := snap.Counter(MetricPoolBusyRetries); got != 2 {
		t.Fatalf("%s = %d, want 2", MetricPoolBusyRetries, got)
	}
}

// TestCallBusyExhaustsBudget: a peer that never stops shedding
// eventually surfaces the busy error to the caller instead of
// spinning forever.
func TestCallBusyExhaustsBudget(t *testing.T) {
	d, _ := busyDaemon(t, 1<<30, time.Millisecond)
	p := tightPool(PoolConfig{MaxRetries: 2})
	defer p.Close()

	_, err := p.Call(d.Addr(), cmdlang.New("work"))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeBusy) {
		t.Fatalf("want busy remote error, got %v", err)
	}
	var re *cmdlang.RemoteError
	if !errors.As(err, &re) || re.RetryAfter != time.Millisecond {
		t.Fatalf("busy error should carry retry_after, got %+v", re)
	}
	if st := p.BreakerState(d.Addr()); st != "closed" {
		t.Fatalf("breaker charged by busy replies: %s", st)
	}
}

// TestCallDoesNotRetryOtherRemoteErrors: only busy is retryable;
// every other fail code is a definitive answer.
func TestCallDoesNotRetryOtherRemoteErrors(t *testing.T) {
	calls := &atomic.Int64{}
	d := startTestDaemon(t, Config{Name: "nope"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "find"}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			calls.Add(1)
			return cmdlang.Fail(cmdlang.CodeNotFound, "no such thing"), nil
		})
	})
	p := tightPool(PoolConfig{MaxRetries: 5})
	defer p.Close()

	_, err := p.Call(d.Addr(), cmdlang.New("find"))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("non-busy remote error retried: handler ran %d times", got)
	}
}

// TestCallWrongGroupIsRetryableRedirect: a placement redirect is a
// healthy peer telling the caller to re-route, not a failure. The
// pool must return it immediately (exactly one handler execution, no
// transport retries), leave the breaker closed even past its
// threshold, keep the pooled connection, and count the redirect.
func TestCallWrongGroupIsRetryableRedirect(t *testing.T) {
	calls := &atomic.Int64{}
	d := startTestDaemon(t, Config{Name: "shard"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "psget", AllowExtra: true}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			calls.Add(1)
			return cmdlang.Fail(cmdlang.CodeWrongGroup, "partition moved").SetInt("epoch", 7), nil
		})
	})
	p := tightPool(PoolConfig{MaxRetries: 5, BreakerThreshold: 2, Telemetry: telemetry.NewRegistry()})
	defer p.Close()

	// Redirect well past the breaker threshold: still closed.
	for i := 0; i < 5; i++ {
		start := time.Now()
		_, err := p.Call(d.Addr(), cmdlang.New("psget"))
		if !cmdlang.IsRemoteCode(err, cmdlang.CodeWrongGroup) {
			t.Fatalf("want wrong_group remote error, got %v", err)
		}
		// Returned on the first attempt: no backoff sleeps.
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("redirect took %v; pool appears to be retrying it", elapsed)
		}
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("handler ran %d times for 5 calls; redirects must not be retried at the pool", got)
	}
	if st := p.BreakerState(d.Addr()); st != "closed" {
		t.Fatalf("wrong_group charged the breaker: state %s", st)
	}
	snap := p.Telemetry().Snapshot()
	if got := snap.Counter(MetricPoolRedirects); got != 5 {
		t.Fatalf("%s = %d, want 5", MetricPoolRedirects, got)
	}
	if got := snap.Counter(MetricPoolRetries); got != 0 {
		t.Fatalf("%s = %d, want 0", MetricPoolRetries, got)
	}
	// The connection survived: a healthy verb on the same daemon works
	// without redialing (same pooled client).
	c1, err := p.Get(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call(d.Addr(), cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("ping after redirects: %v", err)
	}
	c2, err := p.Get(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("redirect dropped the pooled connection")
	}
}

// TestFailoverStickyWalk: the walk starts at the replica that last
// answered, moves on only for transport failures, and treats a remote
// error — however a caller's layers wrapped it — as an answer.
func TestFailoverStickyWalk(t *testing.T) {
	addrs := []string{"a", "b", "c"}
	var preferred atomic.Int32
	var tried []string
	answers := map[string]error{"a": errors.New("connection refused"), "b": nil}
	call := func(addr string) (*cmdlang.CmdLine, error) {
		tried = append(tried, addr)
		if err := answers[addr]; err != nil {
			return nil, err
		}
		return cmdlang.OK(), nil
	}

	if _, err := Failover(addrs, &preferred, call); err != nil {
		t.Fatalf("failover past a dead replica: %v", err)
	}
	if got := strings.Join(tried, ""); got != "ab" || preferred.Load() != 1 {
		t.Fatalf("tried %q preferred=%d, want ab and 1", got, preferred.Load())
	}

	// b answers with a remote error that a layer in between wrapped:
	// the walk stops there and b stays preferred.
	remote := &cmdlang.RemoteError{Code: cmdlang.CodeNotFound, Msg: "no such service"}
	answers["b"] = fmt.Errorf("directory: %w", remote)
	tried = nil
	_, err := Failover(addrs, &preferred, call)
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
		t.Fatalf("err = %v, want the wrapped remote error", err)
	}
	if got := strings.Join(tried, ""); got != "b" || preferred.Load() != 1 {
		t.Fatalf("tried %q preferred=%d, want b alone and 1 — a remote error failed over", got, preferred.Load())
	}

	// Every replica unreachable: each is tried once, from the preferred
	// one round, and the last transport error comes back.
	answers["b"], answers["c"] = errors.New("b down"), errors.New("c down")
	tried = nil
	if _, err := Failover(addrs, &preferred, call); err == nil || err.Error() != "connection refused" {
		t.Fatalf("err = %v, want a's transport error (tried last)", err)
	}
	if got := strings.Join(tried, ""); got != "bca" {
		t.Fatalf("tried %q, want bca", got)
	}
	if _, err := Failover(nil, &preferred, call); err == nil {
		t.Fatal("empty replica list did not fail")
	}
}
