package app

import (
	"context"

	"suppresstest/cmdlang"
	"suppresstest/telemetry"
	"suppresstest/wire"
)

// trailingSuppression silences the finding on its own line.
func trailingSuppression(c *wire.Client) {
	c.Close() //acelint:ignore droppederr best-effort teardown probe, the error is uninteresting
}

// standaloneSuppression silences the finding on the next line.
func standaloneSuppression(c *wire.Client) {
	//acelint:ignore droppederr fire-and-forget wakeup, failure is retried by the scheduler
	c.Call("wake")
}

// notSuppressed still reports: the suppression in the functions above
// covers exactly one line each.
func notSuppressed(c *wire.Client) {
	c.Close() // want `error return of \(\*wire\.Client\)\.Close discarded`
}

// unusedSuppression names a check that finds nothing here, which is
// itself an error so stale pragmas cannot accumulate.
func unusedSuppression(c *wire.Client) error {
	//acelint:ignore lockhold no lock is held anywhere near this call
	// want-1 `unused acelint:ignore for "lockhold": no such finding here`
	return c.Close()
}

// phantomPing exercises a comma-separated check list: the single line
// below trips both droppederr (bare discard of Send's error) and
// verbconformance ("phantom" is registered nowhere), and one directive
// silences both.
func phantomPing(c *wire.Client) {
	//acelint:ignore droppederr,verbconformance diagnostic ping for a verb served by an out-of-tree daemon
	c.Send(cmdlang.New("phantom"))
}

// Probe reaches a wire read with no deadline; the caller bounds the
// probe with a process watchdog instead, which the suppression records.
//
//acelint:ignore deadlinecheck probe is bounded by the caller's process watchdog, not a conn deadline
func Probe(ctx context.Context, conn *wire.Conn) error {
	_, err := wire.ReadFrame(conn)
	return err
}

// legacyMetric keeps a dashboard's historical name until the next
// breaking release.
func legacyMetric(tel *telemetry.Registry) {
	//acelint:ignore metricnames legacy dashboard series name, renamed at the next breaking release
	tel.Counter("Legacy.Requests").Add(1)
}

// malformed directives: a missing reason and an unknown check name.
func malformed(c *wire.Client) error {
	//acelint:ignore droppederr
	// want-1 `acelint:ignore droppederr needs a reason`
	//acelint:ignore nosuchcheck because I said so
	// want-1 `acelint:ignore names unknown check "nosuchcheck"`
	return c.Close()
}
