// Package leakcheck fails a test binary that leaves goroutines running
// after its last test. A package whose code starts long-lived
// goroutines (accept loops, lease renewers, commit goroutines) wires
// it in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// The gate only sees goroutines that the tests started and did not
// stop, so it covers exactly the shutdown paths the tests run.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long a passing test binary may take to drain: a
// stopped daemon's connection goroutines exit once their sockets
// close, which under the race detector can take a while.
const settle = 5 * time.Second

// Main runs the tests, then waits for the goroutine count to fall back
// to its value before the first test. If it does not, Main prints every
// goroutine's stack and exits 1. A binary whose tests failed exits with
// their status unchecked: a failed test may skip its cleanup. Fuzzing
// is not gated, because it leaves os/signal's goroutine running for the
// life of the process.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		if err := check(base, settle); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// check polls until at most base goroutines run or wait has passed, and
// then reports the leftovers with all stacks.
func check(base int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n <= base {
		return nil
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("leakcheck: %d goroutines still running after the tests, %d before them:\n%s", n, base, buf)
}
