package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

// TestReportsBlockedGoroutine leaves a goroutine blocked on a channel:
// check must report it with its stack, and pass once it has exited.
func TestReportsBlockedGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	block := make(chan struct{})
	done := make(chan struct{})
	go blockedOn(block, done)

	err := check(base, 50*time.Millisecond)
	if err == nil {
		t.Fatal("a goroutine blocked on a channel was not reported")
	}
	if !strings.Contains(err.Error(), "leakcheck.blockedOn") {
		t.Errorf("report does not show the leaked goroutine's stack:\n%v", err)
	}

	close(block)
	<-done
	if err := check(base, time.Second); err != nil {
		t.Fatalf("reported after the goroutine exited: %v", err)
	}
}

func blockedOn(block <-chan struct{}, done chan<- struct{}) {
	<-block
	close(done)
}
