//go:build !race

// The race runtime allocates on its own account, so this budget holds
// only in a plain build.

package wire

import (
	"io"
	"testing"
)

// TestOutboxWriteAllocatesNothing: a frame the socket takes whole
// costs its Outbox no allocation: the raw write's callback is built
// once per connection, not once per write.
func TestOutboxWriteAllocatesNothing(t *testing.T) {
	a, b := socketPair(t)
	go io.Copy(io.Discard, b) //nolint:errcheck — drains until the test closes the pair
	out := NewOutbox(a, DefaultCallTimeout, nil)
	frame := frameOf("ping seq=1;")
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := out.Write(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a write allocates %.1f times", n)
	}
}
