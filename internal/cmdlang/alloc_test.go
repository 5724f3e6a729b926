//go:build !race

// The race runtime allocates on its own account, so these budgets hold
// only in a plain build.

package cmdlang

import "testing"

// A command built by a program, with its first arguments, is one
// allocation, and encoding it into a buffer that has room is none.
func TestBuildAndEncodeIsOneAllocation(t *testing.T) {
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = New("psget").SetString("path", "/a/b").SetInt("epoch", 3).AppendTo(buf[:0])
	})
	if allocs != 1 {
		t.Errorf("build and encode made %.0f allocations, want 1", allocs)
	}
}

// A parsed reply with two arguments, as a store node sends to a write,
// is one allocation: the command and its arguments together.
func TestParseReplyIsOneAllocation(t *testing.T) {
	frame := []byte("ok applied=true version=117338268457369600;")
	allocs := testing.AllocsPerRun(1000, func() {
		c, err := ParseBytes(frame)
		if err != nil || c.NumArgs() != 2 {
			t.Fatalf("parse: %v, %d arguments", err, c.NumArgs())
		}
	})
	if allocs != 1 {
		t.Errorf("parsing a two-argument reply made %.0f allocations, want 1", allocs)
	}
}
