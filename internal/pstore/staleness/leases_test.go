package staleness

import (
	"fmt"
	"testing"
	"time"
)

// fakeNow returns a controllable time source starting at a fixed
// instant, so expiry is driven deterministically.
func fakeNow() (func() time.Time, func(d time.Duration)) {
	cur := time.Unix(1_700_000_000, 0)
	return func() time.Time { return cur }, func(d time.Duration) { cur = cur.Add(d) }
}

func TestLeasesGrantAndExpiry(t *testing.T) {
	now, advance := fakeNow()
	l := NewLeases(0, now)

	at := now()
	l.Grant("/a", 3, []int{1, 2}, at)

	ver, gotAt, holders, ok := l.Holders("/a", time.Second)
	if !ok || ver != 3 || !gotAt.Equal(at) || len(holders) != 2 {
		t.Fatalf("fresh lease not returned: ver=%d at=%v holders=%v ok=%v", ver, gotAt, holders, ok)
	}

	advance(1500 * time.Millisecond)
	if _, _, _, ok := l.Holders("/a", time.Second); ok {
		t.Fatal("expired lease still returned")
	}
	if l.Len() != 0 {
		t.Fatalf("expired lease not lazily deleted: len=%d", l.Len())
	}
}

func TestLeasesVersionPrecedence(t *testing.T) {
	now, _ := fakeNow()
	l := NewLeases(0, now)
	t0 := now()

	l.Grant("/a", 5, []int{1, 2}, t0)
	// An older-version grant (a late quorum round) must not clobber.
	l.Grant("/a", 4, []int{3}, t0.Add(time.Millisecond))
	if ver, _, holders, _ := l.Holders("/a", time.Minute); ver != 5 || holders[0] != 1 {
		t.Fatalf("older-version grant clobbered lease: ver=%d holders=%v", ver, holders)
	}
	// Same version, newer observation: keep the newer grant time.
	l.Grant("/a", 5, []int{3}, t0.Add(time.Second))
	if ver, at, holders, _ := l.Holders("/a", time.Minute); ver != 5 || !at.Equal(t0.Add(time.Second)) || holders[0] != 3 {
		t.Fatalf("same-version newer grant ignored: ver=%d at=%v holders=%v", ver, at, holders)
	}
	// Same version, older observation: ignored.
	l.Grant("/a", 5, []int{9}, t0)
	if _, _, holders, _ := l.Holders("/a", time.Minute); holders[0] == 9 {
		t.Fatalf("same-version older grant clobbered lease: holders=%v", holders)
	}
	// Newer version always wins.
	l.Grant("/a", 6, []int{4}, t0)
	if ver, _, holders, _ := l.Holders("/a", time.Minute); ver != 6 || holders[0] != 4 {
		t.Fatalf("newer-version grant ignored: ver=%d holders=%v", ver, holders)
	}
}

func TestLeasesEmptyHoldersIgnored(t *testing.T) {
	now, _ := fakeNow()
	l := NewLeases(0, now)
	l.Grant("/a", 1, nil, now())
	if l.Len() != 0 {
		t.Fatal("empty-holder grant created a lease")
	}
}

func TestLeasesDropAndReset(t *testing.T) {
	now, _ := fakeNow()
	l := NewLeases(0, now)
	l.Grant("/a", 1, []int{1}, now())
	l.Grant("/b", 1, []int{1}, now())

	l.Drop("/a")
	if _, _, _, ok := l.Holders("/a", time.Minute); ok {
		t.Fatal("dropped lease still returned")
	}
	if _, _, _, ok := l.Holders("/b", time.Minute); !ok {
		t.Fatal("drop removed an unrelated lease")
	}
}

func TestLeasesCapEviction(t *testing.T) {
	now, advance := fakeNow()
	l := NewLeases(8, now)
	for i := 0; i < 8; i++ {
		l.Grant(fmt.Sprintf("/k%d", i), 1, []int{1}, now())
		advance(time.Millisecond)
	}
	if l.Len() != 8 {
		t.Fatalf("precondition: len=%d", l.Len())
	}
	// A grant for a new path at capacity evicts one sampled entry
	// rather than growing without bound.
	l.Grant("/overflow", 1, []int{1}, now())
	if l.Len() != 8 {
		t.Fatalf("cap not enforced: len=%d", l.Len())
	}
	if _, _, _, ok := l.Holders("/overflow", time.Minute); !ok {
		t.Fatal("new grant lost at capacity")
	}
	// Re-granting an existing path at capacity must not evict.
	l.Grant("/overflow", 2, []int{2}, now())
	if l.Len() != 8 {
		t.Fatalf("replacement grant changed len: %d", l.Len())
	}
}

func TestLeasesHoldersCopiedOnGrant(t *testing.T) {
	now, _ := fakeNow()
	l := NewLeases(0, now)
	hs := []int{1, 2}
	l.Grant("/a", 1, hs, now())
	hs[0] = 9
	if _, _, got, _ := l.Holders("/a", time.Minute); got[0] != 1 {
		t.Fatalf("lease aliases caller slice: %v", got)
	}
}

// A reader with a short bound must not erase the lease a reader with a
// longer bound can still use: the table drops an entry only once it is
// older than the longest bound any reader has asked for.
func TestLeasesShortBoundKeepsLongerBoundsLease(t *testing.T) {
	now, advance := fakeNow()
	l := NewLeases(0, now)
	l.Grant("/a", 3, []int{1}, now())
	for _, bound := range []time.Duration{time.Second, 2 * time.Second} {
		if _, _, _, ok := l.Holders("/a", bound); !ok {
			t.Fatalf("%v reader: no fresh lease", bound)
		}
	}

	advance(1500 * time.Millisecond)
	if _, _, _, ok := l.Holders("/a", time.Second); ok {
		t.Fatal("1 s reader served a 1.5 s old lease")
	}
	if ver, _, _, ok := l.Holders("/a", 2*time.Second); !ok || ver != 3 {
		t.Fatalf("2 s reader lost the lease to a 1 s reader: ver=%d ok=%v", ver, ok)
	}
	// Refused for its age, not for its absence: at says when it was
	// granted.
	if _, at, _, ok := l.Holders("/a", time.Second); ok || at.IsZero() {
		t.Fatalf("1 s reader at 1.5 s: ok=%v at=%v, want an aged lease", ok, at)
	}

	advance(time.Second)
	if _, _, _, ok := l.Holders("/a", 2*time.Second); ok {
		t.Fatal("lease older than the longest bound still returned")
	}
	if _, at, _, _ := l.Holders("/a", 2*time.Second); !at.IsZero() || l.Len() != 0 {
		t.Fatalf("dead lease kept: at=%v len=%d", at, l.Len())
	}
}

// On a full table, the leases that answer reads survive a stream of
// grants for paths never read: eviction takes the sampled entry that
// has answered the fewest reads, not the oldest grant. Map iteration
// samples entries in clumps, so now and then a sample holds only read
// leases and one of them goes: over 20 000 runs between 23 and 32 of
// the 32 survived, against at most 9 when the oldest grant went first.
func TestLeasesReadLeasesSurviveOneShotGrants(t *testing.T) {
	now, advance := fakeNow()
	l := NewLeases(64, now)
	for i := 0; i < 64; i++ {
		l.Grant(fmt.Sprintf("/k%d", i), 1, []int{1}, now())
		advance(time.Millisecond)
	}
	for i := 0; i < 32; i++ {
		if _, _, _, ok := l.Holders(fmt.Sprintf("/k%d", i), time.Minute); !ok {
			t.Fatalf("/k%d: no lease before the stream", i)
		}
	}
	for i := 0; i < 64; i++ {
		l.Grant(fmt.Sprintf("/cold%d", i), 1, []int{1}, now())
		advance(time.Millisecond)
	}
	kept := 0
	for i := 0; i < 32; i++ {
		if _, _, _, ok := l.Holders(fmt.Sprintf("/k%d", i), time.Minute); ok {
			kept++
		}
	}
	if kept < 20 {
		t.Fatalf("%d of 32 read leases survived 64 one-shot grants, want at least 20", kept)
	}
}

// A re-grant of a live lease — the path's own write or quorum read
// proving it again — keeps the reads it has answered, so a hot path is
// not the next victim for having been re-proved.
func TestLeasesRegrantKeepsReads(t *testing.T) {
	now, advance := fakeNow()
	l := NewLeases(2, now)
	l.Grant("/hot", 1, []int{1}, now())
	if _, _, _, ok := l.Holders("/hot", time.Minute); !ok {
		t.Fatal("no lease for /hot")
	}
	advance(time.Millisecond)
	l.Grant("/hot", 2, []int{1}, now())
	advance(time.Millisecond)
	l.Grant("/cold", 1, []int{1}, now())
	advance(time.Millisecond)
	l.Grant("/new", 1, []int{1}, now())
	if _, _, _, ok := l.Holders("/hot", time.Minute); !ok {
		t.Fatal("the re-granted, read lease was evicted before an unread one")
	}
	if _, _, _, ok := l.Holders("/cold", time.Minute); ok {
		t.Fatal("the unread lease survived a full table's eviction")
	}
}
