package tracker

import (
	"math/rand"
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/ident"
	"ace/internal/userdb"
)

type rig struct {
	dir     *asd.Service
	fiu     *ident.FIU
	ibutton *ident.IButtonReader
	tracker *Tracker
	pool    *daemon.Pool
	aliceT  ident.Template
}

func buildRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{}
	r.dir = asd.New(asd.Config{})
	if err := r.dir.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.dir.Stop)

	rng := rand.New(rand.NewSource(11))
	r.aliceT = ident.NewTemplate(rng)
	db := userdb.NewDB()
	db.Add(userdb.User{Username: "alice", IButton: 777, Fingerprint: r.aliceT.Hex()}) //nolint:errcheck
	db.Add(userdb.User{Username: "bob", IButton: 888})                                //nolint:errcheck
	aud := userdb.New(daemon.Config{ASDAddr: r.dir.Addr()}, db)
	if err := aud.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(aud.Stop)

	r.fiu = ident.NewFIU(daemon.Config{ASDAddr: r.dir.Addr()}, aud.Addr(), 0)
	if err := r.fiu.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.fiu.Stop)
	r.ibutton = ident.NewIButtonReader(daemon.Config{ASDAddr: r.dir.Addr()}, aud.Addr())
	if err := r.ibutton.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.ibutton.Stop)

	r.tracker = New(Config{ASDAddr: r.dir.Addr(), History: 100})
	if err := r.tracker.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.tracker.Stop)

	r.pool = daemon.NewPool(nil)
	t.Cleanup(r.pool.Close)
	return r
}

func waitSightings(t *testing.T, tr *Tracker, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for len(tr.History("", 0)) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d sightings", len(tr.History("", 0)), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTracksAcrossDevices(t *testing.T) {
	r := buildRig(t)
	rng := rand.New(rand.NewSource(12))

	// Alice fingerprints into hawk, bob badges into eagle, then alice
	// badges into eagle.
	if _, err := r.pool.Call(r.fiu.Addr(), cmdlang.New(ident.CmdScan).
		SetString("capture", r.aliceT.Noisy(rng, 0.02).Hex()).
		SetWord("location", "hawk")); err != nil {
		t.Fatal(err)
	}
	// Two devices' notifications reach the tracker in no set order: the
	// hawk sighting must be in before the iButton presses are made.
	waitSightings(t, r.tracker, 1)
	if _, err := r.pool.Call(r.ibutton.Addr(), cmdlang.New("press").
		SetInt("serial", 888).SetWord("location", "eagle")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.pool.Call(r.ibutton.Addr(), cmdlang.New("press").
		SetInt("serial", 777).SetWord("location", "eagle")); err != nil {
		t.Fatal(err)
	}
	waitSightings(t, r.tracker, 3)

	// Alice's latest location is eagle via the iButton device.
	s, ok := r.tracker.LastSeen("alice")
	if !ok || s.Room != "eagle" || s.Device != "ibutton" {
		t.Fatalf("alice=%+v ok=%v", s, ok)
	}
	// Occupancy: both in eagle, nobody left in hawk.
	if got := r.tracker.Occupants("eagle"); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("eagle=%v", got)
	}
	if got := r.tracker.Occupants("hawk"); len(got) != 0 {
		t.Fatalf("hawk=%v", got)
	}
	// Alice's history shows the movement in order.
	hist := r.tracker.History("alice", 0)
	if len(hist) != 2 || hist[0].Room != "hawk" || hist[1].Room != "eagle" {
		t.Fatalf("history=%v", hist)
	}
}

func TestCommandSurface(t *testing.T) {
	r := buildRig(t)
	if _, err := r.pool.Call(r.ibutton.Addr(), cmdlang.New("press").
		SetInt("serial", 777).SetWord("location", "hawk")); err != nil {
		t.Fatal(err)
	}
	waitSightings(t, r.tracker, 1)

	where, err := r.pool.Call(r.tracker.Addr(), cmdlang.New("whereIsUser").SetWord("user", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if where.Str("room", "") != "hawk" {
		t.Fatalf("where=%v", where)
	}
	_, err = r.pool.Call(r.tracker.Addr(), cmdlang.New("whereIsUser").SetWord("user", "ghost"))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
		t.Fatalf("err=%v", err)
	}
	occ, err := r.pool.Call(r.tracker.Addr(), cmdlang.New("occupants").SetWord("room", "hawk"))
	if err != nil {
		t.Fatal(err)
	}
	if occ.Int("count", 0) != 1 {
		t.Fatalf("occ=%v", occ)
	}
	sl, err := r.pool.Call(r.tracker.Addr(), cmdlang.New("sightings").SetInt("limit", 10))
	if err != nil {
		t.Fatal(err)
	}
	if sl.Int("count", 0) != 1 {
		t.Fatalf("sightings=%v", sl)
	}
}

func TestResubscribePicksUpNewDevices(t *testing.T) {
	r := buildRig(t)
	// A new badge reader appears after the tracker started.
	db := userdb.NewDB()
	db.Add(userdb.User{Username: "carol", IButton: 999}) //nolint:errcheck
	aud2 := userdb.New(daemon.Config{Name: "aud2"}, db)
	if err := aud2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(aud2.Stop)
	late := ident.NewIButtonReader(daemon.Config{Name: "ibutton_lobby", ASDAddr: r.dir.Addr()}, aud2.Addr())
	if err := late.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(late.Stop)

	reply, err := r.pool.Call(r.tracker.Addr(), cmdlang.New("resubscribe"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Int("added", 0) != 1 {
		t.Fatalf("added=%v", reply)
	}
	// Events from the late device are tracked.
	if _, err := r.pool.Call(late.Addr(), cmdlang.New("press").
		SetInt("serial", 999).SetWord("location", "lobby")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if s, ok := r.tracker.LastSeen("carol"); ok && s.Room == "lobby" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("late device's sighting never tracked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Idempotent: nothing new on the second call.
	reply, err = r.pool.Call(r.tracker.Addr(), cmdlang.New("resubscribe"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Int("added", 0) != 0 {
		t.Fatalf("resubscribe not idempotent: %v", reply)
	}
}

func TestHistoryBounded(t *testing.T) {
	tr := New(Config{History: 5})
	for i := 0; i < 20; i++ {
		tr.record("u", "r", "d")
	}
	if got := len(tr.History("", 0)); got != 5 {
		t.Fatalf("history=%d", got)
	}
	// Sequence numbers keep increasing.
	hist := tr.History("", 0)
	if hist[4].Seq != 20 {
		t.Fatalf("seq=%d", hist[4].Seq)
	}
}
