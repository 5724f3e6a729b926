package placement

import (
	"reflect"
	"testing"
)

func groups(names ...string) []Group {
	out := make([]Group, len(names))
	for i, n := range names {
		out[i] = Group{Name: n, Replicas: []string{n + "-a:1", n + "-b:1", n + "-c:1"}}
	}
	return out
}

// PartitionOf is part of the persistence contract: keys hash to the
// same partition on every node, every process, every release. The
// golden values pin the function against accidental change.
func TestPartitionOfGolden(t *testing.T) {
	golden := map[string]int{
		"/wss/workspaces/john_doe/1": PartitionOf("/wss/workspaces/john_doe/1", 32),
		"/a":                         PartitionOf("/a", 32),
	}
	for path, want := range golden {
		if got := PartitionOf(path, 32); got != want {
			t.Fatalf("PartitionOf(%q) changed within one process: %d != %d", path, got, want)
		}
	}
	// Cross-process stability: FNV-1a is fully specified, so these
	// literals must never drift.
	if got := PartitionOf("/a", 32); got != 13 {
		t.Errorf("PartitionOf(/a, 32) = %d, want 13", got)
	}
	if got := PartitionOf("/wss/workspaces/john_doe/1", 32); got != 27 {
		t.Errorf("PartitionOf(/wss/.../1, 32) = %d, want 27", got)
	}
	for p := 0; p < 1000; p++ {
		if got := PartitionOf("/k/"+string(rune('a'+p%26))+"/x", 32); got < 0 || got >= 32 {
			t.Fatalf("partition out of range: %d", got)
		}
	}
}

func TestAssignDeterministic(t *testing.T) {
	a := Assign(7, 64, 64, groups("g1", "g2", "g3"))
	b := Assign(7, 64, 64, groups("g1", "g2", "g3"))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and groups produced different assignments")
	}
	c := Assign(8, 64, 64, groups("g1", "g2", "g3"))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical assignments (suspicious)")
	}
}

func TestAssignBalance(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		gs := groups("g1", "g2", "g3", "g4")[:n]
		m := NewMap(1, 64, 0, gs)
		counts := m.Counts()
		for gi, c := range counts {
			// With 64 vnodes per group the worst observed imbalance is
			// well inside 3x of fair share; zero-partition groups would
			// break scaling outright.
			fair := 64 / n
			if c == 0 || c > 3*fair {
				t.Fatalf("n=%d: group %s owns %d of 64 partitions (fair %d): %v", n, gs[gi].Name, c, fair, counts)
			}
		}
	}
}

// Consistent hashing's point: adding a group must move only partitions
// that land on the new group, never shuffle partitions between the
// old groups.
func TestAssignMinimalMotion(t *testing.T) {
	old := Assign(7, 64, 64, groups("g1", "g2"))
	grown := Assign(7, 64, 64, groups("g1", "g2", "g3"))
	moved := 0
	for p := range old {
		if grown[p] != old[p] {
			if grown[p] != 2 {
				t.Fatalf("partition %d moved between pre-existing groups: %d → %d", p, old[p], grown[p])
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("adding a group moved no partitions")
	}
	if moved > 48 {
		t.Fatalf("adding one group moved %d/64 partitions", moved)
	}
}

func TestMapEncodeDecodeRoundTrip(t *testing.T) {
	m := NewMap(42, 32, 16, groups("g1", "g2", "g3"))
	m.Epoch = 5
	m.Stamp[3] = 5
	m.Assignment[3] = 0
	m.Moves = []Move{{Partition: 3, From: 0, To: 2}}
	got, err := DecodeString(m.EncodeString())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", m, got)
	}
}

// FuzzDecodeMap: whatever text placeset or psmap carries, DecodeString
// never panics; a map it accepts passes Validate, routes every key to
// a group that exists, and survives encode → decode unchanged.
func FuzzDecodeMap(f *testing.F) {
	m := NewMap(42, 32, 16, groups("g1", "g2", "g3"))
	m.Epoch = 5
	m.Stamp[3] = 5
	m.Assignment[3] = 0
	m.Moves = []Move{{Partition: 3, From: 0, To: 2}}
	f.Add(m.EncodeString())
	f.Add(NewMap(1, 8, 4, groups("g1", "g2")).EncodeString())
	f.Add("not a map")
	f.Add("placemap;")
	f.Add(`placemap epoch=1 seed=0 partitions=2 vnodes=1 groups=["g"] replicas=["a:1"] assign=[0,7] stamps=[1,1] move_parts=[] move_from=[] move_to=[];`) // unknown group
	f.Add(`placemap epoch=1 seed=0 partitions=1 vnodes=1 groups=["g","h"] replicas=["a:1"] assign=[0] stamps=[1] move_parts=[] move_from=[] move_to=[];`) // ragged groups
	f.Add(`placemap epoch=-1 seed=0 partitions=1 vnodes=1 groups=["g"] replicas=["a:1"] assign=[0] stamps=[-1] move_parts=[0] move_from=[] move_to=[];`)  // negatives, ragged moves
	f.Fuzz(func(t *testing.T, text string) {
		m, err := DecodeString(text)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted a map that fails Validate (%v): %q", err, text)
		}
		if p, g := m.Owner("/fuzz/key"); p < 0 || p >= m.Partitions || g.Name == "" {
			t.Fatalf("partition %d owner %+v of %q", p, g, text)
		}
		again, err := DecodeString(m.EncodeString())
		if err != nil || !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip of %q: err %v\n  in:  %+v\n  out: %+v", text, err, m, again)
		}
	})
}

func TestMapValidateRejects(t *testing.T) {
	base := func() *Map { return NewMap(1, 8, 4, groups("g1", "g2")) }
	cases := map[string]func(*Map){
		"epoch zero":        func(m *Map) { m.Epoch = 0 },
		"no groups":         func(m *Map) { m.Groups = nil },
		"dup group":         func(m *Map) { m.Groups[1].Name = "g1" },
		"bad assignment":    func(m *Map) { m.Assignment[0] = 9 },
		"stamp over epoch":  func(m *Map) { m.Stamp[0] = 99 },
		"move wrong owner":  func(m *Map) { m.Moves = []Move{{Partition: 0, From: 1 - m.Assignment[0], To: m.Assignment[0]}} },
		"move same group":   func(m *Map) { m.Moves = []Move{{Partition: 0, From: m.Assignment[0], To: m.Assignment[0]}} },
		"short assignment":  func(m *Map) { m.Assignment = m.Assignment[:3] },
		"group no replicas": func(m *Map) { m.Groups[0].Replicas = nil },
	}
	for name, corrupt := range cases {
		m := base()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt map", name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
}

func TestOwnerAndMoveFor(t *testing.T) {
	m := NewMap(1, 8, 4, groups("g1", "g2"))
	p, g := m.Owner("/some/path")
	if p != PartitionOf("/some/path", 8) {
		t.Fatalf("Owner partition mismatch")
	}
	if m.GroupIndex(g.Name) != m.Assignment[p] {
		t.Fatalf("Owner group mismatch")
	}
	if m.MoveFor(p) != nil {
		t.Fatal("MoveFor on a map with no moves")
	}
	m.Moves = []Move{{Partition: p, From: m.Assignment[p], To: 1 - m.Assignment[p]}}
	if mv := m.MoveFor(p); mv == nil || mv.Partition != p {
		t.Fatal("MoveFor missed its move")
	}
}
