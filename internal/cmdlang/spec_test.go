package cmdlang

import (
	"strings"
	"testing"
)

func ptzRegistry() *Registry {
	return NewRegistry().DeclareAll(
		CommandSpec{
			Name: "move",
			Doc:  "point the camera",
			Args: []ArgSpec{
				{Name: "x", Kind: KindFloat, Required: true},
				{Name: "y", Kind: KindFloat, Required: true},
				{Name: "z", Kind: KindFloat},
			},
		},
		CommandSpec{
			Name: "zoom",
			Args: []ArgSpec{{Name: "factor", Kind: KindFloat, Required: true}},
		},
		CommandSpec{Name: "power", Args: []ArgSpec{{Name: "on", Kind: KindWord, Required: true}}},
	)
}

func TestRegistryValidateOK(t *testing.T) {
	r := ptzRegistry()
	for _, s := range []string{
		"move x=1.5 y=2.5;",
		"move x=1 y=2 z=3;", // ints satisfy float specs
		"zoom factor=2.0;",
		"power on=true;",
	} {
		if _, err := r.Parse(s); err != nil {
			t.Errorf("Parse(%q): %v", s, err)
		}
	}
}

func TestRegistryValidateErrors(t *testing.T) {
	r := ptzRegistry()
	cases := []struct {
		in, want string
	}{
		{"fly x=1 y=2;", "unknown command"},
		{"move x=1;", `missing required argument "y"`},
		{"move x=1 y=2 q=3;", `undeclared argument "q"`},
		{"move x=hello y=2;", `argument "x"`},
		{"zoom factor={1,2};", `argument "factor"`},
	}
	for _, tc := range cases {
		_, err := r.Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q): want error containing %q", tc.in, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): err %q, want containing %q", tc.in, err, tc.want)
		}
	}
}

func TestRegistryAllowExtra(t *testing.T) {
	r := NewRegistry().Declare(CommandSpec{Name: "log", AllowExtra: true})
	if _, err := r.Parse("log anything=1 more=yes;"); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryNumericWordsSatisfyNumericSpecs(t *testing.T) {
	r := NewRegistry().Declare(CommandSpec{
		Name: "set",
		Args: []ArgSpec{
			{Name: "n", Kind: KindInt, Required: true},
			{Name: "s", Kind: KindString, Required: true},
		},
	})
	// A quoted numeric string satisfies an int spec; a word satisfies
	// a string spec.
	if _, err := r.Parse(`set n="42" s=word;`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Parse(`set n="4x2" s=word;`); err == nil {
		t.Fatal("want kind error for non-numeric string in int slot")
	}
}

// TestRegistryTextSatisfiesBytesSpecs: a bytes slot takes a byte string,
// or a word or string as its bytes, and nothing else.
func TestRegistryTextSatisfiesBytesSpecs(t *testing.T) {
	r := NewRegistry().Declare(CommandSpec{
		Name: "put",
		Args: []ArgSpec{{Name: "b", Kind: KindBytes, Required: true}},
	})
	for s, want := range map[string]string{`put b=#3:a"c;`: `a"c`, `put b="a c";`: "a c", `put b=ac;`: "ac"} {
		c, err := r.Parse(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got, ok := c.Bytes("b"); !ok || string(got) != want {
			t.Fatalf("%s: bytes %q ok=%v, want %q", s, got, ok, want)
		}
	}
	for _, s := range []string{`put b=12;`, `put b=1.5;`, `put b={#1:a};`} {
		if _, err := r.Parse(s); err == nil {
			t.Fatalf("%s: want kind error", s)
		}
	}
	if _, err := NewRegistry().Declare(CommandSpec{
		Name: "say", Args: []ArgSpec{{Name: "s", Kind: KindString}},
	}).Parse(`say s=#2:hi;`); err == nil {
		t.Fatal("a byte string satisfied a string slot")
	}
}

func TestRegistryInheritanceCloneMerge(t *testing.T) {
	// The daemon hierarchy (Fig 6): child daemons inherit parent
	// semantics and extend or override them.
	base := NewRegistry().DeclareAll(
		CommandSpec{Name: "ping"},
		CommandSpec{Name: "info"},
	)
	device := base.Clone().Declare(CommandSpec{
		Name: "power", Args: []ArgSpec{{Name: "on", Kind: KindWord, Required: true}},
	})
	ptz := device.Clone().Declare(CommandSpec{
		Name: "move", Args: []ArgSpec{{Name: "x", Kind: KindFloat, Required: true}},
	})

	if base.Len() != 2 || device.Len() != 3 || ptz.Len() != 4 {
		t.Fatalf("lens: %d %d %d", base.Len(), device.Len(), ptz.Len())
	}
	if _, ok := base.Lookup("power"); ok {
		t.Fatal("child declaration leaked into parent")
	}
	if _, err := ptz.Parse("ping;"); err != nil {
		t.Fatalf("inherited command rejected: %v", err)
	}

	// Override in a child replaces the parent spec.
	vcc4 := ptz.Clone().Declare(CommandSpec{
		Name: "move",
		Args: []ArgSpec{
			{Name: "x", Kind: KindFloat, Required: true},
			{Name: "speed", Kind: KindInt, Required: true},
		},
	})
	if _, err := vcc4.Parse("move x=1;"); err == nil {
		t.Fatal("override not applied")
	}
	if _, err := ptz.Parse("move x=1;"); err != nil {
		t.Fatalf("parent spec damaged by child override: %v", err)
	}
}

func TestRegistryDescribe(t *testing.T) {
	d := ptzRegistry().Describe()
	for _, want := range []string{"move", "x:float", "[z:float]", "point the camera"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q in:\n%s", want, d)
		}
	}
}

func TestReplyHelpers(t *testing.T) {
	okc := OK().SetInt(SeqArg, 7)
	if !IsOK(okc) || !IsReply(okc) || IsFail(okc) {
		t.Fatal("ok reply misclassified")
	}
	if err := ReplyError(okc); err != nil {
		t.Fatalf("ReplyError(ok)=%v", err)
	}

	f := Fail(CodeNotFound, "no such service")
	if !IsFail(f) || !IsReply(f) {
		t.Fatal("fail reply misclassified")
	}
	err := ReplyError(f)
	if err == nil || !IsRemoteCode(err, CodeNotFound) {
		t.Fatalf("ReplyError(fail)=%v", err)
	}
	if !strings.Contains(err.Error(), "no such service") {
		t.Fatalf("err=%v", err)
	}

	if err := ReplyError(New("notareply")); err == nil {
		t.Fatal("non-reply accepted")
	}
}

func TestFailErrMapsCodes(t *testing.T) {
	if c := FailErr(&SemanticError{Command: "x", Msg: "bad"}); c.Str(CodeArg, "") != CodeBadArgument {
		t.Fatalf("semantic error code=%s", c.Str(CodeArg, ""))
	}
	if c := FailErr(&ParseError{Offset: 0, Msg: "bad"}); c.Str(CodeArg, "") != CodeBadArgument {
		t.Fatalf("parse error code=%s", c.Str(CodeArg, ""))
	}
}

func TestCmdLineDelAndClone(t *testing.T) {
	c := New("a").SetInt("x", 1).SetInt("y", 2).SetInt("z", 3)
	cl := c.Clone()
	c.Del("y")
	if c.Has("y") || c.NumArgs() != 2 {
		t.Fatalf("Del failed: %v", c)
	}
	if c.Int("z", 0) != 3 {
		t.Fatal("index corrupted after Del")
	}
	if !cl.Has("y") {
		t.Fatal("Clone shares state with original")
	}
	c.Del("nonexistent") // no-op
}

func TestValueHelpers(t *testing.T) {
	if v, ok := Int(5).AsFloat(); !ok || v != 5 {
		t.Fatal("int as float")
	}
	if v, ok := Float(5.9).AsInt(); !ok || v != 5 {
		t.Fatal("float as int truncation")
	}
	if v, ok := Word("17").AsInt(); !ok || v != 17 {
		t.Fatal("numeric word as int")
	}
	if _, ok := Vector().AsInt(); ok {
		t.Fatal("vector as int should fail")
	}
	if b, ok := Word("yes").AsBool(); !ok || !b {
		t.Fatal("yes as bool")
	}
	if b, ok := Int(0).AsBool(); !ok || b {
		t.Fatal("0 as bool")
	}
	if _, ok := Word("maybe").AsBool(); ok {
		t.Fatal("maybe as bool should fail")
	}
	// Word() on a non-word degrades to String for losslessness.
	if Word("has space").Kind() != KindString {
		t.Fatal("Word with space should degrade to string")
	}
	if KindFromString("vector") != KindVector || KindFromString("junk") != KindInvalid {
		t.Fatal("KindFromString")
	}
}
