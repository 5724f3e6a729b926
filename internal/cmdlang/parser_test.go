package cmdlang

import (
	"strings"
	"testing"
	"unsafe"
)

func mustParse(t *testing.T, s string) *CmdLine {
	t.Helper()
	c, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return c
}

func TestParseBareCommand(t *testing.T) {
	c := mustParse(t, "ping;")
	if c.Name() != "ping" || c.NumArgs() != 0 {
		t.Fatalf("got %v", c)
	}
}

func TestParseWhitespaceTolerance(t *testing.T) {
	c := mustParse(t, "  move \t x=1   y=2\n z=3 ;")
	if c.Name() != "move" || c.Int("x", 0) != 1 || c.Int("y", 0) != 2 || c.Int("z", 0) != 3 {
		t.Fatalf("got %v", c)
	}
}

func TestParseCommaSeparatedArgs(t *testing.T) {
	c := mustParse(t, "move x=1,y=2, z=3;")
	if c.Int("x", 0) != 1 || c.Int("y", 0) != 2 || c.Int("z", 0) != 3 {
		t.Fatalf("got %v", c)
	}
}

func TestParseScalarKinds(t *testing.T) {
	c := mustParse(t, `set i=-42 f=3.25 w=hello s="hello world" e=1e3 neg=-0.5 b=#3:a;c h="#2:ab";`)
	cases := []struct {
		arg  string
		kind Kind
	}{
		{"i", KindInt}, {"f", KindFloat}, {"w", KindWord},
		{"s", KindString}, {"e", KindFloat}, {"neg", KindFloat},
		{"b", KindBytes}, {"h", KindString},
	}
	for _, tc := range cases {
		v, ok := c.Get(tc.arg)
		if !ok || v.Kind() != tc.kind {
			t.Errorf("arg %s: kind=%v ok=%v, want %v", tc.arg, v.Kind(), ok, tc.kind)
		}
	}
	if c.Int("i", 0) != -42 {
		t.Errorf("i=%d", c.Int("i", 0))
	}
	if c.Float("f", 0) != 3.25 {
		t.Errorf("f=%g", c.Float("f", 0))
	}
	if c.Str("s", "") != "hello world" {
		t.Errorf("s=%q", c.Str("s", ""))
	}
	if c.Float("e", 0) != 1000 {
		t.Errorf("e=%g", c.Float("e", 0))
	}
	if b, _ := c.Bytes("b"); string(b) != "a;c" {
		t.Errorf("b=%q", b)
	}
}

func TestParseStringEscapes(t *testing.T) {
	c := mustParse(t, `log msg="a \"b\" \\ \n\t\r end";`)
	want := "a \"b\" \\ \n\t\r end"
	if got := c.Str("msg", ""); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestParseVectors(t *testing.T) {
	c := mustParse(t, `set iv={1,2,3} fv={1.5,2.5} wv={a,b,c} sv={"x y","z"} ev={};`)
	if got := c.Vector("iv"); len(got) != 3 || got[2].Kind() != KindInt {
		t.Fatalf("iv=%v", got)
	}
	if got := c.Vector("fv"); len(got) != 2 || got[0].Kind() != KindFloat {
		t.Fatalf("fv=%v", got)
	}
	if got := c.Strings("wv"); strings.Join(got, "") != "abc" {
		t.Fatalf("wv=%v", got)
	}
	if got := c.Strings("sv"); got[0] != "x y" {
		t.Fatalf("sv=%v", got)
	}
	if got := c.Vector("ev"); len(got) != 0 {
		t.Fatalf("ev=%v", got)
	}
}

func TestParseArray(t *testing.T) {
	c := mustParse(t, "mat m={{1,2},{3,4},{5,6}};")
	m, _ := c.Get("m")
	if m.Kind() != KindArray || m.Len() != 3 {
		t.Fatalf("m=%v", m)
	}
	row := m.Elems()[1]
	if row.Kind() != KindVector {
		t.Fatalf("row kind %v", row.Kind())
	}
	if n, _ := row.Elems()[0].AsInt(); n != 3 {
		t.Fatalf("row[0]=%v", row.Elems()[0])
	}
}

func TestParseHeterogeneousVectorRejected(t *testing.T) {
	if _, err := Parse(`set v={1,a};`); err == nil {
		t.Fatal("want error for heterogeneous vector")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                 // empty
		";",                // no name
		"cmd",              // missing semicolon
		"cmd x=;",          // missing value
		"cmd x;",           // missing '='
		"cmd =1;",          // missing name
		`cmd s="abc;`,      // unterminated string
		"cmd v={1,2;",      // unterminated vector
		"cmd x=1 x=2;",     // duplicate arg
		"cmd a=1; extra",   // trailing garbage
		"cmd x=@;",         // bad char
		`cmd s="a\q";`,     // bad escape
		"cmd a={{1},2};",   // array mixing vector and scalar
		"1cmd a=1;",        // name starts with digit
		"cmd v=#;",         // byte string without a length
		"cmd v=#:;",        // byte string without a length
		"cmd v=#-1:a;",     // signed length
		"cmd v=#1 :x;",     // space before ':'
		"cmd v=#3;abc;",    // no ':'
		"cmd v=#01:a;",     // leading zero
		"cmd v=#4:abc;",    // swallows the terminator
		"cmd v=#9:ab;",     // longer than the input
		"cmd a={{1},{a}};", // fine per-vector but let's check homogeneous arrays allowed
	}
	for _, s := range bad[:len(bad)-1] {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error, got nil", s)
		}
	}
	// Arrays of differently-typed vectors are allowed (each vector is
	// internally homogeneous).
	if _, err := Parse(bad[len(bad)-1]); err != nil {
		t.Errorf("Parse(%q): %v", bad[len(bad)-1], err)
	}
}

func TestParseErrorOffset(t *testing.T) {
	_, err := Parse("cmd x=@;")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T", err)
	}
	if pe.Offset != 6 {
		t.Fatalf("offset=%d want 6", pe.Offset)
	}
}

func TestParsePrefixStream(t *testing.T) {
	input := "a x=1; b y=2;  c;"
	var names []string
	rest := input
	for strings.TrimSpace(rest) != "" {
		c, r, err := ParsePrefix(rest)
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", rest, err)
		}
		names = append(names, c.Name())
		rest = r
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("names=%v", names)
	}
}

func TestParseIntOverflowDegradesToFloat(t *testing.T) {
	c := mustParse(t, "big n=99999999999999999999999999;")
	v, _ := c.Get("n")
	if v.Kind() != KindFloat {
		t.Fatalf("kind=%v want float", v.Kind())
	}
}

func TestRoundTripExamples(t *testing.T) {
	cmds := []*CmdLine{
		New("ping"),
		New("move").SetInt("x", 5).SetFloat("y", -2.75).SetWord("mode", "fast"),
		New("say").SetString("text", `she said "hi"`+"\n\\done"),
		New("cfg").Set("dims", IntVector(640, 480)).Set("rates", FloatVector(29.97, 30)),
		New("mat").Set("m", Array(IntVector(1, 2), IntVector(3, 4))),
		New("mix").Set("names", StringVector("a b", "c")).SetBool("on", true),
		New("empty").Set("v", Vector()),
		New("blob").SetBytes("all", allBytes()).SetBytes("none", nil).
			Set("parts", Vector(Bytes([]byte(";")), Bytes([]byte(`"}`)))),
	}
	for _, c := range cmds {
		s := c.String()
		back, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if !c.Equal(back) {
			t.Errorf("round trip mismatch: %v -> %q -> %v", c, s, back)
		}
	}
}

// allBytes is every byte value once, the quote, brace and ';' included.
func allBytes() []byte {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// TestParseBytesSlicesBulkValues: a byte string that is most of its
// frame is a slice of the frame; a short one is a copy, so the frame is
// not kept alive by a few bytes.
func TestParseBytesSlicesBulkValues(t *testing.T) {
	within := func(b, frame []byte) bool {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		f := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
		return p >= f && p < f+uintptr(len(frame))
	}
	bulk := New("ok").SetBytes("value", allBytes()).SetInt("version", 7).AppendTo(nil)
	c, err := ParseBytes(bulk)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Bytes("value"); !within(got, bulk) || string(got) != string(allBytes()) {
		t.Error("a bulk byte string was copied out of its frame")
	}
	short := New("ok").SetBytes("value", []byte("ab")).SetString("pad", strings.Repeat("x", 64)).AppendTo(nil)
	if c, err = ParseBytes(short); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Bytes("value"); within(got, short) || string(got) != "ab" {
		t.Error("a short byte string aliases its frame")
	}
}

// TestByteStringPrefixIsNotAnAllocation: a length far beyond the input
// fails with the error as its only allocation, never a buffer of that
// size.
func TestByteStringPrefixIsNotAnAllocation(t *testing.T) {
	for _, src := range []string{"#1048576:abc", "#1048576", "#" + strings.Repeat("9", 25) + ":"} {
		n := testing.AllocsPerRun(100, func() {
			l := lexer{src: src}
			if _, err := l.next(); err == nil {
				t.Fatalf("%q lexed", src)
			}
		})
		if n > 1 {
			t.Errorf("%q: %v allocations, want at most 1", src, n)
		}
	}
}
