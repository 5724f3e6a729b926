package cmdlang

import (
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// The rune-by-rune string codec the package shipped before the bulk
// fast paths, kept as the reference the fast paths are compared with:
// same text, same position, same error, byte for byte.

func refQuoteString(b *strings.Builder, s string) {
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
}

func refLexString(l *lexer) (token, *ParseError) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return token{kind: tokString, text: b.String(), off: start}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, l.errf(l.pos, "dangling escape at end of input")
			}
			l.pos++
			switch e := l.src[l.pos]; e {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			default:
				return token{}, l.errf(l.pos, "unknown escape \\%c", e)
			}
			l.pos++
		default:
			r, size := utf8.DecodeRuneInString(l.src[l.pos:])
			b.WriteRune(r)
			l.pos += size
		}
	}
	return token{}, l.errf(start, "unterminated string")
}

// checkStringCodec compares both fast paths with the reference on s:
// s quoted, and s lexed as the inside of a string that may or may not
// be terminated.
func checkStringCodec(t *testing.T, s string) {
	t.Helper()
	var want strings.Builder
	refQuoteString(&want, s)
	if got := string(appendQuoted(nil, s)); got != want.String() {
		t.Fatalf("appendQuoted(%q) = %q, reference %q", s, got, want.String())
	}

	src := `"` + s
	fast, ref := lexer{src: src}, lexer{src: src}
	gotTok, gotErr := fast.lexString()
	wantTok, wantErr := refLexString(&ref)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("lexString(%q): error %v, reference %v", src, gotErr, wantErr)
	case gotErr != nil:
		if *gotErr != *wantErr {
			t.Fatalf("lexString(%q): error %v, reference %v", src, gotErr, wantErr)
		}
	case gotTok != wantTok || fast.pos != ref.pos:
		t.Fatalf("lexString(%q) = %+v at %d, reference %+v at %d", src, gotTok, fast.pos, wantTok, ref.pos)
	}
}

func TestStringCodecMatchesReference(t *testing.T) {
	for _, s := range []string{
		"", "plain", `Service.Device.PTZCamera.VCC3`, `tail"`, `a"b`, `a\"b"`, `a\\"`, `\n\r\t"`,
		`dangling\`, `bad\q"`, "raw\nnewline\"", "tab\there", "é λ 日本\"", "\xff\"", "ok\xc3\"", "a\xe6\x97\"",
		"�\"", `unterminated`, `quote " inside " twice"`, strings.Repeat("x", 5000) + `"`,
		strings.Repeat("x", 5000) + "\xfe" + `\n"`,
	} {
		checkStringCodec(t, s)
	}
}

// The four messages of the benchmark's call workload, with the seq the
// transport adds.
func callMessages() []*CmdLine {
	blob := strings.Repeat("abcdefghijklmnopqrstuvwxyz012345", 128)
	return []*CmdLine{
		New("ping"),
		New("move").SetFloat("pan", 123.45).SetFloat("tilt", -12.5),
		New("register").SetWord("name", "ptz_cam_1").SetWord("host", "machine25").
			SetInt("port", 1225).SetWord("room", "hawk").
			SetString("class", "Service.Device.PTZCamera.VCC3").SetInt("lease", 10000),
		New("move").SetFloat("pan", 123.45).SetFloat("tilt", -12.5).SetString("blob", blob),
	}
}

// TestCallPathAllocations gates what the byte path allocates per
// message: nothing to encode into a buffer with room, one buffer for
// String, and for a parse the command, its argument list and one copy
// per short quoted string (register's class); words and the 4 KiB blob
// alias the input.
func TestCallPathAllocations(t *testing.T) {
	buf := make([]byte, 0, 8192)
	for i, c := range callMessages() {
		wantParse := []float64{2, 2, 3, 2}[i]
		text := string(c.AppendSeq(nil, 424242))
		if n := testing.AllocsPerRun(100, func() { buf = c.AppendSeq(buf[:0], 424242) }); n != 0 {
			t.Errorf("%s: AppendSeq allocates %v times, want 0", c.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = c.String() }); n != 1 {
			t.Errorf("%s: String allocates %v times, want 1", c.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := Parse(text); err != nil {
				t.Fatal(err)
			}
		}); n > wantParse {
			t.Errorf("%s: Parse allocates %v times, want at most %v", c.Name(), n, wantParse)
		}
	}
}

func TestAppendSeqMatchesSetInt(t *testing.T) {
	for _, c := range append(callMessages(),
		New("fwd").SetInt(SeqArg, 7).SetWord("k", "v"), // a seq already there keeps its place
		New("odd").SetWord("k", "v").SetString(SeqArg, "x"),
	) {
		before := c.String()
		want := c.Clone().SetInt(SeqArg, 99).String()
		if got := string(c.AppendSeq(nil, 99)); got != want {
			t.Errorf("AppendSeq = %q, SetInt then String = %q", got, want)
		}
		if c.String() != before {
			t.Errorf("AppendSeq changed the command: %q → %q", before, c.String())
		}
	}
}

// TestManyArgumentsStayLinear: past indexThreshold lookups go through
// the index, so a frame of the largest size made of nothing but
// arguments parses in time proportional to its length, and a duplicate
// is still found.
func TestManyArgumentsStayLinear(t *testing.T) {
	const n = 100_000
	var b strings.Builder
	b.WriteString("flood")
	for i := 0; i < n; i++ {
		b.WriteString(" a")
		b.WriteString(strings.Repeat("x", i%3)) // names of several lengths
		b.WriteString(strconv.Itoa(i))
		b.WriteString("=1")
	}
	text := b.String() + ";"
	start := time.Now()
	c, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	// A scan per argument would be 5·10⁹ string comparisons, minutes
	// under the race detector; the index takes milliseconds.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("parsing %d arguments took %v", n, d)
	}
	if c.NumArgs() != n || c.Int("a"+strconv.Itoa(n-1), 0) != 1 || c.Has("nope") {
		t.Fatalf("parsed %d arguments", c.NumArgs())
	}
	c.Del("a0")
	if c.Has("a0") || c.Int("ax1", 0) != 1 || c.NumArgs() != n-1 {
		t.Fatal("Del lost track of the arguments behind the one removed")
	}

	for _, dup := range []int{0, indexThreshold - 1, indexThreshold, indexThreshold + 1, 3 * indexThreshold} {
		var b strings.Builder
		b.WriteString("dup")
		for i := 0; i <= 3*indexThreshold; i++ {
			b.WriteString(" a" + strconv.Itoa(i) + "=1")
		}
		b.WriteString(" a" + strconv.Itoa(dup) + "=2;")
		if _, err := Parse(b.String()); err == nil || !strings.Contains(err.Error(), "duplicate argument") {
			t.Errorf("duplicate of argument %d: err = %v", dup, err)
		}
	}
}
