package cmdlang

import "testing"

// FuzzParse checks the parser's core invariant on arbitrary input:
// anything that parses must re-encode to a string that parses back to
// an equal command (and must never panic), whichever of String and
// AppendTo encodes it, the string fast paths must match their
// reference (reference_test.go), and every byte string must re-encode
// to exactly the bytes it was read from.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"ping;",
		"move x=1 y=2;",
		`register name=ptz host=m25 port=1225 class="Service.Device" lease=10000;`,
		`say text="she said \"hi\"\n";`,
		"cfg dims={640,480} rates={5,15,29.97} modes={auto,manual};",
		"mat m={{1,2},{3,4}};",
		"a b=1,c=2, d=3;",
		"x y={};",
		"neg a=-5 b=-2.5 c=1e9;",
		"bad x=;",
		"{;};",
		`q s="unterminated`,
		"u s=\"\xff\xfe\" t=\"tab\there\";",
		`e s="a\\b\"c" t="dangling\`,
		"b v=#0:;",
		"b v=#3:a;b;",
		"b v=#4:\"\xff\x00};",
		"b v={#1:x,#2:yz} w=#5:#1:a;;",
		"b v=#1048576:abc;",
		"b v=#-1:;",
		"b v=#:;",
		"b v=#1 :x;",
		"b v=#01:x;",
		"b v=#1234567890123456789012345:x;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// The bulk string paths must agree with the rune-by-rune
		// reference on every input, well-formed or not.
		checkStringCodec(t, s)
		checkBytesReencode(t, s)
		c, err := Parse(s)
		if err != nil {
			return // malformed input is fine; panics are not
		}
		enc := c.String()
		if app := string(c.AppendTo(nil)); app != enc {
			t.Fatalf("AppendTo = %q, String = %q", app, enc)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", enc, s, err)
		}
		if !c.Equal(back) {
			t.Fatalf("re-encode not idempotent: %q -> %q", s, enc)
		}
	})
}

// checkBytesReencode lexes s and requires every byte string in it to
// re-encode to the very bytes it was read from: the length prefix is
// canonical, and the content is taken whole, quotes, braces and ';'
// included.
func checkBytesReencode(t *testing.T, s string) {
	t.Helper()
	l := lexer{src: s}
	for {
		tok, err := l.next()
		if err != nil || tok.kind == tokEOF {
			return
		}
		if tok.kind != tokBytes {
			continue
		}
		v := Value{kind: KindBytes, s: tok.text}
		if got, src := v.Encode(), s[tok.off:l.pos]; got != src {
			t.Fatalf("byte string %q re-encodes as %q", src, got)
		}
	}
}

// FuzzParsePrefix checks that stream parsing never panics and always
// consumes forward progress or fails.
func FuzzParsePrefix(f *testing.F) {
	f.Add("a x=1; b y=2; c;")
	f.Add(";;;")
	f.Add("a v=#3:;;;; b v=#0:; c;")
	f.Add("a v=#2:x;")
	f.Add("a v=#5:ab; b;")
	f.Fuzz(func(t *testing.T, s string) {
		rest := s
		for i := 0; i < 100 && rest != ""; i++ {
			c, r, err := ParsePrefix(rest)
			if err != nil {
				return
			}
			if c == nil {
				t.Fatal("nil command without error")
			}
			if len(r) >= len(rest) {
				t.Fatalf("no forward progress on %q", rest)
			}
			rest = r
		}
	})
}
