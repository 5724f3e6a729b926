package cmdlang

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randWord generates a legal <WORD>.
func randWord(r *rand.Rand) string {
	const first = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
	const rest = first + "0123456789"
	n := 1 + r.Intn(12)
	var b strings.Builder
	b.WriteByte(first[r.Intn(len(first))])
	for i := 1; i < n; i++ {
		b.WriteByte(rest[r.Intn(len(rest))])
	}
	return b.String()
}

// randString generates arbitrary printable-ish content including
// characters that need escaping.
func randString(r *rand.Rand) string {
	runes := []rune(`abc XYZ 0189 "\\{};=,._-+ éλ日` + "\n\t\r")
	n := r.Intn(20)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(runes[r.Intn(len(runes))])
	}
	return b.String()
}

func randScalar(r *rand.Rand, kind Kind) Value {
	switch kind {
	case KindInt:
		return Int(r.Int63() - r.Int63())
	case KindFloat:
		f := math.Trunc(r.NormFloat64()*1e6) / 64
		return Float(f)
	case KindWord:
		return Word(randWord(r))
	case KindBytes:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return Bytes(b)
	default:
		return String(randString(r))
	}
}

func randVector(r *rand.Rand) Value {
	kind := []Kind{KindInt, KindFloat, KindWord, KindString, KindBytes}[r.Intn(5)]
	n := r.Intn(6)
	elems := make([]Value, n)
	for i := range elems {
		elems[i] = randScalar(r, kind)
	}
	return Vector(elems...)
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(7) {
	case 0:
		return randScalar(r, KindInt)
	case 1:
		return randScalar(r, KindFloat)
	case 2:
		return randScalar(r, KindWord)
	case 3:
		return randScalar(r, KindString)
	case 4:
		return randScalar(r, KindBytes)
	case 5:
		return randVector(r)
	default:
		n := r.Intn(4)
		vecs := make([]Value, n)
		for i := range vecs {
			vecs[i] = randVector(r)
		}
		return Array(vecs...)
	}
}

func randCmdLine(r *rand.Rand) *CmdLine {
	c := New(randWord(r))
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		c.Set(randWord(r), randValue(r))
	}
	return c
}

// TestQuickRoundTrip is the core property test: for any well-formed
// CmdLine, String() produces a string that Parse() reconstructs into
// an equal CmdLine (Fig 5's build → transmit → reconstruct loop is
// lossless).
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randCmdLine(r)
		s := c.String()
		back, err := Parse(s)
		if err != nil {
			t.Logf("seed %d: Parse(%q): %v", seed, s, err)
			return false
		}
		if !c.Equal(back) {
			t.Logf("seed %d: mismatch %q", seed, s)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickValueEncodeParse checks value-level encode/parse fidelity.
func TestQuickValueEncodeParse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randValue(r)
		c := New("x").Set("v", v)
		back, err := Parse(c.String())
		if err != nil {
			return false
		}
		got, _ := back.Get("v")
		return v.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFloatFidelity: every float survives the textual encoding
// bit-exactly (FormatFloat 'g' -1 guarantees shortest exact form).
func TestQuickFloatFidelity(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true // not expressible, clamped by Float()
		}
		c := New("f").SetFloat("v", x)
		back, err := Parse(c.String())
		if err != nil {
			return false
		}
		got := back.Float("v", math.NaN())
		return got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIntFidelity: every int64 survives encoding.
func TestQuickIntFidelity(t *testing.T) {
	f := func(x int64) bool {
		c := New("i").SetInt("v", x)
		back, err := Parse(c.String())
		if err != nil {
			return false
		}
		return back.Int("v", 0) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStringFidelity: arbitrary (valid-UTF-8) strings survive
// quoting and unquoting.
func TestQuickStringFidelity(t *testing.T) {
	f := func(s string) bool {
		if !strings.Contains(strings.ToValidUTF8(s, ""), "") { // always true; keep s as-is
			return true
		}
		s = strings.ToValidUTF8(s, "�")
		c := New("s").SetString("v", s)
		back, err := Parse(c.String())
		if err != nil {
			return false
		}
		return back.Str("v", "") == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParserNeverPanics feeds random byte soup to the parser and
// requires it to fail gracefully rather than panic.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Parse(string(data))       //nolint:errcheck — errors are expected
		ParsePrefix(string(data)) //nolint:errcheck
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
