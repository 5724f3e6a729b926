package cmdlang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseError describes a syntax error with its byte offset in the
// input string.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("cmdlang: parse error at offset %d: %s", e.Offset, e.Msg)
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokWord
	tokInt
	tokFloat
	tokString
	tokBytes
	tokEquals
	tokComma
	tokLBrace
	tokRBrace
	tokSemi
)

type token struct {
	kind tokenKind
	text string // word/string/byte-string content (unescaped), or number literal
	i    int64
	f    float64
	off  int
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(off int, format string, args ...any) *ParseError {
	return &ParseError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\r', '\n':
			l.pos++
		default:
			return
		}
	}
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans the next token.
func (l *lexer) next() (token, *ParseError) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, off: start}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '=':
		l.pos++
		return token{kind: tokEquals, off: start}, nil
	case ',':
		l.pos++
		return token{kind: tokComma, off: start}, nil
	case '{':
		l.pos++
		return token{kind: tokLBrace, off: start}, nil
	case '}':
		l.pos++
		return token{kind: tokRBrace, off: start}, nil
	case ';':
		l.pos++
		return token{kind: tokSemi, off: start}, nil
	case '"':
		return l.lexString()
	case '#':
		return l.lexBytes()
	}
	if c == '+' || c == '-' || isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])) {
		return l.lexNumber()
	}
	if isWordByte(c) {
		for l.pos < len(l.src) && isWordByte(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokWord, text: l.src[start:l.pos], off: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", rune(c))
}

// keep returns run, a part of the source, as a token's text. A run that
// makes up at least half of the source is a slice of it, so a bulk
// value is never copied; a shorter one is copied, so that a handler
// that keeps a path or a name keeps those few bytes and not the frame
// they arrived in.
func (l *lexer) keep(run string) string {
	if 2*len(run) < len(l.src) {
		return strings.Clone(run)
	}
	return run
}

// lexString scans a quoted string. One without a backslash that is
// valid UTF-8 — nearly every one — is taken from the source whole (see
// keep); only escapes and invalid bytes (which decode to U+FFFD) need
// rewriting byte by byte.
func (l *lexer) lexString() (token, *ParseError) {
	start := l.pos
	l.pos++ // opening quote
	rest := l.src[l.pos:]
	end := strings.IndexByte(rest, '"')
	if end >= 0 {
		if run := rest[:end]; strings.IndexByte(run, '\\') < 0 && utf8.ValidString(run) {
			l.pos += end + 1
			return token{kind: tokString, text: l.keep(run), off: start}, nil
		}
	}
	// The first quote is where the string ends unless it is escaped.
	b := make([]byte, 0, max(end, 0))
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '"':
			l.pos++
			return token{kind: tokString, text: ownedString(b), off: start}, nil
		case c == '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, l.errf(l.pos, "dangling escape at end of input")
			}
			l.pos++
			switch e := l.src[l.pos]; e {
			case '"', '\\':
				b = append(b, e)
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			default:
				return token{}, l.errf(l.pos, "unknown escape \\%c", e)
			}
			l.pos++
		case c < utf8.RuneSelf:
			b = append(b, c)
			l.pos++
		default:
			r, size := utf8.DecodeRuneInString(l.src[l.pos:])
			b = utf8.AppendRune(b, r)
			l.pos += size
		}
	}
	return token{}, l.errf(start, "unterminated string")
}

// lexBytes scans a byte string: '#', its length n in decimal with no
// sign or leading zero, ':', and then exactly n bytes of any value,
// taken from the source as keep takes them. The length is checked
// against the source digit by digit — the ':' and n bytes must still
// fit after each — so it never overflows, never exceeds what is left of
// the input and is never an allocation size.
func (l *lexer) lexBytes() (token, *ParseError) {
	start := l.pos
	l.pos++ // '#'
	digits, n := l.pos, 0
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		n = 10*n + int(l.src[l.pos]-'0')
		l.pos++
		if n > len(l.src)-l.pos-1 {
			return token{}, &ParseError{Offset: start, Msg: "byte string longer than the input"}
		}
	}
	switch {
	case l.pos == digits || l.pos == len(l.src) || l.src[l.pos] != ':':
		return token{}, &ParseError{Offset: start, Msg: "byte string needs '#', a length and ':'"}
	case l.src[digits] == '0' && l.pos-digits > 1:
		return token{}, &ParseError{Offset: start, Msg: "byte string length has a leading zero"}
	}
	l.pos++ // ':'
	run := l.src[l.pos : l.pos+n]
	l.pos += n
	return token{kind: tokBytes, text: l.keep(run), off: start}, nil
}

func (l *lexer) lexNumber() (token, *ParseError) {
	start := l.pos
	if c := l.src[l.pos]; c == '+' || c == '-' {
		l.pos++
	}
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.':
			isFloat = true
			l.pos++
		case c == 'e' || c == 'E':
			isFloat = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	lit := l.src[start:l.pos]
	if isFloat {
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return token{}, l.errf(start, "bad float literal %q", lit)
		}
		return token{kind: tokFloat, f: f, text: lit, off: start}, nil
	}
	i, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		// Overflowing integers degrade to float, matching the
		// "any integer valued number" grammar pragmatically.
		f, ferr := strconv.ParseFloat(lit, 64)
		if ferr != nil {
			return token{}, l.errf(start, "bad integer literal %q", lit)
		}
		return token{kind: tokFloat, f: f, text: lit, off: start}, nil
	}
	return token{kind: tokInt, i: i, text: lit, off: start}, nil
}

// parser is the ACE Command Parser: it checks the incoming string for
// syntactic correctness and reconstructs the CmdLine object.
type parser struct {
	lex lexer
	tok token
}

func (p *parser) advance() *ParseError {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// Parse parses a single ACE command string (terminated by ';') into a
// CmdLine. Trailing input after the semicolon is an error; use
// ParsePrefix to parse streams.
func Parse(s string) (*CmdLine, error) {
	c, rest, err := ParsePrefix(s)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(rest) != "" {
		return nil, &ParseError{Offset: len(s) - len(rest), Msg: "trailing input after command"}
	}
	return c, nil
}

// ParseBytes is Parse for a buffer the caller hands over: the
// command's words, bulk strings and bulk byte strings alias b instead
// of a copy of it, so nothing may write to b afterwards. It is how a
// received frame becomes a command without a second copy of its
// contents.
func ParseBytes(b []byte) (*CmdLine, error) { return Parse(ownedString(b)) }

// ParsePrefix parses one command from the front of s and returns the
// unconsumed remainder, allowing several commands to be concatenated
// in one buffer.
func ParsePrefix(s string) (*CmdLine, string, error) {
	p := &parser{lex: lexer{src: s}}
	if err := p.advance(); err != nil {
		return nil, "", err
	}
	if p.tok.kind != tokWord {
		return nil, "", &ParseError{Offset: p.tok.off, Msg: "expected command name"}
	}
	cmdName := p.tok.text
	if err := p.advance(); err != nil {
		return nil, "", err
	}
	// Most commands have a handful of arguments: room for them in the
	// command's own allocation, bounded so that a frame of '=' bytes
	// reserves nothing big.
	c := newCmdLine(cmdName, min(strings.Count(s, "="), 8))
	for {
		switch p.tok.kind {
		case tokSemi:
			return c, s[p.lex.pos:], nil
		case tokComma:
			// Commas may separate arguments in the arg list.
			if err := p.advance(); err != nil {
				return nil, "", err
			}
			continue
		case tokWord:
			name := p.tok.text
			nameOff := p.tok.off
			if err := p.advance(); err != nil {
				return nil, "", err
			}
			if p.tok.kind != tokEquals {
				return nil, "", &ParseError{Offset: nameOff, Msg: fmt.Sprintf("argument %q missing '='", name)}
			}
			if err := p.advance(); err != nil {
				return nil, "", err
			}
			v, err := p.parseValue()
			if err != nil {
				return nil, "", err
			}
			if c.find(name) >= 0 {
				return nil, "", &ParseError{Offset: nameOff, Msg: fmt.Sprintf("duplicate argument %q", name)}
			}
			c.add(name, v)
		case tokEOF:
			return nil, "", &ParseError{Offset: p.tok.off, Msg: "unterminated command (missing ';')"}
		default:
			return nil, "", &ParseError{Offset: p.tok.off, Msg: "expected argument name"}
		}
	}
}

// parseValue parses the token(s) of one <ARGVALUE> and leaves p.tok
// on the token following the value.
func (p *parser) parseValue() (Value, *ParseError) {
	switch p.tok.kind {
	case tokInt:
		v := Int(p.tok.i)
		return v, p.advance()
	case tokFloat:
		v := Float(p.tok.f)
		return v, p.advance()
	case tokWord:
		v := Word(p.tok.text)
		return v, p.advance()
	case tokString:
		v := String(p.tok.text)
		return v, p.advance()
	case tokBytes:
		// The lexer already kept or copied the bytes; Bytes would copy again.
		v := Value{kind: KindBytes, s: p.tok.text}
		return v, p.advance()
	case tokLBrace:
		return p.parseBraced()
	default:
		return Value{}, &ParseError{Offset: p.tok.off, Msg: "expected value"}
	}
}

// parseBraced parses either a vector {s1,s2,...} or an array
// {{..},{..}} depending on the first inner token.
func (p *parser) parseBraced() (Value, *ParseError) {
	open := p.tok.off
	if err := p.advance(); err != nil {
		return Value{}, err
	}
	if p.tok.kind == tokRBrace { // empty vector
		return Vector(), p.advance()
	}
	if p.tok.kind == tokLBrace {
		// Array of vectors.
		var vecs []Value
		for {
			v, err := p.parseBraced()
			if err != nil {
				return Value{}, err
			}
			vecs = append(vecs, v)
			switch p.tok.kind {
			case tokComma:
				if err := p.advance(); err != nil {
					return Value{}, err
				}
			case tokRBrace:
				arr := Array(vecs...)
				if verr := arr.Validate(); verr != nil {
					return Value{}, &ParseError{Offset: open, Msg: verr.Error()}
				}
				return arr, p.advance()
			default:
				return Value{}, &ParseError{Offset: p.tok.off, Msg: "expected ',' or '}' in array"}
			}
		}
	}
	// Vector of scalars.
	var elems []Value
	for {
		v, err := p.parseValue()
		if err != nil {
			return Value{}, err
		}
		elems = append(elems, v)
		switch p.tok.kind {
		case tokComma:
			if err := p.advance(); err != nil {
				return Value{}, err
			}
		case tokRBrace:
			vec := Vector(elems...)
			if verr := vec.Validate(); verr != nil {
				return Value{}, &ParseError{Offset: open, Msg: verr.Error()}
			}
			return vec, p.advance()
		default:
			return Value{}, &ParseError{Offset: p.tok.off, Msg: "expected ',' or '}' in vector"}
		}
	}
}
