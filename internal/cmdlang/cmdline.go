package cmdlang

import (
	"fmt"
	"sort"
	"unsafe"
)

// CmdLine is the ACECmdLine object: a command name plus an ordered
// list of named, typed arguments. Every command issued to an ACE
// service is first built as a CmdLine, rendered to a string with
// String, transmitted, and reconstructed by Parse on the far side.
//
// The zero CmdLine is not usable; construct with New.
type CmdLine struct {
	name string
	args []Arg
	// index maps argument names to positions, and exists only once a
	// command has more than indexThreshold arguments: below that a scan
	// of args beats a map and costs no allocation, above it the map
	// keeps a frame of 100 000 arguments linear to parse.
	index map[string]int
}

const indexThreshold = 16

// Arg is a single named argument of a command line.
type Arg struct {
	Name  string
	Value Value
}

// New returns a CmdLine for the given command name, with room for two
// arguments in the same allocation: most commands built by a program,
// and most replies, have at most two. The name must be a legal word;
// New panics otherwise since command names are always program
// constants.
func New(name string) *CmdLine {
	if !IsWord(name) {
		panic(fmt.Sprintf("cmdlang: command name %q is not a word", name))
	}
	return newCmdLine(name, 2)
}

// withArgs is a command and room for its first arguments, allocated as
// one object.
type withArgs[A any] struct {
	c    CmdLine
	room A
}

func (x *withArgs[A]) init(name string, args []Arg) *CmdLine {
	x.c = CmdLine{name: name, args: args}
	return &x.c
}

// newCmdLine returns a command named name with room for n arguments.
// Up to eight, the room is part of the command's own allocation and
// sized to n, so that a command costs one allocation and no more bytes
// than a command and an argument slice of that size.
func newCmdLine(name string, n int) *CmdLine {
	switch n {
	case 0:
		return &CmdLine{name: name}
	case 1:
		x := new(withArgs[[1]Arg])
		return x.init(name, x.room[:0])
	case 2:
		x := new(withArgs[[2]Arg])
		return x.init(name, x.room[:0])
	case 3:
		x := new(withArgs[[3]Arg])
		return x.init(name, x.room[:0])
	case 4:
		x := new(withArgs[[4]Arg])
		return x.init(name, x.room[:0])
	case 5:
		x := new(withArgs[[5]Arg])
		return x.init(name, x.room[:0])
	case 6:
		x := new(withArgs[[6]Arg])
		return x.init(name, x.room[:0])
	case 7:
		x := new(withArgs[[7]Arg])
		return x.init(name, x.room[:0])
	case 8:
		x := new(withArgs[[8]Arg])
		return x.init(name, x.room[:0])
	}
	return &CmdLine{name: name, args: make([]Arg, 0, n)}
}

// find returns the position of the named argument, or -1.
func (c *CmdLine) find(name string) int {
	if c.index != nil {
		if i, ok := c.index[name]; ok {
			return i
		}
		return -1
	}
	for i := range c.args {
		if c.args[i].Name == name {
			return i
		}
	}
	return -1
}

// add appends an argument known to be absent.
func (c *CmdLine) add(name string, v Value) {
	c.args = append(c.args, Arg{Name: name, Value: v})
	switch {
	case c.index != nil:
		c.index[name] = len(c.args) - 1
	case len(c.args) > indexThreshold:
		c.index = make(map[string]int, 2*len(c.args))
		for i := range c.args {
			c.index[c.args[i].Name] = i
		}
	}
}

// Name returns the command name.
func (c *CmdLine) Name() string { return c.name }

// Set adds or replaces the named argument and returns c for chaining.
// Argument names must be legal words.
func (c *CmdLine) Set(name string, v Value) *CmdLine {
	if !IsWord(name) {
		panic(fmt.Sprintf("cmdlang: argument name %q is not a word", name))
	}
	if i := c.find(name); i >= 0 {
		c.args[i].Value = v
		return c
	}
	c.add(name, v)
	return c
}

// SetInt is shorthand for Set(name, Int(v)).
func (c *CmdLine) SetInt(name string, v int64) *CmdLine { return c.Set(name, Int(v)) }

// SetFloat is shorthand for Set(name, Float(v)).
func (c *CmdLine) SetFloat(name string, v float64) *CmdLine { return c.Set(name, Float(v)) }

// SetWord is shorthand for Set(name, Word(v)).
func (c *CmdLine) SetWord(name, v string) *CmdLine { return c.Set(name, Word(v)) }

// SetString is shorthand for Set(name, String(v)).
func (c *CmdLine) SetString(name, v string) *CmdLine { return c.Set(name, String(v)) }

// SetBool is shorthand for Set(name, Bool(v)).
func (c *CmdLine) SetBool(name string, v bool) *CmdLine { return c.Set(name, Bool(v)) }

// SetBytes is shorthand for Set(name, Bytes(v)): the command keeps a
// copy of v.
func (c *CmdLine) SetBytes(name string, v []byte) *CmdLine { return c.Set(name, Bytes(v)) }

// Get returns the named argument value.
func (c *CmdLine) Get(name string) (Value, bool) {
	i := c.find(name)
	if i < 0 {
		return Value{}, false
	}
	return c.args[i].Value, true
}

// Has reports whether the named argument is present.
func (c *CmdLine) Has(name string) bool {
	return c.find(name) >= 0
}

// Int returns the named argument as an int64, with def as fallback.
func (c *CmdLine) Int(name string, def int64) int64 {
	if v, ok := c.Get(name); ok {
		if n, ok := v.AsInt(); ok {
			return n
		}
	}
	return def
}

// Float returns the named argument as a float64, with def as fallback.
func (c *CmdLine) Float(name string, def float64) float64 {
	if v, ok := c.Get(name); ok {
		if f, ok := v.AsFloat(); ok {
			return f
		}
	}
	return def
}

// Str returns the named argument's textual content, with def as
// fallback.
func (c *CmdLine) Str(name, def string) string {
	if v, ok := c.Get(name); ok {
		return v.AsString()
	}
	return def
}

// Bytes returns the named argument's bytes (Value.AsBytes); ok is false
// when it is absent or not a byte string, word or string. A parsed
// command's bytes may share the memory of the frame it arrived in, so
// the slice must not be modified.
func (c *CmdLine) Bytes(name string) (b []byte, ok bool) {
	if v, present := c.Get(name); present {
		return v.AsBytes()
	}
	return nil, false
}

// Bool returns the named argument as a boolean, with def as fallback.
func (c *CmdLine) Bool(name string, def bool) bool {
	if v, ok := c.Get(name); ok {
		if b, ok := v.AsBool(); ok {
			return b
		}
	}
	return def
}

// Vector returns the elements of the named vector argument, or nil.
func (c *CmdLine) Vector(name string) []Value {
	if v, ok := c.Get(name); ok {
		return v.Elems()
	}
	return nil
}

// Strings returns the elements of the named vector as strings.
func (c *CmdLine) Strings(name string) []string {
	elems := c.Vector(name)
	if elems == nil {
		return nil
	}
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = e.AsString()
	}
	return out
}

// Del removes the named argument if present.
func (c *CmdLine) Del(name string) {
	i := c.find(name)
	if i < 0 {
		return
	}
	c.args = append(c.args[:i], c.args[i+1:]...)
	if c.index != nil {
		delete(c.index, name)
		for j := i; j < len(c.args); j++ {
			c.index[c.args[j].Name] = j
		}
	}
}

// Args returns the arguments in insertion order. The slice is shared;
// callers must not modify it.
func (c *CmdLine) Args() []Arg { return c.args }

// NumArgs returns the argument count.
func (c *CmdLine) NumArgs() int { return len(c.args) }

// ArgNames returns the argument names in insertion order.
func (c *CmdLine) ArgNames() []string {
	out := make([]string, len(c.args))
	for i, a := range c.args {
		out[i] = a.Name
	}
	return out
}

// SortedArgNames returns the argument names sorted lexically; useful
// for deterministic diagnostics.
func (c *CmdLine) SortedArgNames() []string {
	out := c.ArgNames()
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the command line.
func (c *CmdLine) Clone() *CmdLine {
	n := newCmdLine(c.name, len(c.args))
	for _, a := range c.args {
		n.add(a.Name, a.Value)
	}
	return n
}

// Equal reports whether two command lines have the same name and the
// same arguments with equal values, ignoring argument order.
func (c *CmdLine) Equal(o *CmdLine) bool {
	if c == nil || o == nil {
		return c == o
	}
	if c.name != o.name || len(c.args) != len(o.args) {
		return false
	}
	for _, a := range c.args {
		ov, ok := o.Get(a.Name)
		if !ok || !a.Value.Equal(ov) {
			return false
		}
	}
	return true
}

// AppendTo appends the command line in the ACE textual grammar,
// terminated by ';', to dst and returns the extended buffer. The
// appended text parses back to an equal CmdLine.
func (c *CmdLine) AppendTo(dst []byte) []byte {
	return c.appendText(dst, false, 0)
}

// AppendSeq appends the text c would have after SetInt(SeqArg, seq) —
// a seq argument the command already carries is rendered with the new
// number in its place, otherwise seq goes last — without touching c, so
// the transport can number a command or reply it does not own.
func (c *CmdLine) AppendSeq(dst []byte, seq int64) []byte {
	return c.appendText(dst, true, seq)
}

func (c *CmdLine) appendText(dst []byte, withSeq bool, seq int64) []byte {
	dst = append(dst, c.name...)
	for i := range c.args {
		a := &c.args[i]
		dst = append(dst, ' ')
		dst = append(dst, a.Name...)
		dst = append(dst, '=')
		if withSeq && a.Name == SeqArg {
			dst = appendInt(dst, seq)
			withSeq = false
			continue
		}
		dst = a.Value.appendTo(dst)
	}
	if withSeq {
		dst = append(dst, ' ')
		dst = append(dst, SeqArg...)
		dst = append(dst, '=')
		dst = appendInt(dst, seq)
	}
	return append(dst, ';')
}

// String renders the command line as AppendTo does.
func (c *CmdLine) String() string {
	n := len(c.name) + 1
	for i := range c.args {
		n += len(c.args[i].Name) + 2 + c.args[i].Value.sizeHint()
	}
	return ownedString(c.AppendTo(make([]byte, 0, n)))
}

// ownedString returns b's bytes as a string without copying them. The
// caller hands b over: nothing may write to it afterwards.
func ownedString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Validate checks every argument value's structural invariants.
func (c *CmdLine) Validate() error {
	if !IsWord(c.name) {
		return fmt.Errorf("cmdlang: command name %q is not a word", c.name)
	}
	for _, a := range c.args {
		if err := a.Value.Validate(); err != nil {
			return fmt.Errorf("cmdlang: argument %q: %w", a.Name, err)
		}
	}
	return nil
}
