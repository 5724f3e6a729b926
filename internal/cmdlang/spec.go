package cmdlang

import (
	"fmt"
	"sort"
	"strings"
)

// ArgSpec declares one argument of a command's semantics: its name,
// expected kind, and whether it must be present.
type ArgSpec struct {
	Name     string
	Kind     Kind
	Required bool
	Doc      string
}

// CommandSpec declares the semantics of one command understood by a
// service daemon: the command name, its argument specs, and whether
// arguments outside the declared set are tolerated.
type CommandSpec struct {
	Name       string
	Args       []ArgSpec
	Doc        string
	AllowExtra bool
}

// Arg returns the spec for the named argument, if declared.
func (s *CommandSpec) Arg(name string) (ArgSpec, bool) {
	for _, a := range s.Args {
		if a.Name == name {
			return a, true
		}
	}
	return ArgSpec{}, false
}

// SemanticError reports a command that is syntactically valid but
// violates the receiving daemon's command semantics.
type SemanticError struct {
	Command string
	Msg     string
}

func (e *SemanticError) Error() string {
	return fmt.Sprintf("cmdlang: semantic error in %q: %s", e.Command, e.Msg)
}

// Registry holds the command semantics of one service daemon. Each
// unique daemon implementation defines a set of command and argument
// semantics within the basic language structure; the registry is what
// the ACE Command Parser checks reconstructed commands against.
//
// A Registry is safe for concurrent reads after Declare calls finish.
type Registry struct {
	cmds map[string]*CommandSpec
}

// NewRegistry returns an empty semantics registry.
func NewRegistry() *Registry {
	return &Registry{cmds: make(map[string]*CommandSpec)}
}

// Declare adds a command spec to the registry, replacing any previous
// declaration of the same name. It returns the registry for chaining.
func (r *Registry) Declare(spec CommandSpec) *Registry {
	if !IsWord(spec.Name) {
		panic(fmt.Sprintf("cmdlang: declared command name %q is not a word", spec.Name))
	}
	cp := spec
	cp.Args = append([]ArgSpec(nil), spec.Args...)
	r.cmds[spec.Name] = &cp
	return r
}

// DeclareAll declares several specs at once.
func (r *Registry) DeclareAll(specs ...CommandSpec) *Registry {
	for _, s := range specs {
		r.Declare(s)
	}
	return r
}

// Merge copies every declaration from o into r (o wins on conflict),
// supporting the daemon hierarchy: child daemons inherit the parent's
// command semantics and extend them.
func (r *Registry) Merge(o *Registry) *Registry {
	for name, spec := range o.cmds {
		r.cmds[name] = spec
	}
	return r
}

// Clone returns a copy of the registry that can be extended without
// affecting the original — the mechanism behind hierarchy inheritance.
func (r *Registry) Clone() *Registry {
	n := NewRegistry()
	n.Merge(r)
	return n
}

// Lookup returns the spec for the named command.
func (r *Registry) Lookup(name string) (*CommandSpec, bool) {
	s, ok := r.cmds[name]
	return s, ok
}

// Names returns the declared command names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.cmds))
	for name := range r.cmds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of declared commands.
func (r *Registry) Len() int { return len(r.cmds) }

// Validate checks a command line against the registry: the command
// must be declared and satisfy its spec (CommandSpec.Validate).
func (r *Registry) Validate(c *CmdLine) error {
	spec, ok := r.cmds[c.Name()]
	if !ok {
		return &SemanticError{Command: c.Name(), Msg: "unknown command"}
	}
	return spec.Validate(c)
}

// Validate checks a command line's arguments against the spec:
// required arguments present, kinds compatible, and (unless
// AllowExtra) no undeclared arguments supplied. The command name is
// the caller's lookup key and is not compared.
//
// Kind compatibility is pragmatic, matching the loosely typed textual
// wire form: an int argument satisfies a float spec; a word satisfies
// a string spec and vice versa when the content is a legal word;
// numeric words satisfy numeric specs; words and strings satisfy a
// bytes spec.
func (spec *CommandSpec) Validate(c *CmdLine) error {
	for _, as := range spec.Args {
		v, present := c.Get(as.Name)
		if !present {
			if as.Required {
				return &SemanticError{Command: c.Name(), Msg: fmt.Sprintf("missing required argument %q", as.Name)}
			}
			continue
		}
		if !kindCompatible(as.Kind, v) {
			return &SemanticError{
				Command: c.Name(),
				Msg:     fmt.Sprintf("argument %q: got %v, want %v", as.Name, v.Kind(), as.Kind),
			}
		}
	}
	if !spec.AllowExtra {
		for _, a := range c.Args() {
			if _, declared := spec.Arg(a.Name); !declared {
				return &SemanticError{Command: c.Name(), Msg: fmt.Sprintf("undeclared argument %q", a.Name)}
			}
		}
	}
	return nil
}

// Parse parses the string and validates the result against the
// registry, mirroring the receiving daemon's behaviour in Fig 5.
func (r *Registry) Parse(s string) (*CmdLine, error) {
	c, err := Parse(s)
	if err != nil {
		return nil, err
	}
	if err := r.Validate(c); err != nil {
		return nil, err
	}
	return c, nil
}

func kindCompatible(want Kind, v Value) bool {
	got := v.Kind()
	if want == got {
		return true
	}
	switch want {
	case KindFloat:
		if got == KindInt {
			return true
		}
		_, ok := v.AsFloat()
		return ok && (got == KindWord || got == KindString)
	case KindInt:
		_, ok := v.AsInt()
		return ok && (got == KindWord || got == KindString)
	case KindString:
		return got == KindWord || got == KindInt || got == KindFloat
	case KindWord:
		return got == KindString && IsWord(v.AsString())
	case KindBytes:
		// Text is bytes too: a hand-typed or text-only sender may write
		// a bytes slot as a word or a string.
		return got == KindString || got == KindWord
	case KindVector:
		return false
	case KindArray:
		return false
	}
	return false
}

// Describe renders a human-readable summary of the registry, used by
// the built-in "commands" command and acectl.
func (r *Registry) Describe() string {
	var b strings.Builder
	for _, name := range r.Names() {
		spec := r.cmds[name]
		b.WriteString(name)
		for _, a := range spec.Args {
			b.WriteByte(' ')
			if !a.Required {
				b.WriteByte('[')
			}
			b.WriteString(a.Name)
			b.WriteByte(':')
			b.WriteString(a.Kind.String())
			if !a.Required {
				b.WriteByte(']')
			}
		}
		if spec.Doc != "" {
			b.WriteString("  — ")
			b.WriteString(spec.Doc)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
