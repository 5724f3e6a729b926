package app

import (
	"context"

	"ctxproptest/daemon"
	"ctxproptest/wire"
)

// withStdContext receives a context.Context: plain variants drop it.
func withStdContext(ctx context.Context, c *wire.Client) {
	_, _ = c.Call("ping") // want `\(\*wire\.Client\)\.Call drops the in-scope context; use CallContext\(ctx, \.\.\.\)`
	_, _ = c.CallContext(ctx, "ping")
	_ = c.Ping() // no *Context sibling: nothing to propagate
}

// handler receives a *daemon.Ctx: the suggestion routes through
// TraceContext().
func handler(ctx *daemon.Ctx, p *daemon.Pool) error {
	if err := p.Send("asd", "register"); err != nil { // want `\(\*daemon\.Pool\)\.Send drops the in-scope context; use SendContext\(ctx\.TraceContext\(\), \.\.\.\)`
		return err
	}
	return p.SendContext(ctx.TraceContext(), "asd", "register")
}

// closure: a literal with no context parameter of its own still
// closes over the enclosing one.
func closure(ctx context.Context, p *daemon.Pool) func() error {
	return func() error {
		return p.Send("a", "b") // want `use SendContext\(ctx, \.\.\.\)`
	}
}

// ownScope: the literal's own context parameter is the one to pass.
func ownScope(outer context.Context, p *daemon.Pool) func(context.Context) error {
	return func(inner context.Context) error {
		return p.Send("a", "b") // want `use SendContext\(inner, \.\.\.\)`
	}
}

// noContext has nothing in scope; the plain variant is correct.
func noContext(c *wire.Client) {
	_, _ = c.Call("ping")
}

// blankCtx cannot reference its context parameter, so there is
// nothing to pass.
func blankCtx(_ *daemon.Ctx, c *wire.Client) {
	_, _ = c.Call("ping")
}
