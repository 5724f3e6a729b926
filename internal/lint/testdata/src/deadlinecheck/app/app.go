// Package app exercises the deadline-propagation entry kinds: exported
// context-taking API, verb handlers, and (in ../demo) a main function.
package app

import (
	"context"
	"time"

	"deadlinetest/cmdlang"
	"deadlinetest/daemon"
	"deadlinetest/wire"
)

// Exposed reaches the frame write through a helper with no deadline
// anywhere on the path; the finding lands on the body's opening brace.
func Exposed(ctx context.Context, c *wire.Conn) error { // want `exported app.Exposed can reach a blocking call with no deadline on the path: app.Exposed → app.helper → wire.WriteFrame`
	return helper(c)
}

func helper(c *wire.Conn) error {
	return wire.WriteFrame(c, nil)
}

// Guarded installs a deadline before descending: its exposure is
// capped, so nothing is reported.
func Guarded(ctx context.Context, c *wire.Conn) error {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	_ = ctx
	return helper(c)
}

// unexportedReach is exposed but not an entry point: installing the
// deadline is its callers' responsibility (Guarded does).
func unexportedReach(c *wire.Conn) error {
	return helper(c)
}

// Install registers a verb whose handler blocks on a frame read with
// no deadline: handlers are entry points.
func Install(d *daemon.Daemon, c *wire.Conn) {
	d.Handle(cmdlang.CommandSpec{Name: "pull"},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { // want `handler for verb "pull" in func literal in app.Install can reach a blocking call`
			_, err := wire.ReadFrame(c)
			return nil, err
		})

	d.Handle(cmdlang.CommandSpec{Name: "poke"},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			_, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_, err := wire.ReadFrame(c)
			return nil, err
		})
}

// Reply writes a return command the way the daemon shell does, with
// no write deadline: the stalled-reader wedge. The sink is the frame
// writer behind WriteReply.
func Reply(ctx context.Context, c *wire.Conn) error { // want `exported app.Reply can reach a blocking call with no deadline on the path: app.Reply → wire.WriteReply → wire.writeFrame`
	_, err := wire.WriteReply(c, nil, 1)
	return err
}

// Serve reads a connection's frames through its buffered Reader; the
// method is as much a sink as the function.
func Serve(ctx context.Context, c *wire.Conn) error { // want `exported app.Serve can reach a blocking call with no deadline on the path: app.Serve → \(\*wire.Reader\).ReadFrame`
	_, err := wire.NewReader(c).ReadFrame()
	return err
}

// StartReader spawns the blocking read loop: a go edge never blocks
// the spawner, so the exported entry is not exposed.
func StartReader(ctx context.Context, c *wire.Conn) {
	go func() {
		for {
			if _, err := wire.ReadFrame(c); err != nil {
				return
			}
		}
	}()
}
