package daemon

import (
	"strconv"
	"strings"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
)

// Built-in command names provided by every ACE daemon shell.
const (
	CmdPing               = "ping"
	CmdInfo               = "info"
	CmdCommands           = "commands"
	CmdStats              = "stats"
	CmdAddNotification    = "addNotification"
	CmdRemoveNotification = "removeNotification"
	CmdListNotifications  = "listNotifications"
	CmdTelemetry          = "telemetry"
)

func (d *Daemon) installBuiltins() {
	d.registry.DeclareAll(
		cmdlang.CommandSpec{Name: CmdPing, Doc: "liveness probe"},
		cmdlang.CommandSpec{Name: CmdInfo, Doc: "service identity and placement"},
		cmdlang.CommandSpec{Name: CmdCommands, Doc: "describe the command semantics"},
		cmdlang.CommandSpec{Name: CmdStats, Doc: "execution counters"},
		cmdlang.CommandSpec{
			Name: CmdAddNotification,
			Doc:  "register interest in a command's execution (§2.5)",
			Args: []cmdlang.ArgSpec{
				{Name: "cmd", Kind: cmdlang.KindWord, Required: true, Doc: "command to listen for"},
				{Name: "service", Kind: cmdlang.KindWord, Required: true, Doc: "service to notify"},
				{Name: "addr", Kind: cmdlang.KindString, Required: true, Doc: "host:port of the notified service"},
				{Name: "method", Kind: cmdlang.KindWord, Required: true, Doc: "command interface method to invoke"},
			},
		},
		cmdlang.CommandSpec{
			Name: CmdRemoveNotification,
			Args: []cmdlang.ArgSpec{
				{Name: "cmd", Kind: cmdlang.KindWord, Required: true},
				{Name: "service", Kind: cmdlang.KindWord, Required: true},
				{Name: "method", Kind: cmdlang.KindWord, Required: true},
			},
		},
		cmdlang.CommandSpec{
			Name: CmdListNotifications,
			Args: []cmdlang.ArgSpec{{Name: "cmd", Kind: cmdlang.KindWord}},
		},
		cmdlang.CommandSpec{
			Name: CmdTelemetry,
			Doc:  "introspect metrics and traces",
			Args: []cmdlang.ArgSpec{
				{Name: "op", Kind: cmdlang.KindWord, Required: true, Doc: "metrics | trace"},
				{Name: "id", Kind: cmdlang.KindString, Doc: "trace id (16 hex digits), for op=trace"},
			},
		},
	)

	d.bind(CmdPing, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		return cmdlang.OK().SetWord("service", wordOr(d.cfg.Name)), nil
	})
	d.bind(CmdInfo, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		return cmdlang.OK().
			SetWord("name", wordOr(d.cfg.Name)).
			SetString("class", d.cfg.Class).
			SetWord("room", wordOr(d.cfg.Room)).
			SetWord("host", wordOr(d.cfg.Host)).
			SetInt("port", int64(d.Port())).
			SetString("dataAddr", d.DataAddr()), nil
	})
	d.bind(CmdCommands, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		return cmdlang.OK().
			Set("names", cmdlang.WordVector(d.registry.Names()...)).
			SetString("describe", d.registry.Describe()), nil
	})
	d.bind(CmdStats, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		s := d.Stats()
		return cmdlang.OK().
			SetInt("connections", s.Connections).
			SetInt("ok", s.CommandsOK).
			SetInt("fail", s.CommandsFail).
			SetInt("denied", s.Denied).
			SetInt("notifications", s.Notifications).
			SetInt("data", s.DataPackets), nil
	})
	d.bind(CmdAddNotification, func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		d.notify.add(c.Str("cmd", ""), notifyTarget{
			Service: c.Str("service", ""),
			Addr:    c.Str("addr", ""),
			Method:  c.Str("method", ""),
		})
		return nil, nil
	})
	d.bind(CmdRemoveNotification, func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		removed := d.notify.remove(c.Str("cmd", ""), c.Str("service", ""), c.Str("method", ""))
		return cmdlang.OK().SetInt("removed", int64(removed)), nil
	})
	d.bind(CmdTelemetry, func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		switch op := c.Str("op", ""); op {
		case "metrics":
			return telemetry.EncodeSnapshot(d.tel.Snapshot(), cmdlang.OK()), nil
		case "trace":
			id, err := telemetry.ParseID(c.Str("id", ""))
			if err != nil {
				return cmdlang.Fail(cmdlang.CodeBadArgument, "bad trace id: "+err.Error()), nil
			}
			return telemetry.EncodeSpans(d.traces.Trace(id), cmdlang.OK()), nil
		default:
			return cmdlang.Fail(cmdlang.CodeBadArgument, "op must be metrics or trace, got "+strconv.Quote(op)), nil
		}
	})
	d.bind(CmdListNotifications, func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		targets := d.notify.list(c.Str("cmd", ""))
		descs := make([]string, len(targets))
		for i, t := range targets {
			descs[i] = t.Service + "@" + t.Addr + "#" + t.Method
		}
		return cmdlang.OK().Set("targets", cmdlang.StringVector(descs...)), nil
	})
}

// wordOr substitutes a safe placeholder for values that are not legal
// words so built-in replies always encode.
func wordOr(s string) string {
	if cmdlang.IsWord(s) {
		return s
	}
	if s == "" {
		return "unset"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
