package media

import (
	"testing"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
)

func daemonConfigForTest(name string) daemon.Config {
	return daemon.Config{Name: name}
}

func poolForTest(t *testing.T) *daemon.Pool {
	t.Helper()
	p := daemon.NewPool(nil)
	t.Cleanup(p.Close)
	return p
}

func convertCmd(payload []byte, from, to string) *cmdlang.CmdLine {
	return cmdlang.New("convert").
		SetBytes("data", payload).
		SetWord("from", from).SetWord("to", to)
}

func capabilitiesCmd() *cmdlang.CmdLine { return cmdlang.New("capabilities") }
