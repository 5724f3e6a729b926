//go:build !linux

package wire

import "net"

// Only Linux has abstract sockets and SO_PEERCRED: elsewhere, no twins.
const twins = false

func openTwin(*net.UnixConn) (int, bool) { return 0, false }
