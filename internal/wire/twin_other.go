//go:build !linux

package wire

import "net"

// Only Linux has abstract sockets and SO_PEERCRED: elsewhere, no twins.
func probeTwins() bool { return false }

func openTwin(*net.UnixConn) (int, bool) { return 0, false }
