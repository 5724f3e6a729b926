package wire

import (
	"net"
	"os"
	"syscall"
)

// Linux has abstract sockets and SO_PEERCRED: loopback ports have twins.
const twins = true

// openTwin applies twinAdmits to the peer's credentials (SO_PEERCRED)
// and returns the peer's pid.
func openTwin(c *net.UnixConn) (pid int, ok bool) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, false
	}
	var cred *syscall.Ucred
	err = rc.Control(func(fd uintptr) {
		cred, _ = syscall.GetsockoptUcred(int(fd), syscall.SOL_SOCKET, syscall.SO_PEERCRED)
	})
	if err != nil || cred == nil {
		return 0, false
	}
	return int(cred.Pid), twinAdmits(int(cred.Uid), os.Getuid())
}
