package wire

import (
	"net"
	"os"
	"syscall"
)

// probeTwins asks for a twin's send buffer on a throwaway socket pair.
func probeTwins() bool {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return false
	}
	defer syscall.Close(fds[1])
	defer syscall.Close(fds[0])
	return twinAdmits(os.Getuid(), os.Getuid(), askSndBuf(fds[0]))
}

// askSndBuf asks for twinSndBuf of send buffer on socket s and returns
// the grant; a refused or failed request shows as a short one.
func askSndBuf(s int) int {
	syscall.SetsockoptInt(s, syscall.SOL_SOCKET, syscall.SO_SNDBUF, twinSndBuf) //nolint:errcheck
	granted, _ := syscall.GetsockoptInt(s, syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	return granted
}

// openTwin asks for twinSndBuf of send buffer on c and applies
// twinAdmits to the peer's credentials (SO_PEERCRED) and to what the
// kernel granted, and returns the peer's pid.
func openTwin(c *net.UnixConn) (pid int, ok bool) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, false
	}
	var cred *syscall.Ucred
	var granted int
	err = rc.Control(func(fd uintptr) {
		granted = askSndBuf(int(fd))
		cred, _ = syscall.GetsockoptUcred(int(fd), syscall.SOL_SOCKET, syscall.SO_PEERCRED)
	})
	if err != nil || cred == nil {
		return 0, false
	}
	return int(cred.Pid), twinAdmits(int(cred.Uid), os.Getuid(), granted)
}
