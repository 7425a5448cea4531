//go:build unix

package proxy

import "syscall"

// fdIdle reports whether a read on the non-blocking socket fd finds
// nothing: no byte and no end of stream.
func fdIdle(fd uintptr) bool {
	var b [1]byte
	_, err := syscall.Read(int(fd), b[:])
	return err == syscall.EAGAIN
}
