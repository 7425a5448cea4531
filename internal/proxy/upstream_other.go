//go:build !unix

package proxy

// fdIdle cannot read a socket without blocking here, so every idle
// connection counts as used and none is reused: each exchange dials.
func fdIdle(uintptr) bool { return false }
