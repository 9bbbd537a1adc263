//go:build !linux

package tensor

import "testing"

// guardedBytes returns n bytes; without a PROT_NONE neighbour here, a
// read outside them goes unnoticed.
func guardedBytes(t testing.TB, n int, after bool) []byte { return make([]byte, n) }
