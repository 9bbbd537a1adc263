package tensor

import (
	"syscall"
	"testing"
)

// guardedBytes returns n bytes of their own mapping that end just before
// a PROT_NONE page (after = false) or start just after one (after =
// true), so that a kernel reading one byte past or before them faults.
// The mapping is released when the test ends.
func guardedBytes(t testing.TB, n int, after bool) []byte {
	page := syscall.Getpagesize()
	pages := (n+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, pages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	guard, b := mem[len(mem)-page:], mem[len(mem)-page-n:len(mem)-page]
	if after {
		guard, b = mem[:page], mem[page:page+n]
	}
	if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return b[:n:n]
}
