package cluster

import (
	"sync"

	"github.com/ddnn/ddnn-go/internal/poison"
)

// maxFree bounds a free list: objects released beyond it are left to the
// garbage collector.
const maxFree = 64

// freeList is a bounded stack of reusable objects — session state and
// cache entries — so a steady stream of sessions reuses what earlier ones
// released instead of allocating. Unlike a sync.Pool it is not drained by
// garbage collections. Built with the ddnnpoison tag, put overwrites the
// object and drops it instead (see internal/poison), so a use after
// release reads garbage.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get returns a released object, or a new zero one.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// put releases x: nothing may use it, or anything it holds, afterwards.
func (l *freeList[T]) put(x *T) {
	if poison.On {
		poison.Fill(x)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < maxFree {
		l.items = append(l.items, x)
	}
}

// resize returns s with length n, reusing its storage when it has room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
