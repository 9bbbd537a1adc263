package tensor

import "sync"

// maxFreePerClass bounds how many retired tensors one size class keeps.
// Beyond it, Put drops the tensor for the garbage collector — the arena
// must never become an unbounded leak for bursty batch sizes.
const maxFreePerClass = 64

// Pool recycles tensor storage across inference calls: an arena of
// per-size free lists. Get returns a zero-filled tensor of the requested
// shape, reusing retired storage of the same element count when
// available, and Put retires a tensor for reuse.
//
// The free lists are deliberately not sync.Pool-backed: the garbage
// collector drains sync.Pools on every cycle, which turns "zero
// steady-state allocation" into periodic refill bursts. A bounded free
// list keeps the steady state genuinely allocation-free and caps the
// retained memory at maxFreePerClass tensors per size.
//
// A nil *Pool is valid and degrades to plain allocation, so code can be
// written against a pool unconditionally and run pool-less (e.g. during
// training, where tensors outlive the forward pass as cached
// activations).
//
// Rules for callers: only Put tensors whose storage nothing references
// anymore — in particular not tensors that still have live Reshape views
// — and never use a tensor after Put. All methods are safe for
// concurrent use; tensors obtained from a shared Pool are exclusively
// owned until Put back.
type Pool struct {
	// mu guards the class index; each class has its own lock so
	// concurrent sessions of one node contend only on same-sized
	// tensors, and only for a pointer swap.
	mu      sync.RWMutex
	classes map[int]*sizeClass
}

type sizeClass struct {
	mu    sync.Mutex
	free  []*Tensor
	bytes [][]byte // GetBytes/PutBytes buffers of the class's length
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

func (p *Pool) class(n int) *sizeClass {
	p.mu.RLock()
	sc := p.classes[n]
	p.mu.RUnlock()
	if sc != nil {
		return sc
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.classes == nil {
		p.classes = make(map[int]*sizeClass)
	}
	if sc = p.classes[n]; sc == nil {
		sc = &sizeClass{}
		p.classes[n] = sc
	}
	return sc
}

func (p *Pool) get(shape []int) *Tensor {
	n := checkShape(shape)
	sc := p.class(n)
	sc.mu.Lock()
	var t *Tensor
	if last := len(sc.free) - 1; last >= 0 {
		t = sc.free[last]
		sc.free[last] = nil
		sc.free = sc.free[:last]
	}
	sc.mu.Unlock()
	if t == nil {
		return New(shape...)
	}
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Get returns a zero-filled tensor of the given shape, reusing retired
// storage when a same-sized tensor is available. On a nil pool it simply
// allocates.
func (p *Pool) Get(shape ...int) *Tensor {
	if p == nil {
		return New(shape...)
	}
	t := p.get(shape)
	clear(t.data)
	return t
}

// GetDirty is Get without the zero fill, for destinations every element
// of which the caller overwrites (GEMM outputs, im2col scratch with
// padding cleared internally). The contents are unspecified.
func (p *Pool) GetDirty(shape ...int) *Tensor {
	if p == nil {
		return New(shape...)
	}
	return p.get(shape)
}

// Put retires a tensor for reuse by later Gets of the same element
// count. Put on a nil pool, or of a nil tensor, is a no-op.
func (p *Pool) Put(t *Tensor) {
	if p == nil || t == nil || len(t.data) == 0 {
		return
	}
	sc := p.class(len(t.data))
	sc.mu.Lock()
	if len(sc.free) < maxFreePerClass {
		sc.free = append(sc.free, t)
	}
	sc.mu.Unlock()
}

// GetBytes returns a byte buffer of length n with unspecified contents,
// reusing a retired one of the same length when available: the storage of
// bit-packed feature maps on the serving path. On a nil pool it simply
// allocates.
func (p *Pool) GetBytes(n int) []byte {
	if p == nil || n == 0 {
		return make([]byte, n)
	}
	sc := p.class(n)
	sc.mu.Lock()
	var b []byte
	if last := len(sc.bytes) - 1; last >= 0 {
		b = sc.bytes[last]
		sc.bytes[last] = nil
		sc.bytes = sc.bytes[:last]
	}
	sc.mu.Unlock()
	if b == nil {
		b = make([]byte, n)
	}
	return b
}

// PutBytes retires a byte buffer for reuse by later GetBytes of the same
// length. PutBytes on a nil pool, or of an empty buffer, is a no-op.
func (p *Pool) PutBytes(b []byte) {
	if p == nil || len(b) == 0 {
		return
	}
	sc := p.class(len(b))
	sc.mu.Lock()
	if len(sc.bytes) < maxFreePerClass {
		sc.bytes = append(sc.bytes, b)
	}
	sc.mu.Unlock()
}

// Retained reports how many retired tensors the pool holds per element
// count. After a forward on a fresh pool has returned everything it
// borrowed, it is the list of that forward's draws, which is how tests
// pin a kernel's scratch footprint.
func (p *Pool) Retained() map[int]int {
	out := make(map[int]int)
	if p == nil {
		return out
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	for n, sc := range p.classes {
		sc.mu.Lock()
		if len(sc.free) > 0 {
			out[n] = len(sc.free)
		}
		sc.mu.Unlock()
	}
	return out
}
