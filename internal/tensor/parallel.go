package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the goroutines any single ParallelFor may use. Zero
// means runtime.GOMAXPROCS(0).
var maxWorkers atomic.Int64

// SetMaxWorkers bounds the worker pool ParallelFor splits training work
// (per-sample convolutions and their backward, pooling, output-channel
// blocks of large matmuls) and the layered float forward across. The
// serving forwards on byte frames and bit planes never split: their
// callers are already concurrent sessions and node goroutines. n <= 0
// restores the default, GOMAXPROCS. The bound is process-wide: all
// models share the same cores, so they share the same cap.
func SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	maxWorkers.Store(int64(n))
}

// MaxWorkers returns the resolved worker bound (never less than 1) that
// training and the layered float forward split their work by.
func MaxWorkers() int {
	n := int(maxWorkers.Load())
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ParallelFor splits [0, n) into contiguous chunks of at least grain
// items and runs fn on each chunk, using up to MaxWorkers goroutines
// (one chunk runs on the calling goroutine); training and the layered
// float forward (nn.Conv2D, pooling, MatMul) use it. fn must be safe to
// call concurrently on disjoint ranges. With one worker, one chunk, or
// n <= 0 the call degenerates to fn(0, n) inline, so callers need no
// special small-case path.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	workers := MaxWorkers()
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	// Divide evenly across workers rather than handing out grain-sized
	// pieces: fewer goroutines, and chunk boundaries stay deterministic.
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	if per > n {
		per = n
	}
	fn(0, per)
	wg.Wait()
}
