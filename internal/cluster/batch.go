package cluster

import (
	"context"
	"sync"
	"time"
)

// DefaultMaxLinger is how long the collector holds a partial batch open
// waiting for more Classify calls before flushing it.
const DefaultMaxLinger = 2 * time.Millisecond

// DefaultMaxBatch is a sensible micro-batch cap for callers that enable
// batching without picking a size (the ddnn-serve -batch flag defaults
// to it). It is small enough that one batch's frames stay far under
// wire.MaxPayload while amortizing most of the per-session overhead.
const DefaultMaxBatch = 32

// BatchConfig tunes the engine's adaptive micro-batching: concurrent
// Classify calls coalesce into one multi-sample session per tier, so
// wire framing, im2col/conv dispatch and semaphore round trips amortize
// across the batch. Batching trades a bounded amount of added latency
// (at most DefaultMaxLinger on an idle engine) for substantially higher
// throughput under load; results are bit-identical to per-sample
// sessions.
type BatchConfig struct {
	// MaxBatch caps the samples coalesced into one session. 0 and 1
	// disable micro-batching; values above wire.MaxBatch (the largest
	// batch one wire frame can carry) are clamped to it.
	MaxBatch int
}

// batchOutcome is one caller's share of a flushed batch session.
type batchOutcome struct {
	res *Result
	err error
}

// batchItem is one queued Classify call.
type batchItem struct {
	id uint64
	ch chan batchOutcome
}

// laneKey identifies one coalescing lane: requests may only share a
// batch when they run the same exit pipeline, which is determined by
// the tenant (whose config picks the thresholds) and the shed level
// (which tightens them).
type laneKey struct {
	tenant string
	level  ShedLevel
}

// batchLane is one {tenant, shed level} pair's pending batch. Lanes
// exist because a coalesced session runs every sample over one exit
// pipeline: requests admitted at different shed levels — or for
// different tenants — must never share a batch, or a request would
// silently inherit another policy's pipeline.
type batchLane struct {
	key     laneKey
	pending []batchItem
	timer   *time.Timer
	// gen identifies the batch the armed timer belongs to; it advances
	// whenever the pending batch is taken, so a linger callback that
	// lost the race with a full-batch flush recognizes its batch is
	// gone and must not flush the successor early.
	gen uint64
}

// batchCollector coalesces concurrent Classify calls into multi-sample
// gateway sessions, one lane per {tenant, shed level}: a lane's batch
// flushes as soon as it reaches the engine's maxBatch samples, or
// DefaultMaxLinger after its first sample arrived, whichever comes
// first. Callers that cancel while waiting detach immediately (the batch
// still classifies their sample; the result is dropped).
type batchCollector struct {
	eng *Engine

	mu      sync.Mutex
	lanes   map[laneKey]*batchLane
	stopped bool
}

func newBatchCollector(e *Engine) *batchCollector {
	return &batchCollector{eng: e, lanes: make(map[laneKey]*batchLane)}
}

// classify queues the sample on the {tenant, shed level} lane's current
// batch and waits for its verdict. The context governs only this
// caller's wait: the coalesced session itself is bounded by the
// gateway's per-stage timeouts, so one impatient caller cannot cancel a
// batch other callers share.
func (c *batchCollector) classify(ctx context.Context, sampleID uint64, tenant string, level ShedLevel) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	key := laneKey{tenant: tenant, level: level}
	item := batchItem{id: sampleID, ch: make(chan batchOutcome, 1)}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	lane := c.lanes[key]
	if lane == nil {
		lane = &batchLane{key: key}
		c.lanes[key] = lane
	}
	lane.pending = append(lane.pending, item)
	if len(lane.pending) >= c.eng.maxBatch {
		batch := c.takeLocked(lane)
		c.mu.Unlock()
		c.flush(batch, key)
	} else {
		if lane.timer == nil {
			gen := lane.gen
			lane.timer = time.AfterFunc(DefaultMaxLinger, func() { c.flushAfterLinger(key, gen) })
		}
		c.mu.Unlock()
	}
	select {
	case out := <-item.ch:
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctxErr(ctx.Err())
	}
}

// takeLocked detaches the lane's pending batch and advances its
// generation; the caller must hold c.mu.
func (c *batchCollector) takeLocked(lane *batchLane) []batchItem {
	batch := lane.pending
	lane.pending = nil
	lane.gen++
	if lane.timer != nil {
		lane.timer.Stop()
		lane.timer = nil
	}
	return batch
}

// flushAfterLinger is the linger-timer callback for the batch of
// generation gen on one lane. If that batch was already flushed (full,
// or taken by stop) the callback is stale and must leave the successor
// batch — and its own fresh timer — alone.
func (c *batchCollector) flushAfterLinger(key laneKey, gen uint64) {
	c.mu.Lock()
	lane := c.lanes[key]
	if lane == nil || lane.gen != gen {
		c.mu.Unlock()
		return
	}
	batch := c.takeLocked(lane)
	c.mu.Unlock()
	c.flush(batch, key)
}

// flush launches one multi-sample session for the batch under its
// lane's tenant pipeline and shed level. The session is registered with
// the engine's WaitGroup before flush returns, so Engine.Close cannot
// complete while a flushed batch is starting.
func (c *batchCollector) flush(batch []batchItem, key laneKey) {
	if len(batch) == 0 {
		return
	}
	if err := c.eng.beginSession(); err != nil {
		for _, item := range batch {
			item.ch <- batchOutcome{err: err}
		}
		return
	}
	go func() {
		defer c.eng.endSession()
		ids := make([]uint64, len(batch))
		for i, item := range batch {
			ids[i] = item.id
		}
		results, err := c.eng.runBatch(context.Background(), ids, key.tenant, key.level)
		for i, item := range batch {
			out := batchOutcome{err: err}
			if i < len(results) && results[i] != nil {
				out = batchOutcome{res: results[i]}
			} else if out.err == nil {
				out.err = ErrNoSummaries
			}
			item.ch <- out
		}
	}()
}

// stop rejects new callers and flushes whatever is pending on every
// lane. It is called by Engine.Close before the close flag flips, so
// the final batches still run and queued callers get real results.
func (c *batchCollector) stop() {
	c.mu.Lock()
	c.stopped = true
	type takenBatch struct {
		items []batchItem
		key   laneKey
	}
	var taken []takenBatch
	for key, lane := range c.lanes {
		taken = append(taken, takenBatch{items: c.takeLocked(lane), key: key})
	}
	c.mu.Unlock()
	for _, t := range taken {
		c.flush(t.items, t.key)
	}
}
