// Package cluster is the distributed runtime that deploys a trained DDNN
// over real (or simulated) network links: device nodes run their DNN
// section next to the sensor, a gateway performs local aggregation and the
// entropy-thresholded exit decision, an optional edge node runs the middle
// tier of a three-tier hierarchy (Fig. 2 configs d/e), and a cloud node
// runs the upper NN layers for samples that miss every earlier exit
// (§III-D inference procedure). Exit stages form a first-class Pipeline:
// the gateway evaluates the first stage locally and relays the remaining
// thresholds up the chain — local → edge → cloud — with each tier
// answering the samples it is confident about and escalating only the
// hard ones' feature maps. The runtime degrades gracefully when devices
// fail (§IV-G): the gateway masks out unresponsive devices and
// aggregation proceeds with the rest; when the cloud is unreachable the
// edge answers escalated samples with its own exit as a best effort.
//
// Since the Engine redesign the runtime is fully concurrent: every
// inference session carries a wire-level session ID, connections multiplex
// frames from many sessions, and nodes process requests in parallel —
// model forward passes are read-only on a frozen model (core.Model.Freeze)
// so sessions never serialize on the network weights.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Feed copies a device's camera frame of a sample into dst, one
// [C, H, W] row of a capture batch: C·H·W bytes q (the model's input
// size), each standing for the value q/256 (dataset.FrameByte).
// Returning an error means the device has no frame for the sample.
// Feeds must be safe for concurrent use; DatasetFeed is.
type Feed func(sampleID uint64, dst []byte) error

// maxRetainedFeatures bounds the per-device cache of feature maps kept
// between a capture and a possible feature request: a ring of this many
// slots, each capture taking the next and evicting what it still holds.
// Sessions that exit locally never fetch their features, so they age
// out after this many later captures.
const maxRetainedFeatures = 256

// retainedSpares is how many cache entries NewDevice creates beyond the
// ring's: the entries feature requests hold between taking one out of
// the ring and dropping it.
const retainedSpares = 8

// Device is an end-device node: it owns one device section of the DDNN and
// serves capture and feature-upload requests from the gateway, over
// connections it accepts (Serve) or the one it dialed (Join). Requests
// are served concurrently; the model section is shared read-only.
type Device struct {
	server

	index int
	feed  Feed

	featMu   sync.Mutex // guards features/featNext only
	features [maxRetainedFeatures]featureSlot
	featNext int // the slot the next capture takes
	// retained holds the entries not in the ring, with their ID and
	// presence copies; NewDevice fills it, so the cache never allocates.
	retained freeList[retainedFeature]

	// leaving ends on Drain or Close: a joined device says goodbye and
	// stops re-joining (Join).
	leaving context.Context
	leave   context.CancelFunc
}

// NewDevice constructs a device node for device `index` of the model,
// reading frames from feed. modelVersion is the version the node's
// registry holds the model under — a model file's stamp; zero means 1.
func NewDevice(model *core.Model, modelVersion uint64, index int, feed Feed, logger *slog.Logger) *Device {
	d := &Device{index: index, feed: feed}
	for i := range d.features {
		d.features[i].rf = newRetainedFeature()
	}
	for range retainedSpares {
		d.retained.put(newRetainedFeature())
	}
	d.init(fmt.Sprintf("device-%d", index), model, modelVersion, logger, d.frame, d.run)
	d.leaving, d.leave = context.WithCancel(context.Background())
	d.onClose = d.leave
	return d
}

// DatasetFeed builds a Feed serving one device's frames from a
// dataset: its views as bytes (dataset.Frames, taken once here), copied
// from there. The returned feed is safe for concurrent sessions.
func DatasetFeed(ds *dataset.Dataset, device int) Feed {
	frames := ds.Frames(device)
	return func(sampleID uint64, dst []byte) error {
		idx := int(sampleID)
		if idx < 0 || idx >= ds.Len() {
			return fmt.Errorf("cluster: sample %d out of range [0,%d)", idx, ds.Len())
		}
		return copyFrame(dst, frames[idx*dataset.ImageSize:(idx+1)*dataset.ImageSize])
	}
}

// copyFrame copies one camera frame into a capture row of the same size.
func copyFrame(dst, frame []byte) error {
	if len(frame) != len(dst) {
		return fmt.Errorf("cluster: camera frame has %d bytes, model input has %d", len(frame), len(dst))
	}
	copy(dst, frame)
	return nil
}

// frame serves one gateway frame: every request runs on a worker of the
// connection (nodeConn.spawn), so one connection carries any number of
// concurrent sessions.
func (d *Device) frame(c *nodeConn, f *wire.Frame) {
	switch f.Msg.(type) {
	case *wire.CaptureBatch, *wire.FeatureBatchRequest:
		c.spawn(task{f: f})
	default:
		_ = c.send(&wire.Error{Session: sessionOf(f.Msg), Code: 400, Msg: fmt.Sprintf("unexpected %v", f.Msg.MsgType())})
		f.Release()
	}
}

// run serves one request frame on a worker.
func (d *Device) run(c *nodeConn, t task, sc *scratch) {
	defer t.f.Release()
	switch m := t.f.Msg.(type) {
	case *wire.CaptureBatch:
		if err := d.onCapture(c, m, sc); err != nil {
			d.logger.Debug("capture failed", "session", m.Session, "err", err)
		}
	case *wire.FeatureBatchRequest:
		if err := d.onFeatures(c, m, sc); err != nil {
			d.logger.Debug("feature upload failed", "session", m.Session, "err", err)
		}
	}
}

// retainedFeature caches one capture's binarized feature maps, bit-packed
// as they go on the wire, under its session ID: row i of bits (every row
// the same length, drawn from the node's pool) belongs to ids[i], and
// present (a wire.PackPresent bitmask) marks the rows the feed had a
// frame for — the others hold no sample. ids and present are the entry's
// own copies: the capture frame they came from is released.
type retainedFeature struct {
	bits    []byte
	ids     []uint64
	present []byte
}

// newRetainedFeature returns an empty entry with room for a full batch.
func newRetainedFeature() *retainedFeature {
	return &retainedFeature{ids: make([]uint64, 0, DefaultMaxBatch), present: make([]byte, 0, (DefaultMaxBatch+7)/8)}
}

// featureSlot is one slot of the feature cache's ring: rf is the slot's
// entry, which holds session's capture while rf.bits is non-nil.
type featureSlot struct {
	session uint64
	rf      *retainedFeature
}

// sample returns row i's packed feature map.
func (rf *retainedFeature) sample(i int) []byte {
	n := len(rf.bits) / len(rf.ids)
	return rf.bits[i*n : (i+1)*n]
}

// row returns the retained row of a sample, or -1. Requests list samples
// in capture order, so the scan starts where the previous lookup stopped.
// A nil entry (nothing retained) has no rows.
func (rf *retainedFeature) row(id uint64, from int) int {
	if rf == nil {
		return -1
	}
	for k := range rf.ids {
		i := (from + k) % len(rf.ids)
		if rf.ids[i] == id && wire.IsPresent(rf.present, i) {
			return i
		}
	}
	return -1
}

// retainFeature caches a capture's feature rows under its session in
// the ring's next slot, copying ids and present into the slot's entry;
// whatever the slot held is evicted, and so is an older capture of the
// same session.
func (d *Device) retainFeature(session uint64, bits []byte, ids []uint64, present []byte) {
	d.featMu.Lock()
	defer d.featMu.Unlock()
	for i := range d.features {
		if sl := &d.features[i]; sl.session == session && sl.rf.bits != nil {
			d.evict(sl.rf)
		}
	}
	sl := &d.features[d.featNext]
	d.featNext = (d.featNext + 1) % maxRetainedFeatures
	d.evict(sl.rf)
	sl.session = session
	sl.rf.bits = bits
	sl.rf.ids = append(sl.rf.ids[:0], ids...)
	sl.rf.present = append(sl.rf.present[:0], present...)
}

// evict returns a cached entry's bits to the pool, emptying it in place.
func (d *Device) evict(rf *retainedFeature) {
	d.pool.PutBytes(rf.bits)
	rf.bits = nil
}

// dropFeature retires an entry taken from the cache: its bits go back to
// the pool and the entry to the free list. A nil entry is a no-op.
func (d *Device) dropFeature(rf *retainedFeature) {
	if rf == nil {
		return
	}
	d.evict(rf)
	d.retained.put(rf)
}

// takeFeature removes and returns the session's retained capture,
// leaving a spare entry in its slot; it is nil when the capture was
// evicted or never happened — e.g. a second gateway attached to this
// device.
func (d *Device) takeFeature(session uint64) *retainedFeature {
	d.featMu.Lock()
	defer d.featMu.Unlock()
	for i := range d.features {
		if sl := &d.features[i]; sl.session == session && sl.rf.bits != nil {
			rf := sl.rf
			sl.rf = d.retained.get()
			return rf
		}
	}
	return nil
}

// onCapture stacks the session's sensor frames into one tensor, row i for
// sample i, and runs the device section once, so conv/GEMM setup
// amortizes across the whole session. Samples whose feed has no frame are
// marked absent in the reply's presence bitmask (their rows run as zeros
// and are never read); the rest get one summary row each, and the feature
// rows are retained for a possible FeatureBatchRequest.
func (d *Device) onCapture(c *nodeConn, m *wire.CaptureBatch, sc *scratch) error {
	model, _, err := d.reg.resolve(m.ModelVersion)
	if err != nil {
		return c.send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
	}
	cfg := model.Cfg
	n := len(m.SampleIDs)
	reply := &sc.summary
	*reply = wire.SummaryBatch{
		Session: m.Session, Device: uint16(d.index), Classes: uint16(cfg.Classes),
		Count: uint16(n), Present: resize(reply.Present, (n+7)/8), Probs: reply.Probs[:0],
	}
	clear(reply.Present)
	size := cfg.InputC * cfg.InputH * cfg.InputW
	stacked := d.pool.GetBytes(n * size)
	frames := 0
	for i, id := range m.SampleIDs {
		row := stacked[i*size : (i+1)*size]
		if err := d.feed(id, row); err != nil {
			clear(row) // absent frame (object not in view / feed error)
			continue
		}
		wire.MarkPresent(reply.Present, i)
		frames++
	}
	if frames == 0 {
		d.pool.PutBytes(stacked)
		return c.send(reply)
	}
	bits, exitVec := model.DeviceForwardPacked(d.index, stacked, n, d.pool)
	d.pool.PutBytes(stacked)
	d.retainFeature(m.Session, bits, m.SampleIDs, reply.Present)
	for i := range m.SampleIDs {
		if wire.IsPresent(reply.Present, i) {
			reply.Probs = append(reply.Probs, exitVec.Row(i)...)
		}
	}
	d.pool.Put(exitVec)
	return c.send(reply)
}

// onFeatures copies the retained packed feature rows of the requested
// samples — the session's subset that missed the local exit — into one
// FeatureBatch frame. Evicted (or never-captured) samples are recomputed
// from the feed, so eviction only costs time, not the session; a sample
// the feed cannot produce fails the whole fetch, and the gateway degrades
// by dropping this device from the session.
func (d *Device) onFeatures(c *nodeConn, m *wire.FeatureBatchRequest, sc *scratch) error {
	model, _, rerr := d.reg.resolve(m.ModelVersion)
	if rerr != nil {
		return c.send(&wire.Error{Session: m.Session, Code: 426, Msg: rerr.Error()})
	}
	// The retained maps were computed under the same session — and the
	// gateway stamps one concrete version per session — so they are
	// already the right version's feature maps.
	rf := d.takeFeature(m.Session)
	defer d.dropFeature(rf)
	cfg := model.Cfg
	f, h, w := cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW()
	reply := &sc.features
	bits := reply.Bits[:0]
	next := 0
	for _, id := range m.SampleIDs {
		if row := rf.row(id, next); row >= 0 {
			bits = append(bits, rf.sample(row)...)
			next = row + 1
			continue
		}
		x := d.pool.GetBytes(cfg.InputC * cfg.InputH * cfg.InputW)
		if err := d.feed(id, x); err != nil {
			d.pool.PutBytes(x)
			return c.send(&wire.Error{Session: m.Session, Code: 404, Msg: err.Error()})
		}
		fb, exitVec := model.DeviceForwardPacked(d.index, x, 1, d.pool)
		d.pool.PutBytes(x)
		bits = append(bits, fb...)
		d.pool.PutBytes(fb)
		d.pool.Put(exitVec)
	}
	*reply = wire.FeatureBatch{
		Session: m.Session,
		Device:  uint16(d.index),
		F:       uint16(f), H: uint16(h), W: uint16(w),
		Count: uint16(len(m.SampleIDs)),
		Bits:  bits,
	}
	return c.send(reply)
}
