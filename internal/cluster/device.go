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
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Feed supplies a device's sensor view for a sample ID as a [1, C, H, W]
// tensor. Returning an error means the device has no frame for the sample.
// Feeds must be safe for concurrent use; DatasetFeed is.
type Feed func(sampleID uint64) (*tensor.Tensor, error)

// maxRetainedFeatures bounds the per-device cache of feature maps kept
// between a capture and a possible feature request. Sessions that exit
// locally never fetch their features, so entries are evicted oldest-first
// once the cache is full.
const maxRetainedFeatures = 256

// Device is an end-device node: it owns one device section of the DDNN and
// serves capture and feature-upload requests from the gateway, over
// connections it accepts (Serve) or the one it dialed (Join). Requests
// are served concurrently; the model section is shared read-only.
type Device struct {
	server

	index int
	feed  Feed

	featMu    sync.Mutex // guards features/featOrder only
	features  map[uint64]retainedFeature
	featOrder []uint64 // insertion order for eviction

	// leaving ends on Drain or Close: a joined device says goodbye and
	// stops re-joining (Join).
	leaving context.Context
	leave   context.CancelFunc
}

// NewDevice constructs a device node for device `index` of the model,
// reading frames from feed.
func NewDevice(model *core.Model, index int, feed Feed, logger *slog.Logger) *Device {
	d := &Device{
		index:    index,
		feed:     feed,
		features: make(map[uint64]retainedFeature),
	}
	d.init(fmt.Sprintf("device-%d", index), model, logger, d.frame)
	d.leaving, d.leave = context.WithCancel(context.Background())
	d.onClose = d.leave
	return d
}

// DatasetFeed builds a Feed serving one device's views from a dataset.
// The returned feed is safe for concurrent sessions. Frames are views of
// the dataset's storage (no copy); consumers must treat them as
// read-only, which the inference path guarantees.
func DatasetFeed(ds *dataset.Dataset, device int) Feed {
	return func(sampleID uint64) (*tensor.Tensor, error) {
		idx := int(sampleID)
		if idx < 0 || idx >= ds.Len() {
			return nil, fmt.Errorf("cluster: sample %d out of range [0,%d)", idx, ds.Len())
		}
		return ds.DeviceView(device, idx), nil
	}
}

// frame serves one gateway frame: every request runs on its own
// goroutine, so one connection carries any number of concurrent sessions.
func (d *Device) frame(c *nodeConn, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.CaptureBatch:
		c.add()
		go func() {
			defer c.done()
			if err := d.onCapture(c, m); err != nil {
				d.logger.Debug("capture failed", "session", m.Session, "err", err)
			}
		}()
	case *wire.FeatureBatchRequest:
		c.add()
		go func() {
			defer c.done()
			if err := d.onFeatures(c, m); err != nil {
				d.logger.Debug("feature upload failed", "session", m.Session, "err", err)
			}
		}()
	default:
		_ = c.send(&wire.Error{Session: sessionOf(msg), Code: 400, Msg: fmt.Sprintf("unexpected %v", msg.MsgType())})
	}
}

// retainedFeature caches one capture's binarized feature maps, bit-packed
// as they go on the wire, under its session ID: row i of bits (every row
// the same length) belongs to ids[i], and present (a wire.PackPresent
// bitmask) marks the rows the feed had a frame for — the others hold no
// sample.
type retainedFeature struct {
	bits    []byte
	ids     []uint64
	present []byte
}

// sample returns row i's packed feature map.
func (rf retainedFeature) sample(i int) []byte {
	n := len(rf.bits) / len(rf.ids)
	return rf.bits[i*n : (i+1)*n]
}

// row returns the retained row of a sample, or -1. Requests list samples
// in capture order, so the scan starts where the previous lookup stopped.
func (rf retainedFeature) row(id uint64, from int) int {
	for k := range rf.ids {
		i := (from + k) % len(rf.ids)
		if rf.ids[i] == id && wire.IsPresent(rf.present, i) {
			return i
		}
	}
	return -1
}

func (d *Device) retainFeature(session uint64, rf retainedFeature) {
	d.featMu.Lock()
	defer d.featMu.Unlock()
	if prev, exists := d.features[session]; exists {
		d.pool.PutBytes(prev.bits)
	} else {
		d.featOrder = append(d.featOrder, session)
	}
	d.features[session] = rf
	for len(d.featOrder) > maxRetainedFeatures {
		oldest := d.featOrder[0]
		d.featOrder = d.featOrder[1:]
		if rf, ok := d.features[oldest]; ok {
			d.pool.PutBytes(rf.bits)
		}
		delete(d.features, oldest)
	}
}

// takeFeature removes and returns the session's retained capture; it is
// empty (no bits, no rows) when the capture was evicted or never
// happened — e.g. a second gateway attached to this device.
func (d *Device) takeFeature(session uint64) retainedFeature {
	d.featMu.Lock()
	defer d.featMu.Unlock()
	rf, ok := d.features[session]
	if !ok {
		return rf
	}
	delete(d.features, session)
	for i, s := range d.featOrder {
		if s == session {
			d.featOrder = append(d.featOrder[:i], d.featOrder[i+1:]...)
			break
		}
	}
	return rf
}

// onCapture stacks the session's sensor frames into one tensor, row i for
// sample i, and runs the device section once, so conv/GEMM setup
// amortizes across the whole session. Samples whose feed has no frame are
// marked absent in the reply's presence bitmask (their rows run as zeros
// and are never read); the rest get one summary row each, and the feature
// rows are retained for a possible FeatureBatchRequest.
func (d *Device) onCapture(c *nodeConn, m *wire.CaptureBatch) error {
	model, _, err := d.reg.resolve(m.ModelVersion)
	if err != nil {
		return c.send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
	}
	cfg := model.Cfg
	n := len(m.SampleIDs)
	reply := &wire.SummaryBatch{
		Session: m.Session, Device: uint16(d.index), Classes: uint16(cfg.Classes),
		Count: uint16(n), Present: make([]byte, (n+7)/8),
	}
	stacked := d.pool.GetDirty(n, cfg.InputC, cfg.InputH, cfg.InputW)
	frames := 0
	for i, id := range m.SampleIDs {
		row := stacked.Sample(i)
		x, err := d.feed(id)
		if err != nil {
			clear(row) // absent frame (object not in view / feed error)
			continue
		}
		if x.Size() != len(row) {
			panic(fmt.Sprintf("cluster: device %d: feed frame has %d values, model input has %d", d.index, x.Size(), len(row)))
		}
		copy(row, x.Data())
		wire.MarkPresent(reply.Present, i)
		frames++
	}
	if frames == 0 {
		d.pool.Put(stacked)
		return c.send(reply)
	}
	bits, exitVec := model.DeviceForwardPacked(d.index, stacked, d.pool)
	d.pool.Put(stacked)
	d.retainFeature(m.Session, retainedFeature{bits: bits, ids: m.SampleIDs, present: reply.Present})

	reply.Probs = make([]float32, 0, frames*cfg.Classes)
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
func (d *Device) onFeatures(c *nodeConn, m *wire.FeatureBatchRequest) error {
	model, _, rerr := d.reg.resolve(m.ModelVersion)
	if rerr != nil {
		return c.send(&wire.Error{Session: m.Session, Code: 426, Msg: rerr.Error()})
	}
	// The retained maps were computed under the same session — and the
	// gateway stamps one concrete version per session — so they are
	// already the right version's feature maps.
	rf := d.takeFeature(m.Session)
	defer d.pool.PutBytes(rf.bits)
	cfg := model.Cfg
	f, h, w := cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW()
	bits := make([]byte, 0, len(m.SampleIDs)*((f*h*w+7)/8))
	next := 0
	for _, id := range m.SampleIDs {
		if row := rf.row(id, next); row >= 0 {
			bits = append(bits, rf.sample(row)...)
			next = row + 1
			continue
		}
		x, err := d.feed(id)
		if err != nil {
			return c.send(&wire.Error{Session: m.Session, Code: 404, Msg: err.Error()})
		}
		fb, exitVec := model.DeviceForwardPacked(d.index, x, d.pool)
		bits = append(bits, fb...)
		d.pool.PutBytes(fb)
		d.pool.Put(exitVec)
	}
	return c.send(&wire.FeatureBatch{
		Session: m.Session,
		Device:  uint16(d.index),
		F:       uint16(f), H: uint16(h), W: uint16(w),
		Count: uint16(len(m.SampleIDs)),
		Bits:  bits,
	})
}
