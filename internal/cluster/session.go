package cluster

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// maxOpenSessions bounds the escalation sessions one downstream
// connection may hold open — header received, device frames still
// outstanding. Each one pins the frames received so far, and a
// well-behaved peer writes a session's header and frames back to back, so
// it never has more than a handful open; a peer that sends headers and
// never the frames is refused past the cap instead of growing the table.
const maxOpenSessions = 64

// uploadSession accumulates one escalation session's per-device
// FeatureBatch frames until every device in the union of the per-sample
// masks has reported. It is shared by the cloud (CloudClassifyBatch) and
// the edge node (EdgeClassifyBatch). Sessions are recycled through the
// connection's sessionTable: the header's lists are copied into the
// session's own storage, and the device frames stay held until release.
type uploadSession struct {
	session      uint64
	modelVersion uint64
	// model is what the session's version pin resolved to: every frame
	// computes on these weights even if the node's active version flips
	// mid-session.
	model *core.Model
	// thresholds are the exit thresholds relayed with the header (edge
	// tier only); the first is the receiving tier's own.
	thresholds []float64
	ids        []uint64
	masks      []uint16
	// bits[d] is device d's FeatureBatch payload as decoded: the packed
	// feature maps of the samples its mask bit covers, in header order
	// (core.Model.CloudForwardBits). A device no sample covers has none.
	// The payloads alias frames, which the session holds until release.
	bits   [][]byte
	frames []*wire.Frame
	// union is the OR of the per-sample masks — the devices expected to
	// upload — and got the ones that have.
	union, got uint16
}

// checkHeader validates an escalation header against the model
// configuration and returns the union of its masks.
func checkHeader(model *core.Model, devices uint16, ids []uint64, masks []uint16) (uint16, error) {
	cfg := model.Cfg
	if int(devices) != cfg.Devices {
		return 0, fmt.Errorf("model has %d devices, session says %d", cfg.Devices, devices)
	}
	if len(ids) == 0 {
		return 0, fmt.Errorf("empty batch")
	}
	if len(ids) != len(masks) {
		return 0, fmt.Errorf("batch has %d samples but %d masks", len(ids), len(masks))
	}
	var union uint16
	for _, m := range masks {
		union |= m
	}
	if union == 0 {
		return 0, fmt.Errorf("empty device mask")
	}
	return union, nil
}

// putAll retires a per-device tensor set to the pool.
func putAll(pool *tensor.Pool, ts []*tensor.Tensor) {
	for _, t := range ts {
		pool.Put(t)
	}
}

// expectedCount returns how many of the session's samples device d covers.
func (s *uploadSession) expectedCount(d int) int {
	c := 0
	for _, m := range s.masks {
		if m&(1<<uint(d)) != 0 {
			c++
		}
	}
	return c
}

// add keeps one device's FeatureBatch payload, and holds its frame:
// sample k of the frame is the k-th sample the device covers, in header
// order. It rejects frames from devices outside the announced masks,
// duplicates, and count or shape mismatches against the header and the
// model configuration; a rejected frame is not held.
func (s *uploadSession) add(f *wire.Frame, fb *wire.FeatureBatch) error {
	d := int(fb.Device)
	if d < 0 || d >= len(s.bits) {
		return fmt.Errorf("feature batch from unknown device %d", d)
	}
	bit := uint16(1) << uint(d)
	if s.union&bit == 0 || s.got&bit != 0 {
		return fmt.Errorf("unexpected feature batch from device %d", d)
	}
	if want := s.expectedCount(d); int(fb.Count) != want {
		return fmt.Errorf("device %d sent %d feature maps, mask expects %d", d, fb.Count, want)
	}
	cfg := s.model.Cfg
	if int(fb.F) != cfg.DeviceFilters || int(fb.H) != cfg.FeatureH() || int(fb.W) != cfg.FeatureW() {
		return fmt.Errorf("device %d feature shape %d×%d×%d, model expects %d×%d×%d",
			d, fb.F, fb.H, fb.W, cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW())
	}
	s.bits[d] = fb.Bits
	s.frames = append(s.frames, f)
	s.got |= bit
	return nil
}

// complete reports whether every expected device upload has arrived.
func (s *uploadSession) complete() bool { return s.got == s.union }

// sessionTable is one downstream connection's open escalation sessions,
// keyed by wire session ID. Edge and cloud replicas receive the same
// header + FeatureBatch sequence, so they share the bookkeeping: version
// pinning, header validation and the maxOpenSessions bound.
type sessionTable struct {
	reg  *modelRegistry
	send func(wire.Message) error
	open map[uint64]*uploadSession // made by the first begin
	// free recycles finished sessions; release may run on a worker.
	free freeList[uploadSession]
}

// begin opens the session a classify header announces, copying its
// lists, and answers the peer with a typed, session-tagged wire.Error
// when it cannot: 426 for an unknown pinned version, 400 for a header the
// model rejects, 429 when the connection already holds maxOpenSessions
// incomplete sessions.
func (t *sessionTable) begin(session, modelVersion uint64, devices uint16, ids []uint64, masks []uint16, thresholds []float64) {
	model, _, err := t.reg.resolve(modelVersion)
	if err != nil {
		_ = t.send(&wire.Error{Session: session, Code: 426, Msg: err.Error()})
		return
	}
	if len(t.open) >= maxOpenSessions {
		_ = t.send(&wire.Error{Session: session, Code: 429, Msg: fmt.Sprintf("connection already holds %d incomplete sessions", maxOpenSessions)})
		return
	}
	union, err := checkHeader(model, devices, ids, masks)
	if err != nil {
		_ = t.send(&wire.Error{Session: session, Code: 400, Msg: err.Error()})
		return
	}
	if t.open == nil {
		t.open = make(map[uint64]*uploadSession)
	}
	up := t.free.get()
	up.session, up.modelVersion, up.model = session, modelVersion, model
	up.ids = append(up.ids[:0], ids...)
	up.masks = append(up.masks[:0], masks...)
	up.thresholds = append(up.thresholds[:0], thresholds...)
	up.bits = resize(up.bits, model.Cfg.Devices)
	clear(up.bits)
	up.union, up.got = union, 0
	if prev := t.open[session]; prev != nil {
		t.release(prev) // the peer restarted the session
	}
	t.open[session] = up
}

// add routes one FeatureBatch frame to its open session and returns the
// session once it is complete, removed from the table. A frame the
// session rejects drops the session and answers a 400. The frame is
// released unless the session holds it.
func (t *sessionTable) add(f *wire.Frame) *uploadSession {
	fb := f.Msg.(*wire.FeatureBatch)
	up, ok := t.open[fb.Session]
	if !ok {
		_ = t.send(&wire.Error{Session: fb.Session, Code: 400, Msg: fmt.Sprintf("feature batch for unknown session %d", fb.Session)})
		f.Release()
		return nil
	}
	if err := up.add(f, fb); err != nil {
		delete(t.open, fb.Session)
		_ = t.send(&wire.Error{Session: fb.Session, Code: 400, Msg: err.Error()})
		f.Release()
		t.release(up)
		return nil
	}
	if !up.complete() {
		return nil
	}
	delete(t.open, fb.Session)
	return up
}

// release ends a session: its frames are released and it is recycled.
func (t *sessionTable) release(up *uploadSession) {
	for i, f := range up.frames {
		f.Release()
		up.frames[i] = nil
	}
	up.frames = up.frames[:0]
	clear(up.bits)
	up.model = nil
	t.free.put(up)
}

// softmaxRows writes the softmax of logits into the worker's probs
// scratch and returns it, row-major.
func (sc *scratch) softmaxRows(logits *tensor.Tensor) []float32 {
	sc.probs = resize(sc.probs, logits.Size())
	nn.SoftmaxInto(sc.probs, logits)
	return sc.probs
}

// verdictRow assembles one sample's BatchVerdict from row k of softmax
// probabilities with the given class count — the shared tail of every
// tier's classify. The verdict's Probs alias the row, so the reply must
// go out before probs is reused.
func verdictRow(probs []float32, classes, k int, id uint64, exit wire.ExitPoint) wire.BatchVerdict {
	row := probs[k*classes : (k+1)*classes : (k+1)*classes]
	return wire.BatchVerdict{
		SampleID: id,
		Exit:     exit,
		Class:    uint16(core.Argmax(row)),
		Probs:    row,
	}
}

// checkVerdicts reports whether the verdicts of a relayed session's
// ResultBatch answer exactly ids, in order.
func checkVerdicts(verdicts []wire.BatchVerdict, ids []uint64) error {
	if len(verdicts) != len(ids) {
		return fmt.Errorf("%d verdicts for %d samples", len(verdicts), len(ids))
	}
	for k, v := range verdicts {
		if v.SampleID != ids[k] {
			return fmt.Errorf("verdict %d is for sample %d, want %d", k, v.SampleID, ids[k])
		}
	}
	return nil
}

// sessionOf extracts a message's session tag, or 0 for connection-scoped
// frames, so error replies to unexpected messages still reach the
// session's waiter instead of being dropped by the demultiplexer.
func sessionOf(m wire.Message) uint64 {
	if s, ok := m.(wire.Sessioned); ok {
		return s.SessionID()
	}
	return 0
}
