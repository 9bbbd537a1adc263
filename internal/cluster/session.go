package cluster

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// maxOpenSessions bounds the escalation sessions one downstream
// connection may hold open — header received, device frames still
// outstanding. Each one pins [N, F, H, W] × devices pooled tensors, and a
// well-behaved peer writes a session's header and frames back to back, so
// it never has more than a handful open; a peer that sends headers and
// never the frames is refused past the cap instead of growing the table.
const maxOpenSessions = 64

// uploadSession accumulates one escalation session's per-device
// FeatureBatch frames until every device in the union of the per-sample
// masks has reported. It is shared by the cloud (CloudClassifyBatch) and
// the edge node (EdgeClassifyBatch).
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
	// feats[d] is the [N, F, H, W] feature tensor of device d; rows of
	// samples the device does not cover stay zero, exactly like the
	// absent-device placeholders of masked training (§IV-G).
	feats []*tensor.Tensor
	// union is the OR of the per-sample masks — the devices expected to
	// upload — and got the ones that have.
	union, got uint16
}

// newUploadSession validates an escalation header against the model
// configuration and draws the per-device tensors from pool (nil pool
// allocates); release returns them.
func newUploadSession(model *core.Model, devices uint16, ids []uint64, masks []uint16, pool *tensor.Pool) (*uploadSession, error) {
	cfg := model.Cfg
	if int(devices) != cfg.Devices {
		return nil, fmt.Errorf("model has %d devices, session says %d", cfg.Devices, devices)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("empty batch")
	}
	if len(ids) != len(masks) {
		return nil, fmt.Errorf("batch has %d samples but %d masks", len(ids), len(masks))
	}
	s := &uploadSession{model: model, ids: ids, masks: masks}
	for _, m := range masks {
		s.union |= m
	}
	if s.union == 0 {
		return nil, fmt.Errorf("empty device mask")
	}
	fh, fw := cfg.FeatureH(), cfg.FeatureW()
	s.feats = make([]*tensor.Tensor, cfg.Devices)
	for d := range s.feats {
		s.feats[d] = pool.Get(len(ids), cfg.DeviceFilters, fh, fw)
	}
	return s, nil
}

// release returns the session's tensors to the pool.
func (s *uploadSession) release(pool *tensor.Pool) { putAll(pool, s.feats) }

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

// add unpacks one device's FeatureBatch into the session: sample k of the
// frame fills the k-th row the device covers, in header order. It rejects
// frames from devices outside the announced masks, duplicates, and count
// or shape mismatches against the header and the model configuration.
func (s *uploadSession) add(fb *wire.FeatureBatch) error {
	d := int(fb.Device)
	if d < 0 || d >= len(s.feats) {
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
	k := 0
	for i, mask := range s.masks {
		if mask&bit == 0 {
			continue
		}
		if err := s.model.UnpackFeatureInto(s.feats[d], i, fb.Sample(k)); err != nil {
			return fmt.Errorf("unpack device %d sample %d: %w", d, i, err)
		}
		k++
	}
	s.got |= bit
	return nil
}

// complete reports whether every expected device upload has arrived.
func (s *uploadSession) complete() bool { return s.got == s.union }

// sessionTable is one downstream connection's open escalation sessions,
// keyed by wire session ID. Edge and cloud replicas receive the same
// header + FeatureBatch sequence, so they share the bookkeeping: version
// pinning, header validation, the maxOpenSessions bound and returning a
// dropped session's tensors to the pool.
type sessionTable struct {
	reg  *modelRegistry
	pool *tensor.Pool
	send func(wire.Message) error
	open map[uint64]*uploadSession // made by the first begin
}

// begin opens the session a classify header announces, answering the
// peer with a typed, session-tagged wire.Error when it cannot: 426 for
// an unknown pinned version, 400 for a header the model rejects, 429
// when the connection already holds maxOpenSessions incomplete sessions.
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
	up, err := newUploadSession(model, devices, ids, masks, t.pool)
	if err != nil {
		_ = t.send(&wire.Error{Session: session, Code: 400, Msg: err.Error()})
		return
	}
	if prev := t.open[session]; prev != nil {
		prev.release(t.pool) // the peer restarted the session
	}
	if t.open == nil {
		t.open = make(map[uint64]*uploadSession)
	}
	up.session, up.modelVersion, up.thresholds = session, modelVersion, thresholds
	t.open[session] = up
}

// add routes one FeatureBatch to its open session and returns the
// session once it is complete — removed from the table, tensors now owned
// by the caller. A frame the session rejects drops the session (tensors
// back to the pool) and answers a 400.
func (t *sessionTable) add(fb *wire.FeatureBatch) *uploadSession {
	up, ok := t.open[fb.Session]
	if !ok {
		_ = t.send(&wire.Error{Session: fb.Session, Code: 400, Msg: fmt.Sprintf("feature batch for unknown session %d", fb.Session)})
		return nil
	}
	if err := up.add(fb); err != nil {
		delete(t.open, fb.Session)
		up.release(t.pool)
		_ = t.send(&wire.Error{Session: fb.Session, Code: 400, Msg: err.Error()})
		return nil
	}
	if !up.complete() {
		return nil
	}
	delete(t.open, fb.Session)
	return up
}

// release returns every still-open session's tensors to the pool; the
// frame loop calls it when the connection closes.
func (t *sessionTable) release() {
	for id, up := range t.open {
		up.release(t.pool)
		delete(t.open, id)
	}
}

// selectGroup gathers a mask group's batch rows from each per-device
// tensor into pool-backed sub-batches. When the group spans the whole
// batch — the common all-devices-up case — the original tensors are
// returned as-is, skipping the copy; releaseGroup knows the difference.
func selectGroup(feats []*tensor.Tensor, indices []int, total int, pool *tensor.Pool) []*tensor.Tensor {
	if len(indices) == total {
		return feats
	}
	sel := make([]*tensor.Tensor, len(feats))
	for d, f := range feats {
		shape := append([]int{len(indices)}, f.Shape()[1:]...)
		t := pool.GetDirty(shape...)
		f.SelectSamplesInto(t, indices)
		sel[d] = t
	}
	return sel
}

// releaseGroup returns selectGroup's copies to the pool; a group that
// reused the originals is left alone (the session's release owns them).
func releaseGroup(orig, sel []*tensor.Tensor, pool *tensor.Pool) {
	if len(sel) > 0 && len(orig) > 0 && sel[0] == orig[0] {
		return
	}
	putAll(pool, sel)
}

// maskGroup is a batch subset whose samples share one device-presence
// mask, so a single masked forward pass covers the whole group and stays
// bit-identical to running each sample alone.
type maskGroup struct {
	mask uint16
	// indices are batch positions, in batch order.
	indices []int
	// present is the mask expanded to per-device booleans.
	present []bool
}

// groupByMask splits batch positions by device-presence mask. Group order
// is first-appearance order; the common all-devices-up case yields a
// single group spanning the whole batch.
func groupByMask(masks []uint16, devices int) []maskGroup {
	var groups []maskGroup
	at := make(map[uint16]int)
	for i, m := range masks {
		gi, ok := at[m]
		if !ok {
			present := make([]bool, devices)
			for d := 0; d < devices; d++ {
				present[d] = m&(1<<uint(d)) != 0
			}
			gi = len(groups)
			at[m] = gi
			groups = append(groups, maskGroup{mask: m, present: present})
		}
		groups[gi].indices = append(groups[gi].indices, i)
	}
	return groups
}

// verdictRow assembles one sample's BatchVerdict from row k of a softmax
// probability tensor — the shared tail of every tier's classify. The
// verdict's Probs alias the row, so probs must be private to the session
// (nn.Softmax returns a fresh tensor) and never pooled.
func verdictRow(probs *tensor.Tensor, k int, id uint64, exit wire.ExitPoint) wire.BatchVerdict {
	row := probs.Row(k)
	return wire.BatchVerdict{
		SampleID: id,
		Exit:     exit,
		Class:    uint16(probs.ArgMaxRow(k)),
		Probs:    row[:len(row):len(row)],
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
