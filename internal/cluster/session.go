package cluster

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// checkEscalation validates a classify header against the model it
// pinned: the hierarchy's device count, masks naming only its devices and
// covering at least one, and device feature maps of the model's shape.
// The wire codec has already matched the blocks' sizes to the masks and
// the shape, so a header that passes is safe to forward.
func checkEscalation(cfg core.Config, devices uint16, masks []uint16, f, h, w uint16) error {
	if int(devices) != cfg.Devices {
		return fmt.Errorf("model has %d devices, session says %d", cfg.Devices, devices)
	}
	if len(masks) == 0 {
		return fmt.Errorf("empty batch")
	}
	var union uint16
	for _, m := range masks {
		union |= m
	}
	if union == 0 {
		return fmt.Errorf("empty device mask")
	}
	if union>>devices != 0 {
		return fmt.Errorf("device mask %#x names a device past the %d of the hierarchy", union, devices)
	}
	if int(f) != cfg.DeviceFilters || int(h) != cfg.FeatureH() || int(w) != cfg.FeatureW() {
		return fmt.Errorf("device feature shape %d×%d×%d, model expects %d×%d×%d",
			f, h, w, cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW())
	}
	return nil
}

// escalation is a worker's entry to a classify header on either upstream
// tier: it resolves the model version the session pinned and validates the
// header against it (checkEscalation). It returns the model and the
// header's feature blocks with one entry per device, held in the worker's
// scratch; on failure it answers the session with a typed wire.Error — 426
// for an unknown version, 400 for a header the model refuses — and returns
// a nil model.
func (s *server) escalation(c *nodeConn, sc *scratch, session, version uint64, devices uint16, masks []uint16, f, h, w uint16, feats [][]byte) (*core.Model, [][]byte) {
	model, _, err := s.reg.resolve(version)
	code := uint16(426)
	if err == nil {
		code, err = 400, checkEscalation(model.Cfg, devices, masks, f, h, w)
	}
	if err != nil {
		_ = c.send(&wire.Error{Session: session, Code: code, Msg: err.Error()})
		return nil, nil
	}
	// The decoded blocks reach the highest device in the masks' union,
	// which checkEscalation bounded by the device count.
	sc.feats = resize(sc.feats, model.Cfg.Devices)
	clear(sc.feats[copy(sc.feats, feats):])
	return model, sc.feats
}

// putAll retires a per-device tensor set to the pool.
func putAll(pool *tensor.Pool, ts []*tensor.Tensor) {
	for _, t := range ts {
		pool.Put(t)
	}
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
