package cluster

import (
	"context"
	"fmt"
	"sync"

	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// uploadIDBase marks the sample-ID space reserved for caller-uploaded
// samples: dataset samples are small indices, uploads set the top bit.
// Devices route IDs at or above the base to the shared upload store
// instead of their dataset feed.
const uploadIDBase = uint64(1) << 63

// uploadStore holds caller-uploaded multi-view samples for the duration
// of their classification session. It is shared by every in-process
// device node of an Engine, which is what lets an HTTP front door accept a
// raw tensor body: the uploaded views are staged here under a fresh
// sample ID, the session runs the normal staged pipeline against that
// ID, and the entry is removed when the session settles.
type uploadStore struct {
	mu      sync.Mutex
	nextID  uint64
	samples map[uint64][]*tensor.Tensor
}

func newUploadStore() *uploadStore {
	return &uploadStore{samples: make(map[uint64][]*tensor.Tensor)}
}

// add stages one uploaded sample (one [1, C, H, W] view per device) and
// returns its session-scoped sample ID.
func (s *uploadStore) add(views []*tensor.Tensor) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := uploadIDBase | s.nextID
	s.nextID++
	s.samples[id] = views
	return id
}

// view returns one device's view of a staged upload.
func (s *uploadStore) view(device int, id uint64) (*tensor.Tensor, error) {
	s.mu.Lock()
	views := s.samples[id]
	s.mu.Unlock()
	if views == nil {
		return nil, fmt.Errorf("cluster: upload %d not staged", id)
	}
	if device < 0 || device >= len(views) {
		return nil, fmt.Errorf("cluster: upload %d has no view for device %d", id, device)
	}
	return views[device], nil
}

// remove drops a staged upload once its session settled.
func (s *uploadStore) remove(id uint64) {
	s.mu.Lock()
	delete(s.samples, id)
	s.mu.Unlock()
}

// uploadFeed routes upload-space sample IDs to the shared store and
// everything else to the device's base feed.
func uploadFeed(store *uploadStore, base Feed, device int) Feed {
	return func(sampleID uint64) (*tensor.Tensor, error) {
		if sampleID >= uploadIDBase {
			return store.view(device, sampleID)
		}
		return base(sampleID)
	}
}

// ClassifyUpload classifies one caller-supplied sample instead of a
// dataset index: views holds one [1, C, H, W] sensor view per device
// (dataset.ImageC × ImageH × ImageW). The sample is staged in the
// cluster's shared upload store under a fresh ID, classified by the
// normal staged session (including micro-batching and the shed level's
// pipeline), and unstaged when the session settles; the returned
// Result.SampleID is the transient upload ID. Only in-process engines
// (NewEngine) support uploads — an engine attached to remote nodes
// returns ErrUploadUnsupported, since its devices own their sensors.
func (e *Engine) ClassifyUpload(ctx context.Context, views []*tensor.Tensor, level ShedLevel) (*Result, error) {
	if e.uploads == nil {
		return nil, ErrUploadUnsupported
	}
	if len(views) != e.gw.model.Cfg.Devices {
		return nil, fmt.Errorf("cluster: upload has %d views, model has %d devices", len(views), e.gw.model.Cfg.Devices)
	}
	for d, v := range views {
		if v == nil || v.Dims() != 4 || v.Dim(0) != 1 || v.Dim(1) != dataset.ImageC || v.Dim(2) != dataset.ImageH || v.Dim(3) != dataset.ImageW {
			return nil, fmt.Errorf("cluster: upload view %d must be [1, %d, %d, %d]", d, dataset.ImageC, dataset.ImageH, dataset.ImageW)
		}
	}
	id := e.uploads.add(views)
	defer e.uploads.remove(id)
	return e.ClassifyTenantShed(ctx, id, "", level)
}
