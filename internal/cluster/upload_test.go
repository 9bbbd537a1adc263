package cluster

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// TestClassifyUploadFrameGrid: an upload of dataset views (on the frame
// grid) classifies exactly like the dataset sample, and a view holding
// a value between grid points, at 1 or NaN fails with ErrUploadOffGrid
// before any session starts.
func TestClassifyUploadFrameGrid(t *testing.T) {
	model, test := fixture(t)
	eng := startEngine(t, model, test, EngineConfig{Gateway: DefaultGatewayConfig()})
	const sample = 3
	views := func() []*tensor.Tensor {
		vs := make([]*tensor.Tensor, model.Cfg.Devices)
		for d := range vs {
			vs[d] = test.DeviceView(d, sample).Clone()
		}
		return vs
	}
	ctx := context.Background()
	want, err := eng.ClassifyTenantShed(ctx, sample, "", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ClassifyUpload(ctx, views(), ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != want.Class || got.Exit != want.Exit || !equalFloats(got.Probs, want.Probs) {
		t.Errorf("upload answered class %d exit %v %v, the dataset sample class %d exit %v %v", got.Class, got.Exit, got.Probs, want.Class, want.Exit, want.Probs)
	}
	for _, bad := range []float32{0.5 + 1.0/1024, 1, float32(math.NaN())} {
		vs := views()
		vs[1].Data()[17] = bad
		if _, err := eng.ClassifyUpload(ctx, vs, ShedNone); !errors.Is(err, ErrUploadOffGrid) {
			t.Errorf("upload holding %g: err = %v, want ErrUploadOffGrid", bad, err)
		}
	}
}

func equalFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
