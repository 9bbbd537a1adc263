package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// tinyConfig is the smallest valid DDNN — fast enough to rebuild inside
// a fuzz iteration.
func tinyConfig() core.Config {
	return core.Config{
		Devices: 2, Classes: 2,
		InputC: 1, InputH: 8, InputW: 8,
		DeviceFilters: 1, CloudFilters: 1,
		LocalAgg: agg.MP, CloudAgg: agg.CC,
		EdgeFilters: 1, EdgeAgg: agg.CC,
		Seed: 7,
	}
}

func tinyArtifact(tb testing.TB, modelVersion uint64) []byte {
	tb.Helper()
	m := core.MustNewModel(tinyConfig())
	var buf bytes.Buffer
	if err := SaveVersion(&buf, m, modelVersion); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestVersionStampRoundTrip(t *testing.T) {
	raw := tinyArtifact(t, 42)
	m, v, err := LoadVersioned(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("model version = %d, want 42", v)
	}
	if m.Cfg != tinyConfig() {
		t.Errorf("config round trip changed: %+v", m.Cfg)
	}
}

func TestSaveVersionRejectsZero(t *testing.T) {
	m := core.MustNewModel(tinyConfig())
	if err := SaveVersion(new(bytes.Buffer), m, 0); err == nil {
		t.Error("SaveVersion accepted the reserved version 0")
	}
}

func TestV1ArtifactLoadsAsVersionOne(t *testing.T) {
	// A version-1 artifact is a v2 artifact with the format version
	// rewritten to 1, the model-version stamp removed, and per-tensor
	// checksums stripped; synthesize one from the v2 writer's output.
	raw := tinyArtifact(t, 1)
	v1 := stripToV1(t, raw)
	m, v, err := LoadVersioned(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("v1 artifact loaded as model version %d, want 1", v)
	}
	if m.Cfg != tinyConfig() {
		t.Errorf("v1 config round trip changed: %+v", m.Cfg)
	}
}

// stripToV1 rewrites a v2 artifact into the legacy v1 layout.
func stripToV1(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	var out bytes.Buffer
	out.Write(raw[:8])
	binary.Write(&out, binary.LittleEndian, uint16(1))
	// Skip format version (2) + model version (8).
	p := 10 + 8
	const cfgBytes = 7*4 + 2 + 1 + 4 + 1 + 1 + 8
	out.Write(raw[p : p+cfgBytes+4]) // config + tensor count
	count := binary.LittleEndian.Uint32(raw[p+cfgBytes:])
	p += cfgBytes + 4
	for i := uint32(0); i < count; i++ {
		nameLen := int(binary.LittleEndian.Uint16(raw[p:]))
		rank := int(raw[p+2+nameLen])
		hdr := 2 + nameLen + 1 + 4*rank
		out.Write(raw[p : p+hdr])
		elems := 1
		for d := 0; d < rank; d++ {
			elems *= int(binary.LittleEndian.Uint32(raw[p+2+nameLen+1+4*d:]))
		}
		p += hdr + 4 // skip the checksum
		out.Write(raw[p : p+4*elems])
		p += 4 * elems
	}
	return out.Bytes()
}

func TestLoadRejectsFlippedBit(t *testing.T) {
	raw := tinyArtifact(t, 3)
	// Flip a bit in the last tensor's data; the checksum must catch it.
	mut := append([]byte(nil), raw...)
	mut[len(mut)-3] ^= 0x10
	if _, _, err := LoadVersioned(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptModel) {
		t.Errorf("err = %v, want ErrCorruptModel", err)
	}
}

func TestLoadRejectsHostileTensorHeader(t *testing.T) {
	raw := tinyArtifact(t, 3)
	// Find the first tensor record (right after the count) and inflate
	// its first dimension; Load must reject on the config mismatch
	// before allocating the declared size.
	p := 10 + 8 + (7*4 + 2 + 1 + 4 + 1 + 1 + 8) + 4
	nameLen := int(binary.LittleEndian.Uint16(raw[p:]))
	dimOff := p + 2 + nameLen + 1
	mut := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(mut[dimOff:], 1<<20)
	if _, _, err := LoadVersioned(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptModel) {
		t.Errorf("err = %v, want ErrCorruptModel", err)
	}
}

func TestLoadRejectsHostileConfig(t *testing.T) {
	raw := tinyArtifact(t, 3)
	// Config starts after magic+format version+model version with the
	// uint32 fields Devices, Classes, InputC, ….
	for _, tc := range []struct {
		name string
		off  int
		val  uint32
	}{
		{"devices", 18, 1 << 30},
		{"input channels", 26, tensor.FrameMaxChannels + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[tc.off:], tc.val)
			if _, _, err := LoadVersioned(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptModel) {
				t.Errorf("err = %v, want ErrCorruptModel", err)
			}
		})
	}
}

func TestSaveFileAtomicLeavesNoTemp(t *testing.T) {
	m := core.MustNewModel(tinyConfig())
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ddnn")
	if err := SaveFileAtomic(path, m, 5); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, v, err := LoadVersioned(f)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("model version = %d, want 5", v)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// FuzzModelDecode feeds arbitrary bytes to the artifact decoder. The
// decoder must never panic or allocate beyond the declared config's own
// footprint: it either returns a typed error or a model that survives a
// re-save/re-load round trip under the same version stamp.
func FuzzModelDecode(f *testing.F) {
	valid := tinyArtifact(f, 9)
	f.Add(valid)
	f.Add(stripToV1(f, tinyArtifact(f, 1)))
	f.Add(valid[:len(valid)/2])
	mut := append([]byte(nil), valid...)
	mut[len(mut)-1] ^= 0xFF
	f.Add(mut)
	hdr := append([]byte(nil), valid[:64]...)
	f.Add(hdr)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, v, err := LoadVersioned(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptModel) && !errors.Is(err, ErrVersionUnsupported) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := SaveVersion(&buf, m, v); err != nil {
			t.Fatalf("re-save of decoded model: %v", err)
		}
		again, v2, err := LoadVersioned(&buf)
		if err != nil {
			t.Fatalf("re-load of re-saved model: %v", err)
		}
		if v2 != v || again.Cfg != m.Cfg {
			t.Fatalf("round trip changed version %d→%d or config", v, v2)
		}
	})
}
