//go:build ignore

// Regenerates the checked-in FuzzDecode seed corpus from the current
// codec, so the seeds stay valid frames across protocol version bumps:
//
//	cd internal/wire && go run gen_corpus.go
//
// Run it after any layout or version change, and add an entry here for
// every new message type (see docs/WIRE.md, "Evolving the protocol"). CI
// runs it and fails when the checked-in corpus differs from its output.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/ddnn/ddnn-go/internal/wire"
)

func frame(m wire.Message) []byte {
	var buf bytes.Buffer
	if _, err := wire.Encode(&buf, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func main() {
	summary := frame(&wire.LocalSummary{Session: 17, SampleID: 42, Device: 1, Probs: []float32{0.1, 0.7, 0.2}})
	badtype := append([]byte(nil), summary...)
	badtype[3] = 200
	oversize := append([]byte(nil), frame(&wire.Heartbeat{NodeID: "edge-0", Seq: 12345})[:8]...)
	oversize[4], oversize[5], oversize[6], oversize[7] = 0xFF, 0xFF, 0xFF, 0x7F

	seeds := map[string][]byte{
		"seed-local-summary":           summary,
		"seed-local-summary-badtype":   badtype,
		"seed-local-summary-truncated": summary[:20],
		"seed-feature-req":             frame(&wire.FeatureRequest{Session: 3, SampleID: 99, ModelVersion: 2}),
		"seed-feature-upload":          frame(&wire.FeatureUpload{Session: 9, SampleID: 7, Device: 2, F: 4, H: 16, W: 16, Bits: make([]byte, 4*16*16/8)}),
		"seed-classify":                frame(&wire.ClassifyResult{Session: 1 << 40, SampleID: 5, Exit: wire.ExitCloud, Class: 2, Probs: []float32{0.05, 0.05, 0.9}}),
		"seed-heartbeat":               frame(&wire.Heartbeat{NodeID: "edge-0", Seq: 12345}),
		"seed-error":                   frame(&wire.Error{Session: 12, Code: 404, Msg: "no such sample"}),
		"seed-error-model":             frame(&wire.Error{Session: 12, Code: 426, Msg: "model version 9 not in registry"}),
		"seed-capture":                 frame(&wire.CaptureRequest{Session: 2, SampleID: 31337, ModelVersion: 1}),
		"seed-cloud-classify":          frame(&wire.CloudClassify{Session: 6, SampleID: 8, ModelVersion: 3, Devices: 6, Mask: 0b101101}),
		"seed-edge-classify":           frame(&wire.EdgeClassify{Session: 11, SampleID: 9, ModelVersion: 4, Devices: 6, Mask: 0b011011, Thresholds: []float64{0.8, 0.5}}),
		"seed-edge-feature":            frame(&wire.EdgeFeature{Session: 13, SampleID: 21, ModelVersion: 5, F: 8, H: 8, W: 8, Bits: make([]byte, 64)}),
		"seed-device-hello":            frame(&wire.DeviceHello{NodeID: "device-4", Slot: 4}),
		"seed-device-welcome":          frame(&wire.DeviceWelcome{Slot: 4, Devices: 6, ConfigVersion: 17}),
		"seed-device-goodbye":          frame(&wire.DeviceGoodbye{NodeID: "device-4", Slot: 4, Reason: "draining"}),
		"seed-empty":                   {},
		"seed-oversize-header":         oversize,
		// The serving path's frames use session IDs no gateway reaches in a
		// test run, so the chaos harness, which replays this corpus into
		// live nodes, never touches a real session's state.
		"seed-capture-batch":        frame(&wire.CaptureBatch{Session: 1<<40 + 14, ModelVersion: 2, SampleIDs: []uint64{3, 1, 4}}),
		"seed-summary-batch":        frame(&wire.SummaryBatch{Session: 1<<40 + 15, Device: 2, Classes: 3, Count: 3, Present: wire.PackPresent([]bool{true, false, true}), Probs: []float32{0.1, 0.7, 0.2, 0.9, 0.05, 0.05}}),
		"seed-feature-batch-req":    frame(&wire.FeatureBatchRequest{Session: 1<<40 + 16, ModelVersion: 2, SampleIDs: []uint64{7, 9}}),
		"seed-feature-batch":        frame(&wire.FeatureBatch{Session: 1<<40 + 17, Device: 1, F: 4, H: 16, W: 16, Count: 2, Bits: make([]byte, 256)}),
		"seed-cloud-classify-batch": frame(&wire.CloudClassifyBatch{Session: 1<<40 + 18, ModelVersion: 6, Devices: 6, SampleIDs: []uint64{5, 6}, Masks: []uint16{0b111111, 0b101101}}),
		"seed-edge-classify-batch":  frame(&wire.EdgeClassifyBatch{Session: 1<<40 + 19, ModelVersion: 7, Devices: 6, SampleIDs: []uint64{5}, Masks: []uint16{0b011011}, Thresholds: []float64{0.8, 0.5}}),
		"seed-edge-feature-batch":   frame(&wire.EdgeFeatureBatch{Session: 1<<40 + 20, ModelVersion: 8, F: 8, H: 8, W: 8, SampleIDs: []uint64{11, 12}, Bits: make([]byte, 128)}),
		"seed-result-batch":         frame(&wire.ResultBatch{Session: 1<<40 + 21, Verdicts: []wire.BatchVerdict{{SampleID: 5, Exit: wire.ExitEdge, Class: 1, Probs: []float32{0.1, 0.8, 0.1}}, {SampleID: 6, Exit: wire.ExitCloud, Class: 0, Probs: []float32{0.9, 0.05, 0.05}}}}),
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	// Drop seeds the generator no longer makes; inputs the fuzzer found
	// (named by hash, not "seed-") stay.
	stale, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		panic(err)
	}
	for _, path := range stale {
		if _, ok := seeds[filepath.Base(path)]; !ok {
			if err := os.Remove(path); err != nil {
				panic(err)
			}
			fmt.Printf("removed %s\n", filepath.Base(path))
		}
	}
	for name, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", name, len(data))
	}
}
