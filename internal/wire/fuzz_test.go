package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// encodeFrame is a test helper returning the full wire frame of m.
func encodeFrame(tb testing.TB, m Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := Encode(&buf, m); err != nil {
		tb.Fatalf("encode seed %v: %v", m.MsgType(), err)
	}
	return buf.Bytes()
}

// seedMessages covers every message type of the protocol, so the fuzz
// corpus starts from one valid frame per decoder path.
func seedMessages() []Message {
	return []Message{
		&LocalSummary{Session: 17, SampleID: 42, Device: 1, Probs: []float32{0.1, 0.7, 0.2}},
		&FeatureRequest{Session: 3, SampleID: 99, ModelVersion: 2},
		&FeatureUpload{Session: 9, SampleID: 7, Device: 2, F: 4, H: 16, W: 16, Bits: make([]byte, 4*16*16/8)},
		&ClassifyResult{Session: 1 << 40, SampleID: 5, Exit: ExitCloud, Class: 2, Probs: []float32{0.05, 0.05, 0.9}},
		&Heartbeat{NodeID: "edge-0", Seq: 12345},
		&Error{Session: 12, Code: 404, Msg: "no such sample"},
		&CaptureRequest{Session: 2, SampleID: 31337, ModelVersion: 1},
		&CloudClassify{Session: 6, SampleID: 8, ModelVersion: 3, Devices: 6, Mask: 0b101101},
		&EdgeClassify{Session: 11, SampleID: 9, ModelVersion: 4, Devices: 6, Mask: 0b011011, Thresholds: []float64{0.8, 0.5}},
		&EdgeFeature{Session: 13, SampleID: 21, ModelVersion: 5, F: 8, H: 8, W: 8, Bits: make([]byte, 64)},
		&CaptureBatch{Session: 14, ModelVersion: 2, SampleIDs: []uint64{3, 1, 4}},
		&SummaryBatch{Session: 15, Device: 2, Classes: 3, Count: 3,
			Present: PackPresent([]bool{true, false, true}),
			Probs:   []float32{0.1, 0.7, 0.2, 0.9, 0.05, 0.05}},
		&FeatureBatchRequest{Session: 16, ModelVersion: 2, SampleIDs: []uint64{7, 9}},
		&FeatureBatch{Session: 17, Device: 1, F: 4, H: 16, W: 16, Count: 2, Bits: make([]byte, 256)},
		&CloudClassifyBatch{Session: 18, ModelVersion: 6, Devices: 6, SampleIDs: []uint64{5, 6}, Masks: []uint16{0b111111, 0b101101},
			F: 1, H: 2, W: 8, Feats: deviceBlocks([]uint16{0b111111, 0b101101}, 2)},
		&EdgeClassifyBatch{Session: 19, ModelVersion: 7, Devices: 6, SampleIDs: []uint64{5}, Masks: []uint16{0b011011}, Thresholds: []float64{0.8, 0.5},
			F: 1, H: 2, W: 8, Feats: deviceBlocks([]uint16{0b011011}, 2)},
		&EdgeFeatureBatch{Session: 20, ModelVersion: 8, F: 8, H: 8, W: 8, SampleIDs: []uint64{11, 12}, Bits: make([]byte, 128)},
		&ResultBatch{Session: 21, Verdicts: []BatchVerdict{
			{SampleID: 5, Exit: ExitEdge, Class: 1, Probs: []float32{0.1, 0.8, 0.1}},
			{SampleID: 6, Exit: ExitCloud, Class: 0, Probs: []float32{0.9, 0.05, 0.05}},
		}},
		&DeviceHello{NodeID: "device-4", Slot: 4},
		&DeviceWelcome{Slot: 4, Devices: 6, ConfigVersion: 17},
		&DeviceGoodbye{NodeID: "device-4", Slot: 4, Reason: "draining"},
	}
}

// deviceBlocks returns a classify header's Feats for masks: one block
// per device up to the highest in their union, holding size bytes per
// sample whose mask names the device, in a pattern that differs from
// device to device.
func deviceBlocks(masks []uint16, size int) [][]byte {
	var union uint16
	for _, m := range masks {
		union |= m
	}
	feats := make([][]byte, bits.Len16(union))
	for d := range feats {
		feats[d] = []byte{}
		for _, m := range masks {
			for j := 0; m>>d&1 != 0 && j < size; j++ {
				feats[d] = append(feats[d], byte(d<<5+len(feats[d])))
			}
		}
	}
	return feats
}

// FuzzDecode feeds arbitrary byte streams to both frame decoders. Neither
// may panic or over-allocate: each returns an error or a message that
// survives a bit-exact re-encode/decode round trip, and they agree on
// which. The read loops' Decoder then decodes the re-encoded frame twice
// in a row, the second time into the frame the first released.
func FuzzDecode(f *testing.F) {
	for _, m := range seedMessages() {
		frame := encodeFrame(f, m)
		f.Add(frame)
		// Truncations and corruptions of valid frames are the
		// interesting neighborhood; seed a few directly.
		if len(frame) > 1 {
			f.Add(frame[:len(frame)/2])
		}
		mut := append([]byte(nil), frame...)
		mut[len(mut)-1] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0x17, 0xDD, Version, byte(TypeHeartbeat), 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(bytes.NewReader(data))
		fr, derr := NewDecoder(bytes.NewReader(data)).Next()
		if (err == nil) != (derr == nil) {
			t.Fatalf("Decode err = %v, Decoder.Next err = %v", err, derr)
		}
		if err != nil {
			return // malformed input must only ever yield an error
		}
		reenc := encodeFrame(t, msg)
		if got := encodeFrame(t, fr.Msg); !bytes.Equal(got, reenc) {
			t.Fatalf("%v: Decoder and Decode disagree:\n %x\n %x", msg.MsgType(), got, reenc)
		}
		fr.Release()
		checkDecoderStream(t, reenc)
		again, err := Decode(bytes.NewReader(reenc))
		if err != nil {
			t.Fatalf("re-decode of %v failed: %v", msg.MsgType(), err)
		}
		if !bytes.Equal(reenc, encodeFrame(t, again)) {
			t.Fatalf("%v not stable under encode/decode", msg.MsgType())
		}
		// The decoder must consume exactly one frame: the re-encoded
		// frame can never be longer than the input that produced it.
		if len(reenc) > len(data) {
			t.Fatalf("%v re-encodes to %d bytes from %d input bytes", msg.MsgType(), len(reenc), len(data))
		}
	})
}

// FuzzRoundTrip builds one message of every type from fuzzer-chosen
// fields and asserts a bit-exact encode→decode→encode round trip, so
// every encoder/decoder pair is exercised across its whole field space
// (including NaN probabilities and empty slices).
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(2), uint16(3), uint16(4), "node", []byte{1, 2, 3, 4})
	f.Add(uint8(3), uint64(9), uint64(7), uint16(2), uint16(0xFFFF), "", []byte{})
	f.Add(uint8(9), uint64(1<<63), uint64(0), uint16(6), uint16(0b101101), "edge", []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, kind uint8, session, sample uint64, a, b uint16, s string, blob []byte) {
		m := buildMessage(kind, session, sample, a, b, s, blob)
		var buf bytes.Buffer
		if _, err := Encode(&buf, m); err != nil {
			t.Fatalf("encode %v: %v", m.MsgType(), err)
		}
		frame := append([]byte(nil), buf.Bytes()...)
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode %v: %v", m.MsgType(), err)
		}
		if got.MsgType() != m.MsgType() {
			t.Fatalf("round trip changed type %v → %v", m.MsgType(), got.MsgType())
		}
		// Compare re-encoded bytes rather than structs: bit-exact for
		// every field, and indifferent to NaN != NaN and nil vs empty.
		var buf2 bytes.Buffer
		if _, err := Encode(&buf2, got); err != nil {
			t.Fatalf("re-encode %v: %v", got.MsgType(), err)
		}
		if !bytes.Equal(frame, buf2.Bytes()) {
			t.Fatalf("%v round trip not bit-exact:\n in  %x\n out %x", m.MsgType(), frame, buf2.Bytes())
		}
		checkDecoderStream(t, frame)
	})
}

// checkDecoderStream decodes frame twice from one stream through one
// Decoder, releasing in between, and requires both decodes to re-encode
// to frame: the second decodes into the storage the first released.
func checkDecoderStream(t *testing.T, frame []byte) {
	t.Helper()
	dec := NewDecoder(bytes.NewReader(append(frame[:len(frame):len(frame)], frame...)))
	for i := 0; i < 2; i++ {
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("Decoder.Next #%d: %v", i, err)
		}
		if got := encodeFrame(t, f.Msg); !bytes.Equal(got, frame) {
			t.Fatalf("Decoder.Next #%d of %v not bit-exact:\n in  %x\n out %x", i, f.Msg.MsgType(), frame, got)
		}
		f.Release()
	}
}

// buildMessage derives a structurally valid message of the kind-selected
// type from raw fuzz inputs.
func buildMessage(kind uint8, session, sample uint64, a, b uint16, s string, blob []byte) Message {
	if len(s) > 1024 {
		s = s[:1024]
	}
	probs := make([]float32, len(blob)/4%64)
	for i := range probs {
		probs[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[4*i:]))
	}
	// Feature shapes must be consistent with the bit payload; derive
	// small dimensions and size the payload to match.
	shape := func(x, y uint16) (uint16, uint16, uint16, []byte) {
		fDim := x%8 + 1
		h := y%16 + 1
		w := x/8%16 + 1
		bits := make([]byte, (int(fDim)*int(h)*int(w)+7)/8)
		copy(bits, blob)
		return fDim, h, w, bits
	}
	// Batched frames derive their variable-length lists from the blob.
	ids := make([]uint64, len(blob)/3%9)
	for i := range ids {
		ids[i] = sample + uint64(i)*uint64(a+1)
	}
	masks := make([]uint16, len(ids))
	for i := range masks {
		masks[i] = b + uint16(i)
	}
	// Model version pinning rides every session-opening frame.
	mv := session ^ sample
	switch kind % 21 {
	case 0:
		return &DeviceGoodbye{NodeID: s, Slot: b, Reason: s}
	case 1:
		return &LocalSummary{Session: session, SampleID: sample, Device: a, Probs: probs}
	case 2:
		return &FeatureRequest{Session: session, SampleID: sample, ModelVersion: mv}
	case 3:
		fDim, h, w, bits := shape(a, b)
		return &FeatureUpload{Session: session, SampleID: sample, Device: b, F: fDim, H: h, W: w, Bits: bits}
	case 4:
		return &ClassifyResult{Session: session, SampleID: sample, Exit: ExitPoint(a), Class: b, Probs: probs}
	case 5:
		return &Heartbeat{NodeID: s, Seq: session}
	case 6:
		return &Error{Session: session, Code: a, Msg: s}
	case 7:
		return &CaptureRequest{Session: session, SampleID: sample, ModelVersion: mv}
	case 8:
		return &CloudClassify{Session: session, SampleID: sample, ModelVersion: mv, Devices: a, Mask: b}
	case 9:
		ts := make([]float64, len(blob)/8%16)
		for i := range ts {
			ts[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*i:]))
		}
		return &EdgeClassify{Session: session, SampleID: sample, ModelVersion: mv, Devices: a, Mask: b, Thresholds: ts}
	case 10:
		fDim, h, w, bits := shape(b, a)
		return &EdgeFeature{Session: session, SampleID: sample, ModelVersion: mv, F: fDim, H: h, W: w, Bits: bits}
	case 11:
		return &CaptureBatch{Session: session, ModelVersion: mv, SampleIDs: ids}
	case 12:
		classes := int(b%4) + 1
		count := int(a % 8)
		present := make([]bool, count)
		popcount := 0
		for i := range present {
			present[i] = i < len(blob) && blob[i]&1 != 0
			if present[i] {
				popcount++
			}
		}
		sProbs := make([]float32, popcount*classes)
		for i := range sProbs {
			sProbs[i] = float32(i) / 7
		}
		return &SummaryBatch{Session: session, Device: a, Classes: uint16(classes),
			Count: uint16(count), Present: PackPresent(present), Probs: sProbs}
	case 13:
		return &FeatureBatchRequest{Session: session, ModelVersion: mv, SampleIDs: ids}
	case 14:
		fDim, h, w, one := shape(a, b)
		count := int(b % 4)
		bits := make([]byte, 0, count*len(one))
		for i := 0; i < count; i++ {
			bits = append(bits, one...)
		}
		return &FeatureBatch{Session: session, Device: b, F: fDim, H: h, W: w, Count: uint16(count), Bits: bits}
	case 15:
		fDim, h, w, one := shape(a, b)
		return &CloudClassifyBatch{Session: session, ModelVersion: mv, Devices: a, SampleIDs: ids, Masks: masks,
			F: fDim, H: h, W: w, Feats: deviceBlocks(masks, len(one))}
	case 16:
		ts := make([]float64, len(blob)/8%16)
		for i := range ts {
			ts[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*i:]))
		}
		fDim, h, w, one := shape(b, a)
		return &EdgeClassifyBatch{Session: session, ModelVersion: mv, Devices: a, SampleIDs: ids, Masks: masks, Thresholds: ts,
			F: fDim, H: h, W: w, Feats: deviceBlocks(masks, len(one))}
	case 17:
		fDim, h, w, one := shape(b, a)
		bits := make([]byte, 0, len(ids)*len(one))
		for range ids {
			bits = append(bits, one...)
		}
		return &EdgeFeatureBatch{Session: session, ModelVersion: mv, F: fDim, H: h, W: w, SampleIDs: ids, Bits: bits}
	case 19:
		return &DeviceHello{NodeID: s, Slot: a}
	case 20:
		return &DeviceWelcome{Slot: a, Devices: b, ConfigVersion: session}
	default:
		vs := make([]BatchVerdict, len(ids))
		for i := range vs {
			vs[i] = BatchVerdict{SampleID: ids[i], Exit: ExitPoint(uint8(a) + uint8(i)), Class: b, Probs: probs}
		}
		return &ResultBatch{Session: session, Verdicts: vs}
	}
}
