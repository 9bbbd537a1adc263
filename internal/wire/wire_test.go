package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/ddnn/ddnn-go/internal/poison"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	n, err := Encode(&buf, m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if n != buf.Len() {
		t.Errorf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	if n != EncodedSize(m) {
		t.Errorf("EncodedSize = %d, Encode wrote %d", EncodedSize(m), n)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripAllMessageTypes(t *testing.T) {
	tests := []struct {
		name string
		msg  Message
	}{
		{"LocalSummary", &LocalSummary{Session: 17, SampleID: 42, Device: 1, Probs: []float32{0.1, 0.7, 0.2}}},
		{"LocalSummary empty", &LocalSummary{SampleID: 1, Device: 0, Probs: []float32{}}},
		{"FeatureRequest", &FeatureRequest{Session: 3, SampleID: 99}},
		{"FeatureUpload", &FeatureUpload{Session: 9, SampleID: 7, Device: 2, F: 4, H: 16, W: 16, Bits: make([]byte, 4*16*16/8)}},
		{"ClassifyResult", &ClassifyResult{Session: 1 << 40, SampleID: 5, Exit: ExitCloud, Class: 2, Probs: []float32{0.05, 0.05, 0.9}}},
		{"Heartbeat", &Heartbeat{NodeID: "edge-0", Seq: 12345}},
		{"Error", &Error{Session: 12, Code: 404, Msg: "no such sample"}},
		{"CaptureRequest", &CaptureRequest{Session: 2, SampleID: 31337}},
		{"CloudClassify", &CloudClassify{Session: 6, SampleID: 8, Devices: 6, Mask: 0b101101}},
		{"EdgeClassify", &EdgeClassify{Session: 11, SampleID: 9, Devices: 6, Mask: 0b011011, Thresholds: []float64{0.8}}},
		{"EdgeClassify deep", &EdgeClassify{Session: 12, SampleID: 10, Devices: 4, Mask: 0b1111, Thresholds: []float64{0.8, 0.5, 0.3}}},
		{"EdgeFeature", &EdgeFeature{Session: 13, SampleID: 21, F: 8, H: 8, W: 8, Bits: make([]byte, 8*8*8/8)}},
		{"CaptureBatch", &CaptureBatch{Session: 14, SampleIDs: []uint64{3, 1, 4, 1 << 40}}},
		{"SummaryBatch", &SummaryBatch{Session: 15, Device: 2, Classes: 3, Count: 4,
			Present: PackPresent([]bool{true, false, true, true}),
			Probs:   []float32{0.1, 0.7, 0.2, 0.3, 0.3, 0.4, 0.9, 0.05, 0.05}}},
		{"SummaryBatch all absent", &SummaryBatch{Session: 15, Device: 2, Classes: 3, Count: 2,
			Present: PackPresent([]bool{false, false}), Probs: []float32{}}},
		{"FeatureBatchRequest", &FeatureBatchRequest{Session: 16, SampleIDs: []uint64{7, 9}}},
		{"FeatureBatch", &FeatureBatch{Session: 17, Device: 1, F: 4, H: 16, W: 16, Count: 2, Bits: make([]byte, 2*4*16*16/8)}},
		{"CloudClassifyBatch", &CloudClassifyBatch{Session: 18, Devices: 6,
			SampleIDs: []uint64{5, 6, 7}, Masks: []uint16{0b111111, 0b101101, 0b000001},
			F: 4, H: 16, W: 16, Feats: deviceBlocks([]uint16{0b111111, 0b101101, 0b000001}, 128)}},
		{"EdgeClassifyBatch", &EdgeClassifyBatch{Session: 19, Devices: 6,
			SampleIDs: []uint64{5, 6}, Masks: []uint16{0b111111, 0b011011}, Thresholds: []float64{0.8, 0.5},
			F: 4, H: 16, W: 16, Feats: deviceBlocks([]uint16{0b111111, 0b011011}, 128)}},
		{"EdgeFeatureBatch", &EdgeFeatureBatch{Session: 20, F: 8, H: 8, W: 8,
			SampleIDs: []uint64{11, 12, 13}, Bits: make([]byte, 3*8*8*8/8)}},
		{"ResultBatch", &ResultBatch{Session: 21, Verdicts: []BatchVerdict{
			{SampleID: 5, Exit: ExitLocal, Class: 1, Probs: []float32{0.1, 0.8, 0.1}},
			{SampleID: 6, Exit: ExitCloud, Class: 0, Probs: []float32{0.9, 0.05, 0.05}},
		}}},
		{"DeviceHello", &DeviceHello{NodeID: "device-2", Slot: 2}},
		{"DeviceHello bare", &DeviceHello{Slot: 0}},
		{"DeviceWelcome", &DeviceWelcome{Slot: 2, Devices: 6, ConfigVersion: 41}},
		{"DeviceGoodbye", &DeviceGoodbye{NodeID: "device-2", Slot: 2, Reason: "draining"}},
		{"DeviceGoodbye bare", &DeviceGoodbye{NodeID: "device-5", Slot: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.msg)
			// A later frame reuses the decoder's payload buffer; a message
			// that aliased it would now read 0xFF.
			roundTrip(t, &FeatureBatch{F: 8, H: 64, W: 64, Count: 1, Bits: bytes.Repeat([]byte{0xFF}, 8*64*64/8)})
			// Normalize nil-vs-empty slices before comparing.
			if ls, ok := got.(*LocalSummary); ok && len(ls.Probs) == 0 {
				ls.Probs = []float32{}
			}
			if !reflect.DeepEqual(got, tt.msg) {
				t.Errorf("round trip = %+v, want %+v", got, tt.msg)
			}
		})
	}
}

func TestSessionScopedMessagesImplementSessioned(t *testing.T) {
	// Every message the gateway demultiplexes by session must carry the
	// session tag; Heartbeat and the registration plane are
	// connection-scoped.
	sessioned := []Message{
		&LocalSummary{Session: 7},
		&FeatureRequest{Session: 7},
		&FeatureUpload{Session: 7},
		&ClassifyResult{Session: 7},
		&Error{Session: 7},
		&CaptureRequest{Session: 7},
		&CloudClassify{Session: 7},
		&EdgeClassify{Session: 7},
		&EdgeFeature{Session: 7},
		&CaptureBatch{Session: 7},
		&SummaryBatch{Session: 7},
		&FeatureBatchRequest{Session: 7},
		&FeatureBatch{Session: 7},
		&CloudClassifyBatch{Session: 7},
		&EdgeClassifyBatch{Session: 7},
		&EdgeFeatureBatch{Session: 7},
		&ResultBatch{Session: 7},
	}
	for _, m := range sessioned {
		s, ok := m.(Sessioned)
		if !ok {
			t.Errorf("%v does not implement Sessioned", m.MsgType())
			continue
		}
		if s.SessionID() != 7 {
			t.Errorf("%v SessionID = %d, want 7", m.MsgType(), s.SessionID())
		}
	}
	for _, m := range []Message{&Heartbeat{}, &DeviceHello{}, &DeviceWelcome{}, &DeviceGoodbye{}} {
		if _, ok := m.(Sessioned); ok {
			t.Errorf("%v must stay connection-scoped", m.MsgType())
		}
	}
}

func TestLocalSummaryPayloadChargesEq1(t *testing.T) {
	// Eq. (1) first term: 4 bytes per class.
	if got := SummaryPayloadBytes(3); got != 12 {
		t.Errorf("SummaryPayloadBytes(3) = %d, want 12", got)
	}
}

func TestFeatureUploadBitsMatchEq1(t *testing.T) {
	// Eq. (1) second term: f·o/8 bytes for f=4 filters of 16×16 bits.
	m := &FeatureUpload{F: 4, H: 16, W: 16, Bits: make([]byte, 128)}
	var buf bytes.Buffer
	if _, err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.(*FeatureUpload).Bits) != 128 {
		t.Errorf("decoded %d feature bytes, want 128 = 4·256/8", len(got.(*FeatureUpload).Bits))
	}
}

func TestFeatureUploadRejectsInconsistentBits(t *testing.T) {
	m := &FeatureUpload{F: 4, H: 16, W: 16, Bits: make([]byte, 100)} // wrong size
	var buf bytes.Buffer
	if _, err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Error("Decode accepted feature upload with inconsistent bit count")
	}
}

// TestClassifyHeaderDeviceFeats pins how a classify header's masks size
// its device blocks: a zero shape decodes to empty blocks, a mask may
// name a device past Devices (the receiving tier refuses that, not the
// codec), and masks that declare more block bytes than the payload holds
// fail to decode.
func TestClassifyHeaderDeviceFeats(t *testing.T) {
	masks := []uint16{0b0101, 0b0100}
	got := roundTrip(t, &CloudClassifyBatch{Session: 1, Devices: 6, SampleIDs: []uint64{1, 2}, Masks: masks}).(*CloudClassifyBatch)
	if len(got.Feats) != 3 || len(got.Feats[0])+len(got.Feats[1])+len(got.Feats[2]) != 0 {
		t.Errorf("zero shape decoded to blocks %v, want three empty ones", got.Feats)
	}
	beyond := &EdgeClassifyBatch{Session: 2, Devices: 2, SampleIDs: []uint64{1}, Masks: []uint16{0b1001},
		F: 1, H: 1, W: 8, Feats: [][]byte{{1}, {}, {}, {4}}}
	if got := roundTrip(t, beyond).(*EdgeClassifyBatch); !reflect.DeepEqual(got.Feats, beyond.Feats) {
		t.Errorf("mask past Devices decoded to blocks %v, want %v", got.Feats, beyond.Feats)
	}
	short := &CloudClassifyBatch{Session: 3, Devices: 6, SampleIDs: []uint64{1, 2}, Masks: masks,
		F: 1, H: 1, W: 8, Feats: [][]byte{{1}}} // device 2's two maps are missing
	var buf bytes.Buffer
	if _, err := Encode(&buf, short); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Error("Decode accepted masks that declare more block bytes than the payload holds")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, &Heartbeat{NodeID: "x", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 0x00
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, &Heartbeat{NodeID: "x", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = 99
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	// Tag 1 is retired and unassigned; 200 is past the table.
	for _, tag := range []byte{1, 200} {
		var buf bytes.Buffer
		if _, err := Encode(&buf, &Heartbeat{NodeID: "x", Seq: 1}); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		raw[3] = tag
		if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrUnknownType) {
			t.Errorf("tag %d: err = %v, want ErrUnknownType", tag, err)
		}
	}
}

func TestDecodeRejectsOversizeFrame(t *testing.T) {
	raw := make([]byte, 8)
	raw[0], raw[1] = byte(Magic&0xFF), byte(Magic>>8)
	raw[2] = Version
	raw[3] = byte(TypeHeartbeat)
	raw[4], raw[5], raw[6], raw[7] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeEOFOnEmptyStream(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, &LocalSummary{SampleID: 1, Probs: []float32{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Decode(bytes.NewReader(raw[:len(raw)-4])); err == nil {
		t.Error("Decode accepted truncated stream")
	}
}

func TestStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Heartbeat{NodeID: "d0", Seq: 1},
		&LocalSummary{SampleID: 1, Probs: []float32{0.9, 0.05, 0.05}},
		&FeatureRequest{SampleID: 1},
		&FeatureUpload{SampleID: 1, F: 1, H: 4, W: 4, Bits: []byte{0xAB, 0xCD}},
		&ClassifyResult{SampleID: 1, Exit: ExitLocal, Class: 0, Probs: []float32{0.9, 0.05, 0.05}},
	}
	for _, m := range msgs {
		if _, err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.MsgType() != want.MsgType() {
			t.Errorf("message %d type = %v, want %v", i, got.MsgType(), want.MsgType())
		}
	}
	if _, err := Decode(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("after stream end err = %v, want io.EOF", err)
	}
}

func TestLocalSummaryRoundTripProperty(t *testing.T) {
	f := func(id uint64, dev uint16, p0, p1, p2 float32) bool {
		in := &LocalSummary{SampleID: id, Device: dev, Probs: []float32{p0, p1, p2}}
		var buf bytes.Buffer
		if _, err := Encode(&buf, in); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		got, ok := out.(*LocalSummary)
		if !ok {
			return false
		}
		if got.SampleID != id || got.Device != dev || len(got.Probs) != 3 {
			return false
		}
		for i, p := range []float32{p0, p1, p2} {
			// NaN round-trips bit-exactly but compares unequal; compare bits.
			if got.Probs[i] != p && !(p != p && got.Probs[i] != got.Probs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHeartbeatRoundTripProperty(t *testing.T) {
	f := func(id string, seq uint64) bool {
		if len(id) > 60000 {
			id = id[:60000]
		}
		in := &Heartbeat{NodeID: id, Seq: seq}
		var buf bytes.Buffer
		if _, err := Encode(&buf, in); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		got, ok := out.(*Heartbeat)
		return ok && got.NodeID == id && got.Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMsgTypeAndExitPointStrings(t *testing.T) {
	// Every table row names its type and builds a message of that type;
	// retired tag 1 and tags past the table have no name.
	named := 0
	for tag := 0; tag < 256; tag++ {
		mt := MsgType(tag)
		if tag >= len(messages) || messages[tag].new == nil {
			if name := mt.String(); name != fmt.Sprintf("MsgType(%d)", tag) {
				t.Errorf("unassigned tag %d is named %q", tag, name)
			}
			continue
		}
		named++
		if got := messages[tag].new().MsgType(); got != mt {
			t.Errorf("table row %d builds a %v", tag, got)
		}
		if name := mt.String(); name == "" || name[0] == 'M' {
			t.Errorf("MsgType(%d) has no name", tag)
		}
	}
	if named != len(seedMessages()) {
		t.Errorf("table has %d message types, seedMessages covers %d", named, len(seedMessages()))
	}
	for _, e := range []ExitPoint{ExitLocal, ExitEdge, ExitCloud} {
		if e.String() == "" || e.String()[0] == 'E' {
			t.Errorf("ExitPoint(%d) has no name", e)
		}
	}
}

// frameOf frames a payload under a type tag, whatever its length.
func frameOf(mt MsgType, payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint16(nil, Magic)
	frame = append(frame, Version, byte(mt))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	return append(frame, payload...)
}

// TestDecodeContract pins the decoder contract for one frame of every
// message type: every strict prefix of its payload and the payload plus
// one byte fail to decode, and a decode costs exactly its pinned
// allocations (the message, and one per slice or string it keeps; the
// header is read into the pooled frame buffer).
func TestDecodeContract(t *testing.T) {
	allocs := map[MsgType]float64{
		TypeLocalSummary: 2, TypeFeatureRequest: 1, TypeFeatureUpload: 2,
		TypeClassifyResult: 2, TypeHeartbeat: 2, TypeError: 2,
		TypeCaptureRequest: 1, TypeCloudClassify: 1, TypeEdgeClassify: 2,
		TypeEdgeFeature: 2, TypeCaptureBatch: 2, TypeSummaryBatch: 3,
		TypeFeatureBatchRequest: 2, TypeFeatureBatch: 2, TypeCloudClassifyBatch: 5,
		TypeEdgeClassifyBatch: 6, TypeEdgeFeatureBatch: 3, TypeResultBatch: 4,
		TypeDeviceHello: 2, TypeDeviceWelcome: 1, TypeDeviceGoodbye: 3,
	}
	for _, m := range seedMessages() {
		mt := m.MsgType()
		t.Run(mt.String(), func(t *testing.T) {
			payload := m.appendPayload(nil)
			for n := 0; n < len(payload); n++ {
				if _, err := Decode(bytes.NewReader(frameOf(mt, payload[:n]))); err == nil {
					t.Errorf("accepted a %d-byte prefix of the %d-byte payload", n, len(payload))
				}
			}
			if _, err := Decode(bytes.NewReader(frameOf(mt, append(payload, 0)))); err == nil {
				t.Error("accepted the payload plus one trailing byte")
			}
			if raceEnabled {
				return // the race detector's instrumentation allocates
			}
			frame := frameOf(mt, payload)
			r := bytes.NewReader(frame)
			got := testing.AllocsPerRun(100, func() {
				r.Reset(frame)
				if _, err := Decode(r); err != nil {
					t.Fatal(err)
				}
			})
			if got != allocs[mt] {
				t.Errorf("Decode allocates %v times, want %v", got, allocs[mt])
			}
		})
	}
}

// TestDecoderContract pins the read loops' decoder on every frame type:
// it rejects what Decode rejects, decodes what Decode decodes to the same
// bytes, and — once a frame of the type has been released — decodes the
// serving path's frames without allocating.
func TestDecoderContract(t *testing.T) {
	hot := map[MsgType]bool{
		TypeCaptureBatch: true, TypeSummaryBatch: true, TypeFeatureBatchRequest: true,
		TypeFeatureBatch: true, TypeCloudClassifyBatch: true, TypeEdgeClassifyBatch: true,
		TypeEdgeFeatureBatch: true, TypeResultBatch: true, TypeHeartbeat: true, TypeError: true,
	}
	for _, m := range seedMessages() {
		mt := m.MsgType()
		t.Run(mt.String(), func(t *testing.T) {
			payload := m.appendPayload(nil)
			for n := 0; n < len(payload); n++ {
				if f, err := NewDecoder(bytes.NewReader(frameOf(mt, payload[:n]))).Next(); err == nil {
					f.Release()
					t.Errorf("accepted a %d-byte prefix of the %d-byte payload", n, len(payload))
				}
			}
			if f, err := NewDecoder(bytes.NewReader(frameOf(mt, append(payload, 0)))).Next(); err == nil {
				f.Release()
				t.Error("accepted the payload plus one trailing byte")
			}
			frame := frameOf(mt, payload)
			r := bytes.NewReader(frame)
			dec := NewDecoder(r)
			next := func() {
				r.Reset(frame)
				f, err := dec.Next()
				if err != nil {
					t.Fatal(err)
				}
				if got := encodeFrame(t, f.Msg); !bytes.Equal(got, frame) {
					t.Fatalf("decoder round trip:\n in  %x\n out %x", frame, got)
				}
				f.Release()
			}
			next()
			if raceEnabled || poison.On || !hot[mt] {
				return // race instrumentation allocates; poisoning drops released frames
			}
			dec = NewDecoder(r)
			next() // the first frame of a type is made, later ones reused
			if got := testing.AllocsPerRun(100, func() {
				r.Reset(frame)
				f, err := dec.Next()
				if err != nil {
					t.Fatal(err)
				}
				f.Release()
			}); got != 0 {
				t.Errorf("Decoder.Next allocates %v times, want 0", got)
			}
		})
	}
}

// TestDecoderConcurrentRelease: frames released from other goroutines
// while the decoder goes on reading are recycled safely — every frame
// still reads as it was written until its own release (run with -race).
func TestDecoderConcurrentRelease(t *testing.T) {
	const frames, workers = 400, 4
	pr, pw := io.Pipe()
	go func() {
		for i := 0; i < frames; i++ {
			m := &FeatureBatch{Session: uint64(i), F: 1, H: 1, W: 8, Count: uint16(i % 4), Bits: bytes.Repeat([]byte{byte(i)}, i%4)}
			if _, err := Encode(pw, m); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	dec := NewDecoder(pr)
	work := make(chan *Frame)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var err error
			for f := range work {
				m := f.Msg.(*FeatureBatch)
				if err == nil && (int(m.Count) != int(m.Session)%4 || !bytes.Equal(m.Bits, bytes.Repeat([]byte{byte(m.Session)}, int(m.Count)))) {
					err = fmt.Errorf("frame of session %d reads count %d bits %x", m.Session, m.Count, m.Bits)
				}
				f.Release()
			}
			errs <- err
		}()
	}
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		work <- f
	}
	close(work)
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestDecodeHostileResultBatchCount(t *testing.T) {
	// Header + session + a count of 0xFFFF verdicts and nothing else: the
	// count must be checked against the payload before anything is sized
	// from it.
	frame := frameOf(TypeResultBatch, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03})
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Decode(bytes.NewReader(frame)); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("err = %v, want ErrShortPayload", err)
		}
	}
	runtime.ReadMemStats(&after)
	if perDecode := (after.TotalAlloc - before.TotalAlloc) / runs; perDecode >= 64<<10 {
		t.Errorf("an 18-byte frame allocated %d bytes per decode, want < 64 KB", perDecode)
	}
}

// TestDecodeHostileVarint: every uvarint has one encoding and a range,
// and a count is checked against the bytes left before anything is
// sized from it. Each malformed payload fails both decoders with its
// error, without a panic.
func TestDecodeHostileVarint(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	payload := func(fields ...[]byte) []byte {
		return bytes.Join(append([][]byte{binary.LittleEndian.AppendUint64(nil, 7)}, fields...), nil)
	}
	tests := []struct {
		name    string
		mt      MsgType
		payload []byte
		want    error
	}{
		{"11-byte uvarint", TypeCaptureBatch, payload(append(bytes.Repeat([]byte{0x80}, 10), 0x01), uv(0)), ErrBadVarint},
		{"uvarint past 64 bits", TypeCaptureBatch, payload(append(bytes.Repeat([]byte{0xFF}, 9), 0x02), uv(0)), ErrBadVarint},
		{"non-minimal uvarint", TypeCaptureBatch, payload([]byte{0x80, 0x00}, uv(0)), ErrBadVarint},
		{"non-minimal sample ID", TypeCaptureBatch, payload(uv(1), uv(1), []byte{0x85, 0x80, 0x00}), ErrBadVarint},
		{"Count above 0xFFFF", TypeSummaryBatch, payload(uv(1), uv(3), uv(1<<16)), ErrBadVarint},
		{"Device above 0xFFFF", TypeSummaryBatch, payload(uv(1<<16), uv(3), uv(0)), ErrBadVarint},
		{"F above 0xFFFF", TypeFeatureBatch, payload(uv(1), uv(1<<16), uv(1), uv(8), uv(0)), ErrBadVarint},
		{"ID count past the bytes left", TypeCaptureBatch, payload(uv(1), uv(0xFFFF), []byte{1, 2}), ErrShortPayload},
		{"ID+mask count past the bytes left", TypeCloudClassifyBatch, payload(uv(1), uv(6), uv(3), make([]byte, 8)), ErrShortPayload},
		{"verdict count past 4-byte verdicts", TypeResultBatch, payload(uv(3), make([]byte, 11)), ErrShortPayload},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame := frameOf(tt.mt, tt.payload)
			if _, err := Decode(bytes.NewReader(frame)); !errors.Is(err, tt.want) {
				t.Errorf("Decode err = %v, want %v", err, tt.want)
			}
			if f, err := NewDecoder(bytes.NewReader(frame)).Next(); !errors.Is(err, tt.want) {
				f.Release()
				t.Errorf("Decoder.Next err = %v, want %v", err, tt.want)
			}
		})
	}

	// A hostile ID count allocates nothing it sizes: Decode makes the
	// message only, and a warm Decoder nothing at all.
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	frame := frameOf(TypeCaptureBatch, payload(uv(1), uv(0xFFFF), []byte{1, 2}))
	r := bytes.NewReader(frame)
	if got := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if _, err := Decode(r); err == nil {
			t.Fatal("Decode accepted a hostile ID count")
		}
	}); got != 1 {
		t.Errorf("Decode of a hostile ID count allocates %v times, want 1 (the message)", got)
	}
	if poison.On {
		return // poisoning drops released frames
	}
	dec := NewDecoder(r)
	next := func() {
		r.Reset(frame)
		if f, err := dec.Next(); err == nil {
			f.Release()
			t.Fatal("Decoder.Next accepted a hostile ID count")
		}
	}
	next() // the first frame of a type is made, later ones reused
	if got := testing.AllocsPerRun(100, next); got != 0 {
		t.Errorf("Decoder.Next of a hostile ID count allocates %v times, want 0", got)
	}
}

// TestBatchFrameSizes pins the encoded size of the eight batch frames
// for the default model — 6 devices, 3 classes, 4×16×16 device maps
// (8×8×8 edge maps), model version 1, sample IDs 0…n−1 — at sessions
// of 1 and 32 samples (docs/WIRE.md's worked example). The session tag
// is a fixed u64, so no size depends on how many sessions came before:
// a change that makes it vary must revisit the serving ledger's
// wire_bytes_per_class rows first.
func TestBatchFrameSizes(t *testing.T) {
	const devices, classes, f, h, w = 6, 3, 4, 16, 16
	const mapBytes, edgeMapBytes = f * h * w / 8, 8 * 8 * 8 / 8
	frames := func(session uint64, n int) []Message {
		ids, masks, present := make([]uint64, n), make([]uint16, n), make([]bool, n)
		verdicts := make([]BatchVerdict, n)
		for i := range ids {
			ids[i], masks[i], present[i] = uint64(i), 1<<devices-1, true
			verdicts[i] = BatchVerdict{SampleID: uint64(i), Exit: ExitCloud, Class: 2, Probs: make([]float32, classes)}
		}
		feats := make([][]byte, devices)
		for d := range feats {
			feats[d] = make([]byte, n*mapBytes)
		}
		return []Message{
			&CaptureBatch{Session: session, ModelVersion: 1, SampleIDs: ids},
			&SummaryBatch{Session: session, Device: devices - 1, Classes: classes, Count: uint16(n),
				Present: PackPresent(present), Probs: make([]float32, n*classes)},
			&FeatureBatchRequest{Session: session, ModelVersion: 1, SampleIDs: ids},
			&FeatureBatch{Session: session, Device: devices - 1, F: f, H: h, W: w, Count: uint16(n), Bits: make([]byte, n*mapBytes)},
			&CloudClassifyBatch{Session: session, ModelVersion: 1, Devices: devices, SampleIDs: ids, Masks: masks,
				F: f, H: h, W: w, Feats: feats},
			&EdgeClassifyBatch{Session: session, ModelVersion: 1, Devices: devices, SampleIDs: ids, Masks: masks,
				Thresholds: []float64{0.5}, F: f, H: h, W: w, Feats: feats},
			&EdgeFeatureBatch{Session: session, ModelVersion: 1, F: 8, H: 8, W: 8, SampleIDs: ids, Bits: make([]byte, n*edgeMapBytes)},
			&ResultBatch{Session: session, Verdicts: verdicts},
		}
	}
	want := map[int]map[MsgType]int{
		1: {TypeCaptureBatch: 19, TypeSummaryBatch: 32, TypeFeatureBatchRequest: 19, TypeFeatureBatch: 149,
			TypeCloudClassifyBatch: 793, TypeEdgeClassifyBatch: 802, TypeEdgeFeatureBatch: 86, TypeResultBatch: 33},
		32: {TypeCaptureBatch: 50, TypeSummaryBatch: 407, TypeFeatureBatchRequest: 50, TypeFeatureBatch: 4117,
			TypeCloudClassifyBatch: 24694, TypeEdgeClassifyBatch: 24703, TypeEdgeFeatureBatch: 2101, TypeResultBatch: 529},
	}
	for _, n := range []int{1, 32} {
		for _, session := range []uint64{1, 1 << 62} {
			for _, m := range frames(session, n) {
				if got := EncodedSize(m); got != want[n][m.MsgType()] {
					t.Errorf("%v at n = %d, session %d: %d bytes, want %d", m.MsgType(), n, session, got, want[n][m.MsgType()])
				}
			}
		}
	}
}

func TestDecodeHostileClaimedLength(t *testing.T) {
	// A header claiming MaxPayload, a few payload bytes, then EOF: the
	// payload buffer may grow only with the bytes that arrived, not to the
	// claimed length.
	frame := binary.LittleEndian.AppendUint16(nil, Magic)
	frame = append(frame, Version, byte(TypeFeatureBatch))
	frame = binary.LittleEndian.AppendUint32(frame, MaxPayload)
	frame = append(frame, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want the payload read's io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a header claiming %d bytes followed by 100 allocated %d bytes, want < 1 MiB", MaxPayload, alloc)
	}
}
