// Package wire defines the binary message protocol spoken between DDNN
// cluster nodes (end devices, the local aggregator/gateway, the edge and
// the cloud). Frames are length-prefixed with a fixed header:
//
//	magic   uint16  0xDD17 ("DDNN ICDCS'17")
//	version uint8   3
//	type    uint8   message type
//	length  uint32  payload length in bytes
//
// followed by a type-specific little-endian payload. The protocol carries
// exactly the payloads of the paper's communication model (Eq. 1): the
// float32 class-summary vector each device sends to its local aggregator
// (4·|C| bytes), the bit-packed binarized feature map uploaded on a
// local-exit miss (f·o/8 bytes), and — for three-tier hierarchies (Fig. 2
// configs d/e) — the bit-packed edge feature map the edge escalates to the
// cloud on an edge-exit miss.
//
// Since version 2 every session-scoped message carries a Session tag, so a
// single connection can interleave frames from many concurrent inference
// sessions and each endpoint demultiplexes replies by session instead of
// assuming lock-step request/reply. Version 3 added a ModelVersion pin to
// every serving-path request, so a session started during a rolling model
// reload is answered by one model version at every hop (0 pins nothing and
// means "the responder's active version").
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Magic identifies DDNN protocol frames.
const Magic uint16 = 0xDD17

// Version is the protocol version this package speaks. Version 2 added
// the Session tag that multiplexes concurrent inference sessions over one
// connection; version 3 added the model-version pin on every serving-path
// request (rolling model reloads).
const Version uint8 = 3

// MaxPayload bounds frame payloads to guard against corrupt or hostile
// length fields. Feature maps in this system are tiny; 16 MiB is generous.
const MaxPayload = 16 << 20

// headerSize is the encoded frame-header length in bytes.
const headerSize = 8

// MsgType identifies a message's payload schema.
type MsgType uint8

// Message types.
const (
	// Tag 1 is retired and unassigned: it belonged to a node announcement
	// no node ever sent. Decoding it is ErrUnknownType.
	_ MsgType = iota + 1
	// TypeLocalSummary carries a device's per-class probability summary to
	// the local aggregator (the first term of Eq. 1).
	TypeLocalSummary
	// TypeFeatureRequest asks a device to upload its feature map for a
	// sample that missed the local exit.
	TypeFeatureRequest
	// TypeFeatureUpload carries a bit-packed binarized feature map (the
	// second term of Eq. 1).
	TypeFeatureUpload
	// TypeClassifyResult reports the final classification of a sample and
	// the exit that produced it.
	TypeClassifyResult
	// TypeHeartbeat is the liveness signal used for failure detection.
	TypeHeartbeat
	// TypeError reports a protocol or processing error.
	TypeError
	// TypeCaptureRequest asks a device to capture/process its current
	// sensor frame for a sample and reply with a LocalSummary.
	TypeCaptureRequest
	// TypeCloudClassify announces a cloud classification session: the
	// header that precedes the present devices' FeatureUploads.
	TypeCloudClassify
	// TypeEdgeClassify announces an edge classification session: the
	// header that precedes the present devices' FeatureUploads on the
	// gateway→edge hop, carrying the remaining pipeline thresholds.
	TypeEdgeClassify
	// TypeEdgeFeature carries the bit-packed edge feature map escalated
	// from an edge node to the cloud on an edge-exit miss.
	TypeEdgeFeature
	// TypeCaptureBatch asks a device to process a micro-batch of sensor
	// frames in one forward pass and reply with a SummaryBatch.
	TypeCaptureBatch
	// TypeSummaryBatch carries a device's per-sample class summaries for
	// a whole capture batch, with a presence bitmask for absent frames.
	TypeSummaryBatch
	// TypeFeatureBatchRequest asks a device for the feature maps of the
	// batch subset that missed the local exit.
	TypeFeatureBatchRequest
	// TypeFeatureBatch carries one device's bit-packed feature maps for
	// several samples in a single frame.
	TypeFeatureBatch
	// TypeCloudClassifyBatch announces a batched cloud classification
	// session with per-sample device masks.
	TypeCloudClassifyBatch
	// TypeEdgeClassifyBatch announces a batched edge classification
	// session with per-sample device masks and relayed thresholds.
	TypeEdgeClassifyBatch
	// TypeEdgeFeatureBatch carries the edge feature maps of the batch
	// subset that missed the edge exit.
	TypeEdgeFeatureBatch
	// TypeResultBatch reports the per-sample verdicts of one batched
	// session in a single frame.
	TypeResultBatch
	// TypeDeviceHello opens a registration handshake: a device asks the
	// gateway's registration plane to admit it into a device slot.
	TypeDeviceHello
	// TypeDeviceWelcome acknowledges an admission or departure and
	// reports the resulting topology config version.
	TypeDeviceWelcome
	// TypeDeviceGoodbye deregisters a device slot from the live topology.
	TypeDeviceGoodbye
)

// messages is the message table, indexed by tag: each type's name and
// constructor. MsgType.String and Decode read it; an empty row is an
// unassigned tag.
var messages = [...]struct {
	name string
	new  func() Message
}{
	TypeLocalSummary:        {"LocalSummary", func() Message { return new(LocalSummary) }},
	TypeFeatureRequest:      {"FeatureRequest", func() Message { return new(FeatureRequest) }},
	TypeFeatureUpload:       {"FeatureUpload", func() Message { return new(FeatureUpload) }},
	TypeClassifyResult:      {"ClassifyResult", func() Message { return new(ClassifyResult) }},
	TypeHeartbeat:           {"Heartbeat", func() Message { return new(Heartbeat) }},
	TypeError:               {"Error", func() Message { return new(Error) }},
	TypeCaptureRequest:      {"CaptureRequest", func() Message { return new(CaptureRequest) }},
	TypeCloudClassify:       {"CloudClassify", func() Message { return new(CloudClassify) }},
	TypeEdgeClassify:        {"EdgeClassify", func() Message { return new(EdgeClassify) }},
	TypeEdgeFeature:         {"EdgeFeature", func() Message { return new(EdgeFeature) }},
	TypeCaptureBatch:        {"CaptureBatch", func() Message { return new(CaptureBatch) }},
	TypeSummaryBatch:        {"SummaryBatch", func() Message { return new(SummaryBatch) }},
	TypeFeatureBatchRequest: {"FeatureBatchRequest", func() Message { return new(FeatureBatchRequest) }},
	TypeFeatureBatch:        {"FeatureBatch", func() Message { return new(FeatureBatch) }},
	TypeCloudClassifyBatch:  {"CloudClassifyBatch", func() Message { return new(CloudClassifyBatch) }},
	TypeEdgeClassifyBatch:   {"EdgeClassifyBatch", func() Message { return new(EdgeClassifyBatch) }},
	TypeEdgeFeatureBatch:    {"EdgeFeatureBatch", func() Message { return new(EdgeFeatureBatch) }},
	TypeResultBatch:         {"ResultBatch", func() Message { return new(ResultBatch) }},
	TypeDeviceHello:         {"DeviceHello", func() Message { return new(DeviceHello) }},
	TypeDeviceWelcome:       {"DeviceWelcome", func() Message { return new(DeviceWelcome) }},
	TypeDeviceGoodbye:       {"DeviceGoodbye", func() Message { return new(DeviceGoodbye) }},
}

// String names the message type.
func (t MsgType) String() string {
	if int(t) < len(messages) && messages[t].name != "" {
		return messages[t].name
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is any DDNN protocol message.
type Message interface {
	// MsgType returns the frame type tag.
	MsgType() MsgType
	// appendPayload appends the encoded payload.
	appendPayload(dst []byte) []byte
	// decodePayload parses the payload.
	decodePayload(src []byte) error
}

// Sessioned is implemented by messages that belong to one classification
// session. Receivers route such frames to the session's waiter, which is
// what lets many sessions share a connection.
type Sessioned interface {
	SessionID() uint64
}

// Protocol errors.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrUnknownType   = errors.New("wire: unknown message type")
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxPayload")
	ErrShortPayload  = errors.New("wire: payload truncated")
)

// frameBufs recycles frame buffers. Encoding: every io.Writer this
// package targets (net.Conn, net.Pipe, the link simulator) has released
// or copied the slice by the time Write returns. Decoding: every
// decodePayload copies what the message keeps, so the payload buffer is
// free again once it returns.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// Encode writes one framed message and returns the number of bytes
// written. The frame is assembled in a pooled buffer, so steady-state
// encoding does not allocate.
func Encode(w io.Writer, m Message) (int, error) {
	bp := frameBufs.Get().(*[]byte)
	defer func() {
		*bp = (*bp)[:0]
		frameBufs.Put(bp)
	}()
	frame := (*bp)[:headerSize] // pool's New caps at 1024 ≥ headerSize
	frame = m.appendPayload(frame)
	*bp = frame
	payloadLen := len(frame) - headerSize
	if payloadLen > MaxPayload {
		return 0, ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint16(frame[0:2], Magic)
	frame[2] = Version
	frame[3] = byte(m.MsgType())
	binary.LittleEndian.PutUint32(frame[4:8], uint32(payloadLen))
	n, err := w.Write(frame)
	if err != nil {
		return n, fmt.Errorf("wire: write frame: %w", err)
	}
	return n, nil
}

// Decode reads one framed message. The payload is read into a pooled
// buffer that no decoded message references.
func Decode(r io.Reader) (Message, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	h := reader{buf: hdr[:]}
	magic, version, t, length := h.u16(), h.u8(), MsgType(h.u8()), h.u32()
	if magic != Magic {
		return nil, ErrBadMagic
	}
	if version != Version {
		return nil, ErrBadVersion
	}
	if length > MaxPayload {
		return nil, ErrFrameTooLarge
	}
	bp := frameBufs.Get().(*[]byte)
	defer func() {
		*bp = (*bp)[:0]
		frameBufs.Put(bp)
	}()
	if cap(*bp) < int(length) {
		*bp = make([]byte, length)
	}
	payload := (*bp)[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read payload: %w", err)
	}
	if int(t) >= len(messages) || messages[t].new == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	m := messages[t].new()
	if err := m.decodePayload(payload); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodedSize returns the full frame size Encode would produce for m.
func EncodedSize(m Message) int {
	return headerSize + len(m.appendPayload(nil))
}
