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
	"slices"
	"sync"

	"github.com/ddnn/ddnn-go/internal/poison"
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
	// TypeDeviceHello opens a device's registration connection: the
	// device asks the gateway to admit it into a device slot.
	TypeDeviceHello
	// TypeDeviceWelcome acknowledges an admission and reports the
	// resulting topology config version.
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
	// decodePayload parses the payload, reusing the message's own slices
	// where they have room (see reader).
	decodePayload(r *reader) error
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
// or copied the slice by the time Write returns. Decoding: Decode's
// messages copy what they keep, so its buffer is free again once it
// returns.
var frameBufs = sync.Pool{New: func() any {
	return &frameBuf{b: make([]byte, 0, 1024)}
}}

// frameBuf is one pooled frame buffer, with the payload cursor Decode
// hands to the message (a cursor on the stack would escape through the
// Message interface).
type frameBuf struct {
	b []byte
	r reader
}

// Encode writes one framed message and returns the number of bytes
// written. The frame is assembled in a pooled buffer, so steady-state
// encoding does not allocate.
func Encode(w io.Writer, m Message) (int, error) {
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	frame := fb.b[:headerSize] // pool's New caps at 1024 ≥ headerSize
	frame = m.appendPayload(frame)
	fb.b = frame[:0]
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

// Decode reads one framed message into a fresh message that owns all its
// memory: the header and payload are read into a pooled buffer that no
// decoded message references. Read loops use a Decoder instead.
func Decode(r io.Reader) (Message, error) {
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	t, length, err := readHeader(r, fb.b[:headerSize]) // New caps at 1024 ≥ headerSize
	if err != nil {
		return nil, err
	}
	fb.b, err = readPayload(r, fb.b[:0], length)
	if err != nil {
		return nil, err
	}
	m := messages[t].new()
	fb.r = reader{buf: fb.b}
	if err := m.decodePayload(&fb.r); err != nil {
		return nil, err
	}
	return m, nil
}

// readHeader reads one frame header into hdr (headerSize bytes) and
// returns the frame's type and payload length once they pass the
// protocol checks. A clean end of stream before the header is io.EOF.
func readHeader(r io.Reader, hdr []byte) (MsgType, int, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, 0, io.EOF
		}
		return 0, 0, fmt.Errorf("wire: read header: %w", err)
	}
	h := reader{buf: hdr}
	magic, version, t, length := h.u16(), h.u8(), MsgType(h.u8()), h.u32()
	switch {
	case magic != Magic:
		return 0, 0, ErrBadMagic
	case version != Version:
		return 0, 0, ErrBadVersion
	case length > MaxPayload:
		return 0, 0, ErrFrameTooLarge
	case int(t) >= len(messages) || messages[t].new == nil:
		return 0, 0, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	return t, int(length), nil
}

// readPayload reads length payload bytes into buf's storage (buf is
// empty) and returns them. It grows buf by at most 64 KiB past what has
// arrived, so a header claiming MaxPayload pins memory only as its bytes
// come in.
func readPayload(r io.Reader, buf []byte, length int) ([]byte, error) {
	for len(buf) < length {
		n := min(length, max(cap(buf), len(buf)+64<<10))
		buf = slices.Grow(buf, n-len(buf))
		if _, err := io.ReadFull(r, buf[len(buf):n]); err != nil {
			return buf[:0], fmt.Errorf("wire: read payload: %w", err)
		}
		buf = buf[:n]
	}
	return buf, nil
}

// Decoder reads the frames of one stream — a connection's read loop —
// into storage it owns, so a steady stream decodes without allocating.
// Each frame it returns is one message of a type-specific free list,
// decoded into again when recycled, with a payload buffer its byte
// fields (feature bits, presence masks) alias; its other slices are the
// message's own storage, reused. A frame stays valid until Release: the
// handler or session that consumed it releases it once nothing it keeps
// still points into the message. Anything that must outlive the frame —
// a result's probabilities, a retained ID list — is copied out first.
//
// Next must be called from one goroutine; Release may be called from
// any.
type Decoder struct {
	r   io.Reader
	hdr [headerSize]byte
	rd  reader // the payload cursor of the frame being decoded

	mu   sync.Mutex
	free [len(messages)][]*Frame
}

// maxFreeFrames bounds each type's free list: frames released beyond it
// are left to the garbage collector.
const maxFreeFrames = 64

// NewDecoder returns a decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Frame is one message read by a Decoder. Msg and every slice in it are
// valid until Release.
type Frame struct {
	// Msg is the decoded message.
	Msg Message
	buf []byte
	dec *Decoder
	t   MsgType
}

// Next reads one frame. Its errors are Decode's.
func (d *Decoder) Next() (*Frame, error) {
	t, length, err := readHeader(d.r, d.hdr[:])
	if err != nil {
		return nil, err
	}
	f := d.get(t)
	if f.buf, err = readPayload(d.r, f.buf[:0], length); err != nil {
		f.Release()
		return nil, err
	}
	d.rd = reader{buf: f.buf, alias: true}
	if err := f.Msg.decodePayload(&d.rd); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// get takes a released frame of type t, or makes one.
func (d *Decoder) get(t MsgType) *Frame {
	d.mu.Lock()
	free := d.free[t]
	if n := len(free); n > 0 {
		f := free[n-1]
		free[n-1] = nil
		d.free[t] = free[:n-1]
		d.mu.Unlock()
		return f
	}
	d.mu.Unlock()
	return &Frame{Msg: messages[t].new(), dec: d, t: t}
}

// Release hands the frame back to its decoder for reuse; neither it nor
// anything its message holds may be used afterwards. Release of a nil
// frame is a no-op.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if poison.On {
		poison.Fill(&f.buf)
		poison.Fill(f.Msg)
		return // dropped: a stale reader keeps seeing the poison
	}
	d := f.dec
	d.mu.Lock()
	if len(d.free[f.t]) < maxFreeFrames {
		d.free[f.t] = append(d.free[f.t], f)
	}
	d.mu.Unlock()
}

// EncodedSize returns the full frame size Encode would produce for m.
func EncodedSize(m Message) int {
	return headerSize + len(m.appendPayload(nil))
}
