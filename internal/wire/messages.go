package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// LocalSummary is the per-sample class-probability vector a device sends to
// the local aggregator. Its payload charges exactly 4 bytes per class, the
// first term of Eq. (1).
type LocalSummary struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// SampleID identifies the sample being classified.
	SampleID uint64
	// Device is the sending device's index.
	Device uint16
	// Probs holds the per-class probabilities.
	Probs []float32
}

// MsgType implements Message.
func (*LocalSummary) MsgType() MsgType { return TypeLocalSummary }

// SessionID implements Sessioned.
func (m *LocalSummary) SessionID() uint64 { return m.Session }

func (m *LocalSummary) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.SampleID)
	dst = binary.LittleEndian.AppendUint16(dst, m.Device)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Probs)))
	for _, p := range m.Probs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p))
	}
	return dst
}

func (m *LocalSummary) decodePayload(r *reader) error {
	m.Session, m.SampleID, m.Device = r.u64(), r.u64(), r.u16()
	m.Probs = r.f32s(int(r.u16()), m.Probs)
	return r.end()
}

// SummaryPayloadBytes returns the Eq. (1) accounting charge of a summary:
// 4·|C| bytes, excluding framing overhead.
func SummaryPayloadBytes(classes int) int { return 4 * classes }

// FeatureRequest asks a device to upload its binarized feature map for a
// session that missed the local exit.
type FeatureRequest struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// SampleID identifies the sample being classified.
	SampleID uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
}

// MsgType implements Message.
func (*FeatureRequest) MsgType() MsgType { return TypeFeatureRequest }

// SessionID implements Sessioned.
func (m *FeatureRequest) SessionID() uint64 { return m.Session }

func (m *FeatureRequest) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.SampleID)
	return binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
}

func (m *FeatureRequest) decodePayload(r *reader) error {
	m.Session, m.SampleID, m.ModelVersion = r.u64(), r.u64(), r.u64()
	return r.end()
}

// FeatureUpload carries a device's bit-packed binarized feature map: f
// filters of h×w bits each, f·h·w/8 bytes — the second term of Eq. (1).
type FeatureUpload struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// SampleID identifies the sample being classified.
	SampleID uint64
	// Device is the sending device's index.
	Device uint16
	// F, H, W give the packed feature map's shape: filters × height × width.
	F, H, W uint16
	// Bits is the LSB-first bit-packed binarized feature payload.
	Bits []byte
}

// MsgType implements Message.
func (*FeatureUpload) MsgType() MsgType { return TypeFeatureUpload }

// SessionID implements Sessioned.
func (m *FeatureUpload) SessionID() uint64 { return m.Session }

func (m *FeatureUpload) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.SampleID)
	dst = binary.LittleEndian.AppendUint16(dst, m.Device)
	dst = binary.LittleEndian.AppendUint16(dst, m.F)
	dst = binary.LittleEndian.AppendUint16(dst, m.H)
	dst = binary.LittleEndian.AppendUint16(dst, m.W)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Bits)))
	return append(dst, m.Bits...)
}

func (m *FeatureUpload) decodePayload(r *reader) (err error) {
	m.Session, m.SampleID, m.Device = r.u64(), r.u64(), r.u16()
	m.F, m.H, m.W = r.u16(), r.u16(), r.u16()
	m.Bits, err = r.features("feature upload", r.take(int(r.u32())), 1, m.F, m.H, m.W)
	return err
}

// ExitPoint identifies where a sample was classified.
type ExitPoint uint8

// Exit points in hierarchy order.
const (
	ExitLocal ExitPoint = iota + 1
	ExitEdge
	ExitCloud
)

// String names the exit point.
func (e ExitPoint) String() string {
	switch e {
	case ExitLocal:
		return "local"
	case ExitEdge:
		return "edge"
	case ExitCloud:
		return "cloud"
	default:
		return fmt.Sprintf("ExitPoint(%d)", uint8(e))
	}
}

// ClassifyResult reports the classification of a sample.
type ClassifyResult struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// SampleID identifies the sample being classified.
	SampleID uint64
	// Exit names the tier that produced the verdict.
	Exit ExitPoint
	// Class is the predicted class index.
	Class uint16
	// Probs holds the per-class probabilities.
	Probs []float32
}

// MsgType implements Message.
func (*ClassifyResult) MsgType() MsgType { return TypeClassifyResult }

// SessionID implements Sessioned.
func (m *ClassifyResult) SessionID() uint64 { return m.Session }

func (m *ClassifyResult) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.SampleID)
	dst = append(dst, byte(m.Exit))
	dst = binary.LittleEndian.AppendUint16(dst, m.Class)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Probs)))
	for _, p := range m.Probs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p))
	}
	return dst
}

func (m *ClassifyResult) decodePayload(r *reader) error {
	m.Session, m.SampleID = r.u64(), r.u64()
	m.Exit, m.Class = ExitPoint(r.u8()), r.u16()
	m.Probs = r.f32s(int(r.u16()), m.Probs)
	return r.end()
}

// Heartbeat is the liveness signal for failure detection.
type Heartbeat struct {
	// NodeID names the sending node.
	NodeID string
	// Seq is the probe sequence number the receiver echoes back.
	Seq uint64
}

// MsgType implements Message.
func (*Heartbeat) MsgType() MsgType { return TypeHeartbeat }

func (m *Heartbeat) appendPayload(dst []byte) []byte {
	dst = appendString(dst, m.NodeID)
	return binary.LittleEndian.AppendUint64(dst, m.Seq)
}

func (m *Heartbeat) decodePayload(r *reader) error {
	m.NodeID, m.Seq = r.str(m.NodeID), r.u64()
	return r.end()
}

// Error reports a protocol or processing failure. Session routes the error
// to the inference session it aborts; zero means connection-scoped.
type Error struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// Code is an HTTP-style status (400 bad request, 426 unknown model
	// version, 503 tier above the responder unreachable).
	Code uint16
	// Msg is the human-readable error description.
	Msg string
}

// MsgType implements Message.
func (*Error) MsgType() MsgType { return TypeError }

// SessionID implements Sessioned.
func (m *Error) SessionID() uint64 { return m.Session }

func (m *Error) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint16(dst, m.Code)
	return appendString(dst, m.Msg)
}

func (m *Error) decodePayload(r *reader) error {
	m.Session, m.Code, m.Msg = r.u64(), r.u16(), r.str(m.Msg)
	return r.end()
}

// CaptureRequest asks a device to process its sensor frame for a sample
// and reply with a LocalSummary.
type CaptureRequest struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// SampleID identifies the sample being classified.
	SampleID uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
}

// MsgType implements Message.
func (*CaptureRequest) MsgType() MsgType { return TypeCaptureRequest }

// SessionID implements Sessioned.
func (m *CaptureRequest) SessionID() uint64 { return m.Session }

func (m *CaptureRequest) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.SampleID)
	return binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
}

func (m *CaptureRequest) decodePayload(r *reader) error {
	m.Session, m.SampleID, m.ModelVersion = r.u64(), r.u64(), r.u64()
	return r.end()
}

// CloudClassify opens a cloud classification session for a sample: it
// announces which devices are present (bitmask), after which the gateway
// relays exactly popcount(Mask) FeatureUploads and the cloud replies with a
// ClassifyResult.
type CloudClassify struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// SampleID identifies the sample being classified.
	SampleID uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// Devices is the total device count in the hierarchy.
	Devices uint16
	// Mask has bit d set when device d's features follow.
	Mask uint16
}

// MsgType implements Message.
func (*CloudClassify) MsgType() MsgType { return TypeCloudClassify }

// SessionID implements Sessioned.
func (m *CloudClassify) SessionID() uint64 { return m.Session }

func (m *CloudClassify) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.SampleID)
	dst = binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
	dst = binary.LittleEndian.AppendUint16(dst, m.Devices)
	return binary.LittleEndian.AppendUint16(dst, m.Mask)
}

func (m *CloudClassify) decodePayload(r *reader) error {
	m.Session, m.SampleID, m.ModelVersion = r.u64(), r.u64(), r.u64()
	m.Devices, m.Mask = r.u16(), r.u16()
	return r.end()
}

// EdgeClassify opens an edge classification session for a sample: it
// announces which devices' FeatureUploads follow (exactly
// popcount(Mask) of them) and carries the remaining exit-stage
// thresholds of the escalation pipeline, nearest tier first —
// Thresholds[0] is the receiving edge's own exit threshold, and any
// further entries ride along to deeper tiers. An empty list means the
// receiving tier never exits and always escalates. The edge answers
// with a ClassifyResult (ExitEdge for confident samples, or the
// relayed upstream verdict).
type EdgeClassify struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// SampleID identifies the sample being classified.
	SampleID uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// Devices is the total device count in the hierarchy.
	Devices uint16
	// Mask has bit d set when device d's features follow.
	Mask uint16
	// Thresholds holds normalized-entropy exit thresholds for this and
	// deeper tiers, encoded at full float64 precision so distributed
	// exit decisions are bit-identical to in-process staged inference.
	Thresholds []float64
}

// MsgType implements Message.
func (*EdgeClassify) MsgType() MsgType { return TypeEdgeClassify }

// SessionID implements Sessioned.
func (m *EdgeClassify) SessionID() uint64 { return m.Session }

func (m *EdgeClassify) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.SampleID)
	dst = binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
	dst = binary.LittleEndian.AppendUint16(dst, m.Devices)
	dst = binary.LittleEndian.AppendUint16(dst, m.Mask)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Thresholds)))
	for _, t := range m.Thresholds {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
	}
	return dst
}

func (m *EdgeClassify) decodePayload(r *reader) error {
	m.Session, m.SampleID, m.ModelVersion = r.u64(), r.u64(), r.u64()
	m.Devices, m.Mask = r.u16(), r.u16()
	m.Thresholds = r.f64s(int(r.u16()), m.Thresholds)
	return r.end()
}

// EdgeFeature carries the bit-packed binarized edge feature map an edge
// node escalates to the cloud when a sample misses the edge exit: f
// edge filters of h×w bits each, f·h·w/8 bytes — the edge-tier analogue
// of the device FeatureUpload. It is a complete escalation on its own
// (the edge has already aggregated the devices), so the cloud replies
// with a ClassifyResult directly.
type EdgeFeature struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// SampleID identifies the sample being classified.
	SampleID uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// F, H, W give the packed feature map's shape: filters × height × width.
	F, H, W uint16
	// Bits is the LSB-first bit-packed binarized feature payload.
	Bits []byte
}

// MsgType implements Message.
func (*EdgeFeature) MsgType() MsgType { return TypeEdgeFeature }

// SessionID implements Sessioned.
func (m *EdgeFeature) SessionID() uint64 { return m.Session }

func (m *EdgeFeature) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.SampleID)
	dst = binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
	dst = binary.LittleEndian.AppendUint16(dst, m.F)
	dst = binary.LittleEndian.AppendUint16(dst, m.H)
	dst = binary.LittleEndian.AppendUint16(dst, m.W)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Bits)))
	return append(dst, m.Bits...)
}

func (m *EdgeFeature) decodePayload(r *reader) (err error) {
	m.Session, m.SampleID, m.ModelVersion = r.u64(), r.u64(), r.u64()
	m.F, m.H, m.W = r.u16(), r.u16(), r.u16()
	m.Bits, err = r.features("edge feature", r.take(int(r.u32())), 1, m.F, m.H, m.W)
	return err
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}
