package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// MaxDevices is the largest device count the protocol can describe: the
// present-device masks of CloudClassify, EdgeClassify and the batched
// classify headers are uint16 bitmasks, so device indices above 15 would
// silently alias (1 << d overflows and corrupts the mask). Hierarchies
// with more devices must be rejected before any session opens; the
// cluster runtime does so at gateway construction time.
const MaxDevices = 16

// MaxBatch is the largest number of samples one batched session may
// carry; batch frame counts are encoded as uint16.
const MaxBatch = 1<<16 - 1

// appendSampleIDs encodes a uint16 count followed by the IDs.
func appendSampleIDs(dst []byte, ids []uint64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, id)
	}
	return dst
}

// readSampleIDs decodes a uint16-counted ID list, returning the rest.
func readSampleIDs(src []byte) ([]uint64, []byte, error) {
	if len(src) < 2 {
		return nil, nil, ErrShortPayload
	}
	n := int(binary.LittleEndian.Uint16(src[0:2]))
	src = src[2:]
	if len(src) < 8*n {
		return nil, nil, ErrShortPayload
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	return ids, src[8*n:], nil
}

// PackPresent bit-packs a presence vector for the batch frames: bit i of
// the result marks sample i as present.
func PackPresent(present []bool) []byte {
	out := make([]byte, (len(present)+7)/8)
	for i, p := range present {
		if p {
			MarkPresent(out, i)
		}
	}
	return out
}

// MarkPresent sets bit i of a PackPresent-sized bitmask.
func MarkPresent(packed []byte, i int) { packed[i/8] |= 1 << uint(i%8) }

// IsPresent reports bit i of a PackPresent bitmask; positions past its
// end read as absent.
func IsPresent(packed []byte, i int) bool {
	return i/8 < len(packed) && packed[i/8]&(1<<uint(i%8)) != 0
}

// CaptureBatch asks a device to process its sensor frames for a whole
// micro-batch of samples in one forward pass and reply with a
// SummaryBatch. It is the batched analogue of CaptureRequest.
type CaptureBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// SampleIDs lists the batch's samples, in batch order.
	SampleIDs []uint64
}

// MsgType implements Message.
func (*CaptureBatch) MsgType() MsgType { return TypeCaptureBatch }

// SessionID implements Sessioned.
func (m *CaptureBatch) SessionID() uint64 { return m.Session }

func (m *CaptureBatch) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
	return appendSampleIDs(dst, m.SampleIDs)
}

func (m *CaptureBatch) decodePayload(src []byte) error {
	if len(src) < 16 {
		return ErrShortPayload
	}
	m.Session = binary.LittleEndian.Uint64(src[0:8])
	m.ModelVersion = binary.LittleEndian.Uint64(src[8:16])
	ids, rest, err := readSampleIDs(src[16:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ErrShortPayload
	}
	m.SampleIDs = ids
	return nil
}

// SummaryBatch is a device's reply to a CaptureBatch: one class-summary
// row per present sample of the batch, in batch order. Present has bit i
// set when the device produced a summary for the batch's i-th sample
// (absent frames — feed errors — clear the bit), and Probs holds exactly
// popcount(Present)·Classes float32 values. Each present row charges the
// same 4·|C| bytes of Eq. (1) as an unbatched LocalSummary.
type SummaryBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// Device is the sending device's index.
	Device uint16
	// Classes is the model's class count (the width of each Probs row).
	Classes uint16
	// Count is the batch length (the number of samples in the
	// CaptureBatch this answers).
	Count uint16
	// Present is the PackPresent bitmask over batch positions.
	Present []byte
	// Probs holds the summary rows of present samples, batch order.
	Probs []float32
}

// MsgType implements Message.
func (*SummaryBatch) MsgType() MsgType { return TypeSummaryBatch }

// SessionID implements Sessioned.
func (m *SummaryBatch) SessionID() uint64 { return m.Session }

// PresentCount returns the number of samples with a summary row.
func (m *SummaryBatch) PresentCount() int {
	c := 0
	for _, b := range m.Present {
		c += bits.OnesCount8(b)
	}
	return c
}

func (m *SummaryBatch) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint16(dst, m.Device)
	dst = binary.LittleEndian.AppendUint16(dst, m.Classes)
	dst = binary.LittleEndian.AppendUint16(dst, m.Count)
	dst = append(dst, m.Present...)
	for _, p := range m.Probs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p))
	}
	return dst
}

func (m *SummaryBatch) decodePayload(src []byte) error {
	if len(src) < 14 {
		return ErrShortPayload
	}
	m.Session = binary.LittleEndian.Uint64(src[0:8])
	m.Device = binary.LittleEndian.Uint16(src[8:10])
	m.Classes = binary.LittleEndian.Uint16(src[10:12])
	m.Count = binary.LittleEndian.Uint16(src[12:14])
	src = src[14:]
	pb := (int(m.Count) + 7) / 8
	if len(src) < pb {
		return ErrShortPayload
	}
	m.Present = append([]byte(nil), src[:pb]...)
	src = src[pb:]
	n := m.PresentCount() * int(m.Classes)
	if len(src) != 4*n {
		return ErrShortPayload
	}
	m.Probs = make([]float32, n)
	for i := range m.Probs {
		m.Probs[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return nil
}

// FeatureBatchRequest asks a device for the binarized feature maps of the
// listed samples — the subset of an earlier CaptureBatch that missed the
// local exit. The device answers with a FeatureBatch in the same order.
type FeatureBatchRequest struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// SampleIDs lists the batch's samples, in batch order.
	SampleIDs []uint64
}

// MsgType implements Message.
func (*FeatureBatchRequest) MsgType() MsgType { return TypeFeatureBatchRequest }

// SessionID implements Sessioned.
func (m *FeatureBatchRequest) SessionID() uint64 { return m.Session }

func (m *FeatureBatchRequest) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
	return appendSampleIDs(dst, m.SampleIDs)
}

func (m *FeatureBatchRequest) decodePayload(src []byte) error {
	if len(src) < 16 {
		return ErrShortPayload
	}
	m.Session = binary.LittleEndian.Uint64(src[0:8])
	m.ModelVersion = binary.LittleEndian.Uint64(src[8:16])
	ids, rest, err := readSampleIDs(src[16:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ErrShortPayload
	}
	m.SampleIDs = ids
	return nil
}

// FeatureBatch carries one device's bit-packed binarized feature maps for
// Count samples: Count independent PackFeature payloads of (F·H·W+7)/8
// bytes each, concatenated in the order of the request (FeatureBatchRequest
// on the device uplink, the batched classify header's per-sample masks on
// the relay upstream). Each sample charges the same f·o/8 bytes of Eq. (1)
// as an unbatched FeatureUpload.
type FeatureBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// Device is the sending device's index.
	Device uint16
	// F, H, W give the packed feature map's shape: filters × height × width.
	F, H, W uint16
	// Count is the number of samples in the batch.
	Count uint16
	// Bits is the LSB-first bit-packed binarized feature payload.
	Bits []byte
}

// MsgType implements Message.
func (*FeatureBatch) MsgType() MsgType { return TypeFeatureBatch }

// SessionID implements Sessioned.
func (m *FeatureBatch) SessionID() uint64 { return m.Session }

// SampleBytes returns the packed size of one sample's feature map.
func (m *FeatureBatch) SampleBytes() int {
	return (int(m.F)*int(m.H)*int(m.W) + 7) / 8
}

// Sample returns the packed bits of the i-th sample.
func (m *FeatureBatch) Sample(i int) []byte {
	sb := m.SampleBytes()
	return m.Bits[i*sb : (i+1)*sb]
}

func (m *FeatureBatch) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint16(dst, m.Device)
	dst = binary.LittleEndian.AppendUint16(dst, m.F)
	dst = binary.LittleEndian.AppendUint16(dst, m.H)
	dst = binary.LittleEndian.AppendUint16(dst, m.W)
	dst = binary.LittleEndian.AppendUint16(dst, m.Count)
	return append(dst, m.Bits...)
}

func (m *FeatureBatch) decodePayload(src []byte) error {
	if len(src) < 18 {
		return ErrShortPayload
	}
	m.Session = binary.LittleEndian.Uint64(src[0:8])
	m.Device = binary.LittleEndian.Uint16(src[8:10])
	m.F = binary.LittleEndian.Uint16(src[10:12])
	m.H = binary.LittleEndian.Uint16(src[12:14])
	m.W = binary.LittleEndian.Uint16(src[14:16])
	m.Count = binary.LittleEndian.Uint16(src[16:18])
	src = src[18:]
	want := int(m.Count) * m.SampleBytes()
	if len(src) != want {
		return fmt.Errorf("wire: feature batch has %d bytes for %d samples of %d×%d×%d bits (want %d)",
			len(src), m.Count, m.F, m.H, m.W, want)
	}
	m.Bits = append([]byte(nil), src...)
	return nil
}

// CloudClassifyBatch opens a batched cloud classification session: it
// lists the escalating samples and, per sample, the bitmask of devices
// whose features follow (masks may differ across samples — a device can
// drop out mid-batch). The gateway then relays one FeatureBatch per
// device in the union of the masks, each carrying that device's present
// samples in batch order, and the cloud answers with a single
// ResultBatch.
type CloudClassifyBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// Devices is the total device count in the hierarchy.
	Devices uint16
	// SampleIDs lists the escalating samples, batch order.
	SampleIDs []uint64
	// Masks[i] has bit d set when device d's features cover sample i.
	Masks []uint16
}

// MsgType implements Message.
func (*CloudClassifyBatch) MsgType() MsgType { return TypeCloudClassifyBatch }

// SessionID implements Sessioned.
func (m *CloudClassifyBatch) SessionID() uint64 { return m.Session }

// appendIDMaskPairs encodes the shared (count, ids, masks) tail of the
// batched classify headers.
func appendIDMaskPairs(dst []byte, ids []uint64, masks []uint16) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ids)))
	for i, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, id)
		dst = binary.LittleEndian.AppendUint16(dst, masks[i])
	}
	return dst
}

func readIDMaskPairs(src []byte) ([]uint64, []uint16, []byte, error) {
	if len(src) < 2 {
		return nil, nil, nil, ErrShortPayload
	}
	n := int(binary.LittleEndian.Uint16(src[0:2]))
	src = src[2:]
	if len(src) < 10*n {
		return nil, nil, nil, ErrShortPayload
	}
	ids := make([]uint64, n)
	masks := make([]uint16, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(src[10*i:])
		masks[i] = binary.LittleEndian.Uint16(src[10*i+8:])
	}
	return ids, masks, src[10*n:], nil
}

func (m *CloudClassifyBatch) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
	dst = binary.LittleEndian.AppendUint16(dst, m.Devices)
	return appendIDMaskPairs(dst, m.SampleIDs, m.Masks)
}

func (m *CloudClassifyBatch) decodePayload(src []byte) error {
	if len(src) < 18 {
		return ErrShortPayload
	}
	m.Session = binary.LittleEndian.Uint64(src[0:8])
	m.ModelVersion = binary.LittleEndian.Uint64(src[8:16])
	m.Devices = binary.LittleEndian.Uint16(src[16:18])
	ids, masks, rest, err := readIDMaskPairs(src[18:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ErrShortPayload
	}
	m.SampleIDs, m.Masks = ids, masks
	return nil
}

// EdgeClassifyBatch opens a batched edge classification session: the
// batched analogue of EdgeClassify, carrying per-sample device masks like
// CloudClassifyBatch plus the remaining pipeline thresholds (nearest tier
// first). The edge answers the whole batch with one ResultBatch; samples
// confident at the edge exit carry ExitEdge, the rest ride an
// EdgeFeatureBatch to the cloud and come back with its verdicts.
type EdgeClassifyBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// Devices is the total device count in the hierarchy.
	Devices uint16
	// SampleIDs lists the escalating samples, batch order.
	SampleIDs []uint64
	// Masks[i] has bit d set when device d's features cover sample i.
	Masks []uint16
	// Thresholds holds the remaining exit thresholds, nearest tier first,
	// at full float64 precision (see EdgeClassify).
	Thresholds []float64
}

// MsgType implements Message.
func (*EdgeClassifyBatch) MsgType() MsgType { return TypeEdgeClassifyBatch }

// SessionID implements Sessioned.
func (m *EdgeClassifyBatch) SessionID() uint64 { return m.Session }

func (m *EdgeClassifyBatch) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
	dst = binary.LittleEndian.AppendUint16(dst, m.Devices)
	dst = appendIDMaskPairs(dst, m.SampleIDs, m.Masks)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Thresholds)))
	for _, t := range m.Thresholds {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
	}
	return dst
}

func (m *EdgeClassifyBatch) decodePayload(src []byte) error {
	if len(src) < 18 {
		return ErrShortPayload
	}
	m.Session = binary.LittleEndian.Uint64(src[0:8])
	m.ModelVersion = binary.LittleEndian.Uint64(src[8:16])
	m.Devices = binary.LittleEndian.Uint16(src[16:18])
	ids, masks, rest, err := readIDMaskPairs(src[18:])
	if err != nil {
		return err
	}
	if len(rest) < 2 {
		return ErrShortPayload
	}
	n := int(binary.LittleEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if len(rest) != 8*n {
		return ErrShortPayload
	}
	m.Thresholds = make([]float64, n)
	for i := range m.Thresholds {
		m.Thresholds[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	m.SampleIDs, m.Masks = ids, masks
	return nil
}

// EdgeFeatureBatch carries the bit-packed edge feature maps of the
// samples that missed the edge exit — the batched analogue of
// EdgeFeature. Bits concatenates one PackFeature payload of (F·H·W+7)/8
// bytes per sample, in SampleIDs order. The cloud answers with one
// ResultBatch.
type EdgeFeatureBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// F, H, W give the packed feature map's shape: filters × height × width.
	F, H, W uint16
	// SampleIDs lists the batch's samples, in batch order.
	SampleIDs []uint64
	// Bits is the LSB-first bit-packed binarized feature payload.
	Bits []byte
}

// MsgType implements Message.
func (*EdgeFeatureBatch) MsgType() MsgType { return TypeEdgeFeatureBatch }

// SessionID implements Sessioned.
func (m *EdgeFeatureBatch) SessionID() uint64 { return m.Session }

// SampleBytes returns the packed size of one sample's feature map.
func (m *EdgeFeatureBatch) SampleBytes() int {
	return (int(m.F)*int(m.H)*int(m.W) + 7) / 8
}

// Sample returns the packed bits of the i-th sample.
func (m *EdgeFeatureBatch) Sample(i int) []byte {
	sb := m.SampleBytes()
	return m.Bits[i*sb : (i+1)*sb]
}

func (m *EdgeFeatureBatch) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint64(dst, m.ModelVersion)
	dst = binary.LittleEndian.AppendUint16(dst, m.F)
	dst = binary.LittleEndian.AppendUint16(dst, m.H)
	dst = binary.LittleEndian.AppendUint16(dst, m.W)
	dst = appendSampleIDs(dst, m.SampleIDs)
	return append(dst, m.Bits...)
}

func (m *EdgeFeatureBatch) decodePayload(src []byte) error {
	if len(src) < 22 {
		return ErrShortPayload
	}
	m.Session = binary.LittleEndian.Uint64(src[0:8])
	m.ModelVersion = binary.LittleEndian.Uint64(src[8:16])
	m.F = binary.LittleEndian.Uint16(src[16:18])
	m.H = binary.LittleEndian.Uint16(src[18:20])
	m.W = binary.LittleEndian.Uint16(src[20:22])
	ids, rest, err := readSampleIDs(src[22:])
	if err != nil {
		return err
	}
	want := len(ids) * m.SampleBytes()
	if len(rest) != want {
		return fmt.Errorf("wire: edge feature batch has %d bytes for %d samples of %d×%d×%d bits (want %d)",
			len(rest), len(ids), m.F, m.H, m.W, want)
	}
	m.SampleIDs = ids
	m.Bits = append([]byte(nil), rest...)
	return nil
}

// BatchVerdict is one sample's outcome inside a ResultBatch.
type BatchVerdict struct {
	// SampleID identifies the sample being classified.
	SampleID uint64
	// Exit names the tier that produced the verdict.
	Exit ExitPoint
	// Class is the predicted class index.
	Class uint16
	// Probs holds the per-class probabilities.
	Probs []float32
}

// ResultBatch reports the per-sample verdicts of one batched
// classification session in a single frame — the batched analogue of
// ClassifyResult. Verdicts may carry different exits: in a three-tier
// hierarchy the edge answers its confident samples at ExitEdge and relays
// cloud verdicts for the rest.
type ResultBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// Verdicts are the per-sample results, in header order.
	Verdicts []BatchVerdict
}

// MsgType implements Message.
func (*ResultBatch) MsgType() MsgType { return TypeResultBatch }

// SessionID implements Sessioned.
func (m *ResultBatch) SessionID() uint64 { return m.Session }

func (m *ResultBatch) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Session)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Verdicts)))
	for _, v := range m.Verdicts {
		dst = binary.LittleEndian.AppendUint64(dst, v.SampleID)
		dst = append(dst, byte(v.Exit))
		dst = binary.LittleEndian.AppendUint16(dst, v.Class)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Probs)))
		for _, p := range v.Probs {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p))
		}
	}
	return dst
}

func (m *ResultBatch) decodePayload(src []byte) error {
	if len(src) < 10 {
		return ErrShortPayload
	}
	m.Session = binary.LittleEndian.Uint64(src[0:8])
	n := int(binary.LittleEndian.Uint16(src[8:10]))
	src = src[10:]
	m.Verdicts = make([]BatchVerdict, 0, n)
	for i := 0; i < n; i++ {
		if len(src) < 13 {
			return ErrShortPayload
		}
		v := BatchVerdict{
			SampleID: binary.LittleEndian.Uint64(src[0:8]),
			Exit:     ExitPoint(src[8]),
			Class:    binary.LittleEndian.Uint16(src[9:11]),
		}
		np := int(binary.LittleEndian.Uint16(src[11:13]))
		src = src[13:]
		if len(src) < 4*np {
			return ErrShortPayload
		}
		v.Probs = make([]float32, np)
		for j := range v.Probs {
			v.Probs[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:]))
		}
		src = src[4*np:]
		m.Verdicts = append(m.Verdicts, v)
	}
	if len(src) != 0 {
		return ErrShortPayload
	}
	return nil
}
