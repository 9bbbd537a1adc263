package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// reader is a bounds-checked cursor over one frame payload. A decoder
// reads its fields in layout order and calls end once: the first read
// past the end makes the payload short, and every later read returns a
// zero value, so no decoder computes an offset or a minimum length.
// Counted lists check their byte length against what is left before
// allocating, so a hostile count costs no more than the bytes it came in.
// A malformed uvarint fails the payload the same way, with ErrBadVarint.
//
// Every list read takes the slice the message held before and reuses its
// storage when it has room, so a message a Decoder decodes into again
// allocates nothing once its slices have grown; a fresh message (Decode)
// gets fresh slices.
type reader struct {
	buf   []byte
	short bool
	// bad marks a uvarint that is overlong, non-minimal or past its
	// field's range.
	bad bool
	// alias makes byte fields (bytes, features) views of buf instead of
	// copies: a Decoder's frame keeps its buffer until released.
	alias bool
}

// resize returns dst with length n, reusing its storage when it has room;
// a nil dst gets fresh storage, so a fresh message's empty list is
// non-nil.
func resize[T any](dst []T, n int) []T {
	if dst == nil || cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// take returns a view of the next n bytes, or nil once the payload is
// short.
func (r *reader) take(n int) []byte {
	if uint(n) > uint(len(r.buf)) {
		r.fail()
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// fail makes the payload short: buf empties, so every later read fails.
func (r *reader) fail() { r.buf, r.short = nil, true }

// malformed fails the payload on a bad uvarint.
func (r *reader) malformed() { r.fail(); r.bad = true }

// rest returns a view of every byte left.
func (r *reader) rest() []byte { return r.take(len(r.buf)) }

// end returns ErrBadVarint after a malformed uvarint, and
// ErrShortPayload after a short read or when bytes are left over:
// trailing bytes are an error, not padding.
func (r *reader) end() error {
	switch {
	case r.bad:
		return ErrBadVarint
	case r.short || len(r.buf) != 0:
		return ErrShortPayload
	}
	return nil
}

// zeros is what a fixed-width read sees once the payload is short.
var zeros [8]byte

// fixed returns a view of the next n ≤ 8 bytes, or n zero bytes once
// the payload is short.
func (r *reader) fixed(n int) []byte {
	if len(r.buf) < n {
		r.fail()
		return zeros[:n]
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) u8() uint8   { return r.fixed(1)[0] }
func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// uv reads a uvarint. Every value has exactly one encoding: one that
// runs past ten bytes or 64 bits, or ends in a zero byte after the
// first, is malformed.
func (r *reader) uv() uint64 {
	if b := r.buf; len(b) > 0 && b[0] < 0x80 {
		r.buf = b[1:]
		return uint64(b[0])
	}
	v, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.fail()
		return 0
	case n < 0 || r.buf[n-1] == 0:
		r.malformed()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// uv16 reads a uvarint that must fit a uint16.
func (r *reader) uv16() uint16 {
	v := r.uv()
	if v > math.MaxUint16 {
		r.malformed()
		return 0
	}
	return uint16(v)
}

// str reads a string: u16 length + bytes. It returns prev when prev
// already holds those bytes, so a reused message re-reading the same
// string (a heartbeat's node ID) does not allocate.
func (r *reader) str(prev string) string {
	b := r.take(int(r.u16()))
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// bytes returns the next n bytes: a view of the frame buffer when
// aliasing, else a copy (nil for none).
func (r *reader) bytes(n int) []byte {
	if r.alias {
		return r.take(n)
	}
	return append([]byte(nil), r.take(n)...)
}

// count reads a uvarint element count (at most 0xFFFF) and checks that
// count elements of at least size bytes each are left, returning 0 on a
// short payload.
func (r *reader) count(size int) int {
	n := int(r.uv16())
	if n*size > len(r.buf) {
		r.fail()
		n = 0
	}
	return n
}

// ids reads a sample-ID list: uvarint count + count × uvarint ID.
func (r *reader) ids(dst []uint64) []uint64 {
	ids := resize(dst, r.count(1))
	for i := range ids {
		ids[i] = r.uv()
	}
	return ids
}

// idMasks reads an ID+mask list: uvarint count + count × (uvarint ID,
// u16 mask).
func (r *reader) idMasks(idDst []uint64, maskDst []uint16) ([]uint64, []uint16) {
	n := r.count(3)
	ids, masks := resize(idDst, n), resize(maskDst, n)
	for i := range ids {
		ids[i], masks[i] = r.uv(), r.u16()
	}
	return ids, masks
}

// f32s reads a run of n float32 values.
func (r *reader) f32s(n int, dst []float32) []float32 {
	b := r.take(4 * n)
	out := resize(dst, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// f64s reads a run of n float64 values.
func (r *reader) f64s(n int, dst []float64) []float64 {
	b := r.take(8 * n)
	out := resize(dst, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// featureBytes is the packed size of one f×h×w feature map:
// ceil(f·h·w/8) bytes.
func featureBytes(f, h, w uint16) int { return (int(f)*int(h)*int(w) + 7) / 8 }

// features ends a payload whose last field is packed feature bits: it
// returns end's error first, then checks the bits against their declared
// shape — count maps of f×h×w bits — and returns them, copied out of the
// frame buffer unless the reader aliases it. A shape mismatch is a
// descriptive error naming the frame.
func (r *reader) features(frame string, bits []byte, count int, f, h, w uint16) ([]byte, error) {
	if err := r.end(); err != nil {
		return nil, err
	}
	// A map larger than any payload fails before the product can overflow.
	if fb := featureBytes(f, h, w); fb > MaxPayload || len(bits) != count*fb {
		return nil, fmt.Errorf("wire: %s has %d bytes for %d maps of %d×%d×%d bits", frame, len(bits), count, f, h, w)
	}
	if r.alias {
		return bits, nil
	}
	return append([]byte(nil), bits...), nil
}

// deviceFeats ends a classify header, whose last field is one block of
// f×h×w feature maps per device in the union of masks, in device order:
// device d's block holds a map for every mask with bit d set. It checks
// the blocks' total size with features and returns them indexed by
// device, up to the highest device in the union; a device outside the
// union gets an empty block.
func (r *reader) deviceFeats(frame string, masks []uint16, f, h, w uint16, dst [][]byte) ([][]byte, error) {
	maps, union := 0, uint16(0)
	for _, m := range masks {
		maps += bits.OnesCount16(m)
		union |= m
	}
	all, err := r.features(frame, r.rest(), maps, f, h, w)
	if err != nil {
		return dst[:0], err
	}
	feats := resize(dst, bits.Len16(union))
	size := featureBytes(f, h, w)
	for d := range feats {
		n := 0
		for _, m := range masks {
			n += int(m>>d) & 1
		}
		feats[d], all = all[:n*size:n*size], all[n*size:]
	}
	return feats, nil
}
