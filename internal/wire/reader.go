package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// reader is a bounds-checked cursor over one frame payload. A decoder
// reads its fields in layout order and calls end once: the first read
// past the end makes the payload short, and every later read returns a
// zero value, so no decoder computes an offset or a minimum length.
// Counted lists check their byte length against what is left before
// allocating, so a hostile count costs no more than the bytes it came in.
//
// Every list read takes the slice the message held before and reuses its
// storage when it has room, so a message a Decoder decodes into again
// allocates nothing once its slices have grown; a fresh message (Decode)
// gets fresh slices.
type reader struct {
	buf   []byte
	short bool
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

// rest returns a view of every byte left.
func (r *reader) rest() []byte { return r.take(len(r.buf)) }

// end returns ErrShortPayload after a short read or when bytes are left
// over: trailing bytes are an error, not padding.
func (r *reader) end() error {
	if r.short || len(r.buf) != 0 {
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

// count reads a u16 element count and checks that count elements of at
// least size bytes each are left, returning 0 on a short payload.
func (r *reader) count(size int) int {
	n := int(r.u16())
	if n*size > len(r.buf) {
		r.fail()
		n = 0
	}
	return n
}

// ids reads a sample-ID list: u16 count + count × u64.
func (r *reader) ids(dst []uint64) []uint64 {
	b := r.take(8 * int(r.u16()))
	ids := resize(dst, len(b)/8)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return ids
}

// idMasks reads an ID+mask list: u16 count + count × (u64 ID, u16 mask).
func (r *reader) idMasks(idDst []uint64, maskDst []uint16) ([]uint64, []uint16) {
	b := r.take(10 * int(r.u16()))
	ids, masks := resize(idDst, len(b)/10), resize(maskDst, len(b)/10)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(b[10*i:])
		masks[i] = binary.LittleEndian.Uint16(b[10*i+8:])
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
	if want := count * featureBytes(f, h, w); len(bits) != want {
		return nil, fmt.Errorf("wire: %s has %d bytes for %d maps of %d×%d×%d bits (want %d)", frame, len(bits), count, f, h, w, want)
	}
	if r.alias {
		return bits, nil
	}
	return append([]byte(nil), bits...), nil
}
