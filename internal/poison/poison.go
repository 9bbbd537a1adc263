//go:build ddnnpoison

// Package poison is the use-after-release tripwire of the serving path's
// pooled memory. Built with the ddnnpoison tag (a test-only switch:
// go test -tags ddnnpoison), every frame buffer and session free-list
// entry is overwritten with Pattern when it is released, and dropped
// instead of reused, so a reader that still holds it sees garbage — a
// wrong answer or a failed check — instead of plausible stale data.
// Without the tag On is false and Fill does nothing.
package poison

import (
	"math"
	"reflect"
	"unsafe"
)

// On reports whether this build poisons released memory.
const On = true

// Pattern is the byte released memory is overwritten with.
const Pattern = 0xA5

// Fill overwrites what v points at: every byte, integer and float —
// including the elements of slices and arrays and the fields of nested
// structs — becomes Pattern repeated, and every string a marker. Pointers,
// maps, channels, functions and interfaces are left alone, so shared
// objects reachable from v are never touched. Slices are filled up to
// their capacity. v must be a non-nil pointer.
func Fill(v any) {
	fill(reflect.ValueOf(v).Elem())
}

func fill(v reflect.Value) {
	if !v.CanSet() && v.CanAddr() {
		// Unexported fields: reach them through their address.
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(pattern(v.Type().Bits())))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(pattern(v.Type().Bits()))
	case reflect.Float32:
		v.SetFloat(float64(math.Float32frombits(uint32(pattern(32)))))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(pattern(64)))
	case reflect.String:
		v.SetString("☠released")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b := v.Slice(0, v.Cap()).Bytes()
			for i := range b {
				b[i] = Pattern
			}
			return
		}
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			fill(full.Index(i))
		}
	}
}

// pattern is Pattern repeated over an integer of the given width.
func pattern(bits int) uint64 {
	return 0xA5A5A5A5A5A5A5A5 >> (64 - bits)
}
