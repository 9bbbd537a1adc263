// Package modelio serializes trained DDNN models to a compact, versioned
// binary format, so a model trained once (in the cloud, §III-C) can be
// checkpointed and deployed onto the nodes of the hierarchy.
//
// Format version 2 stamps each artifact with a model version — the
// registry key a rolling reload pins sessions to — and protects every
// tensor with a CRC32C checksum, so a torn or bit-flipped checkpoint is
// rejected at the registry boundary (ErrCorruptModel) instead of serving
// silently wrong weights. Version-1 artifacts load unchanged and carry
// the implicit model version 1.
package modelio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// magic identifies DDNN model files.
var magic = [8]byte{'D', 'D', 'N', 'N', 'M', 'O', 'D', 'L'}

// version is the current file-format version. Version 2 added the model
// version stamp and per-tensor CRC32C checksums.
const version uint16 = 2

// maxTensorElems guards against corrupt headers.
const maxTensorElems = 64 << 20

// maxNameLen bounds a declared tensor-name length; real state-dict names
// are tens of bytes.
const maxNameLen = 4096

// Typed artifact errors.
var (
	// ErrCorruptModel reports an artifact whose bytes cannot be a valid
	// model: bad magic, a truncated or over-declared section, a tensor
	// the declared configuration does not contain, or a checksum
	// mismatch. It is the registry's reject-at-the-door error.
	ErrCorruptModel = errors.New("modelio: corrupt model artifact")
	// ErrVersionUnsupported reports an artifact written by a newer
	// format version than this build understands.
	ErrVersionUnsupported = errors.New("modelio: unsupported artifact format version")
	// ErrBadFormat is the legacy malformed-file sentinel; every
	// ErrBadFormat is also an ErrCorruptModel.
	ErrBadFormat = fmt.Errorf("modelio: bad model file: %w", ErrCorruptModel)
)

// castagnoli is the CRC32C table used for tensor checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the model's configuration and full state to w, stamped
// with model version 1 (the implicit version of an unversioned
// checkpoint).
func Save(w io.Writer, m *core.Model) error {
	return SaveVersion(w, m, 1)
}

// SaveVersion writes the model stamped with an explicit model version.
// The version must be nonzero: 0 is the wire sentinel for "whatever
// version is active".
func SaveVersion(w io.Writer, m *core.Model, modelVersion uint64) error {
	if modelVersion == 0 {
		return fmt.Errorf("modelio: model version 0 is reserved")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("modelio: write magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, version); err != nil {
		return fmt.Errorf("modelio: write version: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, modelVersion); err != nil {
		return fmt.Errorf("modelio: write model version: %w", err)
	}
	if err := writeConfig(bw, m.Cfg); err != nil {
		return err
	}
	state := m.StateDict()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(state))); err != nil {
		return fmt.Errorf("modelio: write tensor count: %w", err)
	}
	for _, nt := range state {
		if err := writeTensor(bw, nt); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("modelio: flush: %w", err)
	}
	return nil
}

// Load reads a model file and reconstructs the trained model.
func Load(r io.Reader) (*core.Model, error) {
	m, _, err := LoadVersioned(r)
	return m, err
}

// LoadVersioned reads a model artifact and returns the reconstructed
// model together with its model-version stamp (1 for version-1 files,
// which predate the stamp). Decoding is bounded: tensor headers are
// validated against the declared configuration's own state dict before
// any data-sized allocation, so a hostile header yields a typed error,
// never an OOM.
func LoadVersioned(r io.Reader) (*core.Model, uint64, error) {
	br := bufio.NewReader(r)
	var gotMagic [8]byte
	if _, err := io.ReadFull(br, gotMagic[:]); err != nil {
		return nil, 0, corrupt("read magic", err)
	}
	if gotMagic != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	var v uint16
	if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
		return nil, 0, corrupt("read version", err)
	}
	if v == 0 || v > version {
		return nil, 0, fmt.Errorf("%w: %d (this build reads up to %d)", ErrVersionUnsupported, v, version)
	}
	modelVersion := uint64(1)
	if v >= 2 {
		if err := binary.Read(br, binary.LittleEndian, &modelVersion); err != nil {
			return nil, 0, corrupt("read model version", err)
		}
		if modelVersion == 0 {
			return nil, 0, fmt.Errorf("modelio: %w: model version 0 is reserved", ErrCorruptModel)
		}
	}
	cfg, err := readConfig(br)
	if err != nil {
		return nil, 0, err
	}
	if err := boundConfig(cfg); err != nil {
		return nil, 0, err
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("modelio: rebuild model: %w: %w", err, ErrCorruptModel)
	}
	// The declared config fixes the complete set of tensor names and
	// sizes; every header is validated against it before its data is
	// read, bounding allocations to the model's true footprint.
	want := m.StateDict()
	expect := make(map[string]*tensor.Tensor, len(want))
	for _, nt := range want {
		expect[nt.Name] = nt.T
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, 0, corrupt("read tensor count", err)
	}
	if int(count) != len(want) {
		return nil, 0, fmt.Errorf("modelio: %w: artifact declares %d tensors, config needs %d", ErrCorruptModel, count, len(want))
	}
	state := make([]core.NamedTensor, 0, count)
	for i := uint32(0); i < count; i++ {
		nt, err := readTensor(br, v, expect)
		if err != nil {
			return nil, 0, err
		}
		state = append(state, nt)
	}
	if err := m.LoadStateDict(state); err != nil {
		return nil, 0, fmt.Errorf("modelio: %w: %w", err, ErrCorruptModel)
	}
	return m, modelVersion, nil
}

// SaveFile writes the model to a file path.
func SaveFile(path string, m *core.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	if err := Save(f, m); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("modelio: close %s: %w", path, err)
	}
	return nil
}

// SaveFileAtomic writes the model to path via a temp file in the same
// directory, fsyncs, then renames into place — a crash mid-save can
// leave a stale or absent file but never a torn artifact for the
// registry to load.
func SaveFileAtomic(path string, m *core.Model, modelVersion uint64) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if err := SaveVersion(f, m, modelVersion); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("modelio: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("modelio: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("modelio: rename %s: %w", path, err)
	}
	// Persist the rename itself; best-effort on filesystems that do not
	// support directory fsync.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// LoadFile reads a model from a file path.
func LoadFile(path string) (*core.Model, error) {
	m, _, err := LoadFileVersioned(path)
	return m, err
}

// LoadFileVersioned reads a model from a file path together with its
// model-version stamp; see LoadVersioned.
func LoadFileVersioned(path string) (*core.Model, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	return LoadVersioned(f)
}

// corrupt wraps a read failure as a typed corrupt-artifact error: any
// truncation of a structurally valid prefix is corruption.
func corrupt(what string, err error) error {
	return fmt.Errorf("modelio: %s: %w: %w", what, err, ErrCorruptModel)
}

// boundConfig rejects declared configurations whose reconstruction
// would allocate far beyond any real DDNN, before core.NewModel runs.
// Legitimate configs are nowhere near these ceilings.
func boundConfig(cfg core.Config) error {
	switch {
	case cfg.Devices > 16:
		return fmt.Errorf("modelio: %w: %d devices", ErrCorruptModel, cfg.Devices)
	case cfg.Classes > 4096:
		return fmt.Errorf("modelio: %w: %d classes", ErrCorruptModel, cfg.Classes)
	case cfg.InputC > tensor.FrameMaxChannels || cfg.InputH > 512 || cfg.InputW > 512:
		return fmt.Errorf("modelio: %w: input shape %d×%d×%d", ErrCorruptModel, cfg.InputC, cfg.InputH, cfg.InputW)
	case cfg.DeviceFilters > 128 || cfg.CloudFilters > 128 || cfg.EdgeFilters > 128:
		return fmt.Errorf("modelio: %w: filter counts %d/%d/%d", ErrCorruptModel, cfg.DeviceFilters, cfg.CloudFilters, cfg.EdgeFilters)
	}
	// The cloud section pools its input twice (and the edge tier halves
	// it first); inputs too small for that panic in core.NewModel, so
	// reject them here with a typed error instead.
	minInput := 8
	if cfg.UseEdge {
		minInput = 16
	}
	if cfg.InputH < minInput || cfg.InputW < minInput {
		return fmt.Errorf("modelio: %w: input %d×%d too small for the cloud section", ErrCorruptModel, cfg.InputH, cfg.InputW)
	}
	// The dominant tensors are the exit-head weights (features × classes,
	// once per device) and the aggregated conv inputs upstream; bound the
	// per-tensor and whole-model estimates before core.NewModel allocates.
	featIn := cfg.DeviceFilters * cfg.FeatureH() * cfg.FeatureW()
	if featIn*cfg.Classes > 1<<24 {
		return fmt.Errorf("modelio: %w: exit head of %d×%d elements", ErrCorruptModel, featIn, cfg.Classes)
	}
	if cfg.Devices*featIn*cfg.Classes > 1<<25 {
		return fmt.Errorf("modelio: %w: model of ~%d device-exit elements", ErrCorruptModel, cfg.Devices*featIn*cfg.Classes)
	}
	return nil
}

func writeConfig(w io.Writer, cfg core.Config) error {
	useEdge := uint8(0)
	if cfg.UseEdge {
		useEdge = 1
	}
	floatCloud := uint8(0)
	if cfg.FloatCloud {
		floatCloud = 1
	}
	fields := []any{
		uint32(cfg.Devices), uint32(cfg.Classes),
		uint32(cfg.InputC), uint32(cfg.InputH), uint32(cfg.InputW),
		uint32(cfg.DeviceFilters), uint32(cfg.CloudFilters),
		uint8(cfg.LocalAgg), uint8(cfg.CloudAgg),
		useEdge, uint32(cfg.EdgeFilters), uint8(cfg.EdgeAgg),
		floatCloud, cfg.Seed,
	}
	for _, f := range fields {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return fmt.Errorf("modelio: write config: %w", err)
		}
	}
	return nil
}

func readConfig(r io.Reader) (core.Config, error) {
	var (
		devices, classes, inC, inH, inW, devF, cloudF, edgeF uint32
		localAgg, cloudAgg, useEdge, edgeAgg, floatCloud     uint8
		seed                                                 int64
	)
	fields := []any{
		&devices, &classes, &inC, &inH, &inW, &devF, &cloudF,
		&localAgg, &cloudAgg, &useEdge, &edgeF, &edgeAgg, &floatCloud, &seed,
	}
	for _, f := range fields {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return core.Config{}, corrupt("read config", err)
		}
	}
	return core.Config{
		Devices: int(devices), Classes: int(classes),
		InputC: int(inC), InputH: int(inH), InputW: int(inW),
		DeviceFilters: int(devF), CloudFilters: int(cloudF),
		LocalAgg: agg.Scheme(localAgg), CloudAgg: agg.Scheme(cloudAgg),
		UseEdge: useEdge != 0, EdgeFilters: int(edgeF), EdgeAgg: agg.Scheme(edgeAgg),
		FloatCloud: floatCloud != 0, Seed: seed,
	}, nil
}

func writeTensor(w io.Writer, nt core.NamedTensor) error {
	name := []byte(nt.Name)
	if err := binary.Write(w, binary.LittleEndian, uint16(len(name))); err != nil {
		return fmt.Errorf("modelio: write tensor name len: %w", err)
	}
	if _, err := w.Write(name); err != nil {
		return fmt.Errorf("modelio: write tensor name: %w", err)
	}
	shape := nt.T.Shape()
	if err := binary.Write(w, binary.LittleEndian, uint8(len(shape))); err != nil {
		return fmt.Errorf("modelio: write tensor rank: %w", err)
	}
	for _, d := range shape {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return fmt.Errorf("modelio: write tensor dim: %w", err)
		}
	}
	buf := make([]byte, 4*len(nt.T.Data()))
	for i, v := range nt.T.Data() {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	if err := binary.Write(w, binary.LittleEndian, crc32.Checksum(buf, castagnoli)); err != nil {
		return fmt.Errorf("modelio: write tensor checksum: %w", err)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("modelio: write tensor data: %w", err)
	}
	return nil
}

// readTensor decodes one tensor record of format version v. expect maps
// the declared configuration's tensor names to their true shapes; a
// header naming an unknown tensor or declaring a mismatched size is
// rejected before the data allocation.
func readTensor(r io.Reader, v uint16, expect map[string]*tensor.Tensor) (core.NamedTensor, error) {
	var nameLen uint16
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return core.NamedTensor{}, corrupt("read tensor name len", err)
	}
	if nameLen > maxNameLen {
		return core.NamedTensor{}, fmt.Errorf("modelio: %w: tensor name of %d bytes", ErrCorruptModel, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return core.NamedTensor{}, corrupt("read tensor name", err)
	}
	var rank uint8
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return core.NamedTensor{}, corrupt("read tensor rank", err)
	}
	if rank == 0 || rank > 8 {
		return core.NamedTensor{}, fmt.Errorf("%w: tensor %q has rank %d", ErrBadFormat, name, rank)
	}
	shape := make([]int, rank)
	elems := 1
	for i := range shape {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return core.NamedTensor{}, corrupt("read tensor dim", err)
		}
		if d == 0 || int(d) > maxTensorElems {
			return core.NamedTensor{}, fmt.Errorf("%w: tensor %q has dim %d", ErrBadFormat, name, d)
		}
		shape[i] = int(d)
		elems *= int(d)
		if elems > maxTensorElems {
			return core.NamedTensor{}, fmt.Errorf("%w: tensor %q too large", ErrBadFormat, name)
		}
	}
	dst, ok := expect[string(name)]
	if !ok {
		return core.NamedTensor{}, fmt.Errorf("modelio: %w: config has no tensor %q", ErrCorruptModel, name)
	}
	if elems != dst.Size() {
		return core.NamedTensor{}, fmt.Errorf("modelio: %w: tensor %q declares %d elements, config needs %d", ErrCorruptModel, name, elems, dst.Size())
	}
	var wantSum uint32
	if v >= 2 {
		if err := binary.Read(r, binary.LittleEndian, &wantSum); err != nil {
			return core.NamedTensor{}, corrupt("read tensor checksum", err)
		}
	}
	buf := make([]byte, 4*elems)
	if _, err := io.ReadFull(r, buf); err != nil {
		return core.NamedTensor{}, corrupt("read tensor data", err)
	}
	if v >= 2 {
		if got := crc32.Checksum(buf, castagnoli); got != wantSum {
			return core.NamedTensor{}, fmt.Errorf("modelio: %w: tensor %q checksum %08x, want %08x", ErrCorruptModel, name, got, wantSum)
		}
	}
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return core.NamedTensor{Name: string(name), T: t}, nil
}
