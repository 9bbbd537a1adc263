// Package dataset provides a synthetic stand-in for the multi-view
// multi-camera (MVMC) dataset used in the paper's evaluation (§IV-B). The
// original dataset (six cameras observing the same objects, 680 training
// and 171 test samples over three classes) is no longer downloadable, so
// this generator reproduces the properties the evaluation depends on:
//
//   - every sample is one object seen simultaneously by six devices;
//   - each class renders as a distinct geometric/color pattern, deformed by
//     a per-device viewpoint transform;
//   - objects are absent from some views (an all-grey frame labelled −1),
//     with per-device presence probabilities, which drives the wide spread
//     of individual device accuracies in Fig. 8 and the MP-vs-AP local
//     aggregation result in Table I;
//   - per-device noise levels differ (camera quality), further separating
//     individual accuracies;
//   - class frequencies are imbalanced across devices (Fig. 6).
//
// The generator is fully deterministic given a seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Dataset geometry shared with the paper's evaluation.
const (
	// NumClasses is |C|: car, bus and person (labels 0, 1, 2; §IV-B).
	NumClasses = 3
	// NumDevices is the number of end devices (cameras).
	NumDevices = 6
	// ImageC, ImageH, ImageW describe the 3×32×32 RGB input samples.
	ImageC = 3
	ImageH = 32
	ImageW = 32
	// NotPresent is the per-view label used when the object does not
	// appear in a device's frame.
	NotPresent = -1
)

// ImageSize is the number of float32 values in one view.
const ImageSize = ImageC * ImageH * ImageW

// GridSteps is the number of frame grid steps per unit of pixel value:
// every value of a generated view is q/GridSteps for an integer q in
// 0…255, the byte a camera delivers (the paper prices a raw frame at
// one byte per value, §IV-H). The grid keeps the [0, 1) scale the first
// batch norm sees, and any sum of up to 2¹⁶ ±1-weighted values stays
// exact in float32, so a float convolution over a frame equals an
// integer convolution over its bytes.
const GridSteps = 256

// FrameByte returns the grid index q of a frame value v = q/GridSteps,
// and false when v is off the grid: not a multiple of 1/GridSteps,
// outside [0, 255/GridSteps], or NaN.
func FrameByte(v float32) (byte, bool) {
	q := v * GridSteps // exact: a power-of-two scale
	if !(q >= 0 && q <= 255) || q != float32(int(q)) {
		return 0, false
	}
	return byte(q), true
}

// FrameBytes writes the grid indices of the values of view into dst,
// which has one byte per value. It fails on the first value that is
// off the grid (see FrameByte).
func FrameBytes(dst []byte, view []float32) error {
	if len(dst) != len(view) {
		return fmt.Errorf("dataset: %d bytes for a view of %d values", len(dst), len(view))
	}
	for i, v := range view {
		q, ok := FrameByte(v)
		if !ok {
			return fmt.Errorf("dataset: value %d (%g) is off the frame grid", i, v)
		}
		dst[i] = q
	}
	return nil
}

// quantize rounds a pixel value in [0, 1] to the nearest grid point,
// 1 going to the top one, 255/GridSteps.
func quantize(v float32) float32 {
	q := math.Floor(float64(v)*GridSteps + 0.5)
	return float32(min(max(q, 0), 255)) / GridSteps
}

// ClassNames maps labels to the paper's class names.
var ClassNames = [NumClasses]string{"car", "bus", "person"}

// Sample is one object observed by all devices at the same instant.
type Sample struct {
	// Views holds one 3×32×32 image per device, flattened row-major
	// (channel, row, column). Absent views are all-grey frames.
	Views [][]float32
	// ViewLabels holds the per-view label: the object class when the
	// object appears in the frame, NotPresent otherwise.
	ViewLabels []int
	// Label is the ground-truth object class.
	Label int
}

// Dataset is an in-memory split of MVMC-like samples.
type Dataset struct {
	Samples []Sample
	devices int
}

// Config controls the synthetic generator.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Train and Test are the split sizes. The paper uses 680/171.
	Train, Test int
	// Devices is the number of cameras (paper: 6).
	Devices int
	// Presence[d] is the probability that the object appears in device
	// d's frame. Lower values starve a device of useful views, lowering
	// its individual accuracy exactly as blank frames do in the paper.
	Presence []float64
	// Noise[d] is the per-device Gaussian pixel-noise sigma (camera
	// quality).
	Noise []float64
	// ClassPriors are the global class frequencies (imbalanced, Fig. 6).
	ClassPriors []float64
}

// DefaultConfig returns the configuration used throughout the evaluation:
// six devices whose presence probabilities and noise levels span a wide
// quality range so that individual accuracies spread roughly 40–75% as in
// Fig. 8.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		Train:       680,
		Test:        171,
		Devices:     NumDevices,
		Presence:    []float64{0.48, 0.40, 0.58, 0.68, 0.76, 0.85},
		Noise:       []float64{0.85, 0.95, 0.75, 0.65, 0.55, 0.48},
		ClassPriors: []float64{0.45, 0.33, 0.22},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Train <= 0 || c.Test <= 0 {
		return fmt.Errorf("dataset: split sizes must be positive, got %d/%d", c.Train, c.Test)
	}
	if c.Devices <= 0 {
		return fmt.Errorf("dataset: need at least one device, got %d", c.Devices)
	}
	if len(c.Presence) != c.Devices || len(c.Noise) != c.Devices {
		return fmt.Errorf("dataset: presence/noise must list %d devices", c.Devices)
	}
	if len(c.ClassPriors) != NumClasses {
		return fmt.Errorf("dataset: class priors must list %d classes", NumClasses)
	}
	var s float64
	for _, p := range c.ClassPriors {
		if p < 0 {
			return fmt.Errorf("dataset: negative class prior %g", p)
		}
		s += p
	}
	if s <= 0 {
		return fmt.Errorf("dataset: class priors sum to %g", s)
	}
	return nil
}

// Generate builds the train and test splits.
func Generate(cfg Config) (train, test *Dataset, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(n int) *Dataset {
		ds := &Dataset{Samples: make([]Sample, n), devices: cfg.Devices}
		for i := range ds.Samples {
			ds.Samples[i] = synthesizeSample(rng, cfg)
		}
		return ds
	}
	return gen(cfg.Train), gen(cfg.Test), nil
}

// MustGenerate is Generate for known-good configs; it panics on error.
func MustGenerate(cfg Config) (train, test *Dataset) {
	train, test, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return train, test
}

func sampleClass(rng *rand.Rand, priors []float64) int {
	var total float64
	for _, p := range priors {
		total += p
	}
	r := rng.Float64() * total
	for c, p := range priors {
		if r < p {
			return c
		}
		r -= p
	}
	return len(priors) - 1
}

func synthesizeSample(rng *rand.Rand, cfg Config) Sample {
	label := sampleClass(rng, cfg.ClassPriors)
	s := Sample{
		Views:      make([][]float32, cfg.Devices),
		ViewLabels: make([]int, cfg.Devices),
		Label:      label,
	}
	// Shared per-sample jitter: the same physical object pose seen from
	// every camera.
	jx := rng.Intn(7) - 3
	jy := rng.Intn(5) - 2
	present := 0
	for d := 0; d < cfg.Devices; d++ {
		if rng.Float64() < cfg.Presence[d] {
			s.Views[d] = renderView(rng, label, d, jx, jy, cfg.Noise[d])
			s.ViewLabels[d] = label
			present++
		} else {
			s.Views[d] = greyFrame()
			s.ViewLabels[d] = NotPresent
		}
	}
	// The dataset only contains objects that were captured by at least one
	// camera (every row of the paper's Fig. 5 has at least one real view).
	if present == 0 {
		d := rng.Intn(cfg.Devices)
		s.Views[d] = renderView(rng, label, d, jx, jy, cfg.Noise[d])
		s.ViewLabels[d] = label
	}
	return s
}

// greyFrame is the all-grey image the paper assigns to absent views:
// 0.5, grid index 128.
func greyFrame() []float32 {
	img := make([]float32, ImageSize)
	for i := range img {
		img[i] = 0.5
	}
	return img
}

// classShape describes the rendered pattern for a class: a colored
// rectangle whose aspect ratio distinguishes the classes (wide car, large
// bus, tall thin person) plus a class-specific texture.
type classShape struct {
	w, h    int
	r, g, b float32
	stripes bool // horizontal stripe texture (car windows/wheels)
}

// The car and bus share a red-dominant palette and differ mainly in size
// and texture, which keeps them confusable under noise (as real vehicles
// are at 32×32), while the person silhouette is more distinctive.
var classShapes = [NumClasses]classShape{
	{w: 20, h: 10, r: 0.80, g: 0.30, b: 0.25, stripes: true}, // car
	{w: 24, h: 17, r: 0.80, g: 0.55, b: 0.20},                // bus
	{w: 6, h: 22, r: 0.25, g: 0.35, b: 0.80},                 // person
}

// deviceView is a fixed per-device viewpoint: a horizontal parallax shift,
// a foreshortening factor and a color gain (white balance).
type deviceView struct {
	shift    int
	squeezeW float64
	squeezeH float64
	gainR    float32
	gainG    float32
	gainB    float32
}

var deviceViews = [...]deviceView{
	{shift: -8, squeezeW: 0.70, squeezeH: 1.00, gainR: 0.95, gainG: 1.00, gainB: 1.05},
	{shift: 7, squeezeW: 0.80, squeezeH: 0.85, gainR: 1.08, gainG: 0.95, gainB: 0.92},
	{shift: -4, squeezeW: 1.00, squeezeH: 0.75, gainR: 1.00, gainG: 1.05, gainB: 0.95},
	{shift: 3, squeezeW: 0.90, squeezeH: 0.90, gainR: 0.92, gainG: 1.00, gainB: 1.02},
	{shift: -2, squeezeW: 1.10, squeezeH: 0.95, gainR: 1.02, gainG: 0.98, gainB: 1.00},
	{shift: 0, squeezeW: 1.00, squeezeH: 1.00, gainR: 1.00, gainG: 1.00, gainB: 1.00},
}

// renderView draws the class pattern as seen from device d with shared
// object jitter (jx, jy) and per-device noise.
func renderView(rng *rand.Rand, label, d, jx, jy int, noise float64) []float32 {
	img := make([]float32, ImageSize)
	// Background: dim textured clutter.
	for i := range img {
		img[i] = 0.35 + 0.1*rng.Float32()
	}
	// Distractor clutter: random rectangles that resemble no class in
	// particular but overlap all palettes, so devices cannot classify from
	// a single colored pixel.
	for k := rng.Intn(3); k > 0; k-- {
		drawRect(img, rng.Intn(ImageW), rng.Intn(ImageH),
			3+rng.Intn(8), 3+rng.Intn(8),
			[ImageC]float32{0.2 + 0.6*rng.Float32(), 0.2 + 0.6*rng.Float32(), 0.2 + 0.6*rng.Float32()}, 1)
	}
	shape := classShapes[label]
	view := deviceViews[d%len(deviceViews)]
	w := int(float64(shape.w) * view.squeezeW)
	h := int(float64(shape.h) * view.squeezeH)
	if w < 3 {
		w = 3
	}
	if h < 3 {
		h = 3
	}
	cx := ImageW/2 + view.shift + jx
	cy := ImageH/2 + jy
	x0, x1 := clampRange(cx-w/2, cx+w/2, ImageW)
	y0, y1 := clampRange(cy-h/2, cy+h/2, ImageH)
	// Per-view illumination: lighting varies between frames.
	bright := 0.65 + 0.35*rng.Float32()
	colors := [ImageC]float32{
		shape.r * view.gainR * bright,
		shape.g * view.gainG * bright,
		shape.b * view.gainB * bright,
	}
	for y := y0; y < y1; y++ {
		rowDim := float32(1)
		if shape.stripes && y%4 < 2 {
			rowDim = 0.45 // stripe texture
		}
		for x := x0; x < x1; x++ {
			for c := 0; c < ImageC; c++ {
				img[c*ImageH*ImageW+y*ImageW+x] = colors[c] * rowDim
			}
		}
	}
	// Partial occlusion: another object or structure sometimes blocks part
	// of the view.
	if rng.Float64() < 0.2 {
		occW := 4 + rng.Intn(8)
		drawRect(img, x0+rng.Intn(maxInt(1, x1-x0)), 0, occW, ImageH,
			[ImageC]float32{0.45, 0.45, 0.45}, 1)
	}
	if noise > 0 {
		for i := range img {
			img[i] += float32(rng.NormFloat64() * noise)
		}
	}
	// Clamp to the valid pixel range and quantize onto the frame grid.
	for i, v := range img {
		img[i] = quantize(min(max(v, 0), 1))
	}
	return img
}

// drawRect paints a w×h rectangle with its top-left corner at (x, y),
// clipped to the image, scaling the color by dim.
func drawRect(img []float32, x, y, w, h int, color [ImageC]float32, dim float32) {
	x0, x1 := clampRange(x, x+w, ImageW)
	y0, y1 := clampRange(y, y+h, ImageH)
	for yy := y0; yy < y1; yy++ {
		for xx := x0; xx < x1; xx++ {
			for c := 0; c < ImageC; c++ {
				img[c*ImageH*ImageW+yy*ImageW+xx] = color[c] * dim
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clampRange(lo, hi, max int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > max {
		hi = max
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Devices returns the number of camera views per sample.
func (d *Dataset) Devices() int { return d.devices }

// Labels returns the ground-truth labels for the given sample indices; a
// nil indices slice selects every sample.
func (d *Dataset) Labels(indices []int) []int {
	if indices == nil {
		indices = d.allIndices()
	}
	out := make([]int, len(indices))
	for i, idx := range indices {
		out[i] = d.Samples[idx].Label
	}
	return out
}

// DeviceBatch assembles the [B, 3, 32, 32] input tensor for one device over
// the given sample indices; a nil indices slice selects every sample.
func (d *Dataset) DeviceBatch(device int, indices []int) *tensor.Tensor {
	if indices == nil {
		indices = d.allIndices()
	}
	t := tensor.New(len(indices), ImageC, ImageH, ImageW)
	td := t.Data()
	for i, idx := range indices {
		copy(td[i*ImageSize:(i+1)*ImageSize], d.Samples[idx].Views[device])
	}
	return t
}

// DeviceView returns one device's view of one sample as a
// [1, C, H, W] tensor sharing the dataset's storage — no copy, so the
// caller must not mutate it. It is DeviceBatch(device, []int{idx})
// without the copy.
func (d *Dataset) DeviceView(device, idx int) *tensor.Tensor {
	return tensor.FromSlice(d.View(device, idx), 1, ImageC, ImageH, ImageW)
}

// View returns one device's view of one sample as its C·H·W values in
// the dataset's storage, the serving runtime's capture source: no copy
// and no allocation, so the caller must not mutate it.
func (d *Dataset) View(device, idx int) []float32 {
	return d.Samples[idx].Views[device]
}

// Frames returns one device's views of every sample as grid bytes
// (FrameByte), sample after sample, ImageSize bytes each: the bytes a
// camera delivers, for a serving feed. It panics on an off-grid value,
// which Generate never produces.
func (d *Dataset) Frames(device int) []byte {
	out := make([]byte, d.Len()*ImageSize)
	for i, s := range d.Samples {
		if err := FrameBytes(out[i*ImageSize:(i+1)*ImageSize], s.Views[device]); err != nil {
			panic(fmt.Sprintf("dataset: sample %d device %d: %v", i, device, err))
		}
	}
	return out
}

// AllDeviceBatches assembles the input tensors for the first k devices; a
// nil indices slice selects every sample.
func (d *Dataset) AllDeviceBatches(k int, indices []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, k)
	for dev := 0; dev < k; dev++ {
		out[dev] = d.DeviceBatch(dev, indices)
	}
	return out
}

func (d *Dataset) allIndices() []int {
	idx := make([]int, len(d.Samples))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// DeviceStats is the Fig. 6 histogram for one device.
type DeviceStats struct {
	// PerClass counts views in which an object of each class appears.
	PerClass [NumClasses]int
	// NotPresent counts all-grey views.
	NotPresent int
}

// Stats computes the per-device class distribution (Fig. 6).
func (d *Dataset) Stats() []DeviceStats {
	stats := make([]DeviceStats, d.devices)
	for _, s := range d.Samples {
		for dev := 0; dev < d.devices; dev++ {
			if s.ViewLabels[dev] == NotPresent {
				stats[dev].NotPresent++
			} else {
				stats[dev].PerClass[s.ViewLabels[dev]]++
			}
		}
	}
	return stats
}

// PresentIndices returns the indices of samples whose object appears in the
// given device's frame. The paper trains individual device models only on
// views where the object is present ("Objects that are not present in a
// frame are not used during training", §IV-B).
func (d *Dataset) PresentIndices(device int) []int {
	var idx []int
	for i, s := range d.Samples {
		if s.ViewLabels[device] != NotPresent {
			idx = append(idx, i)
		}
	}
	return idx
}

// ReorderDevices returns a dataset whose device axis is permuted or
// subset according to order: new device i is old device order[i]. View
// data is shared, not copied. Fig. 8 uses this to add devices in
// worst-to-best individual-accuracy order.
func (d *Dataset) ReorderDevices(order []int) *Dataset {
	for _, o := range order {
		if o < 0 || o >= d.devices {
			panic(fmt.Sprintf("dataset: device %d out of range [0,%d)", o, d.devices))
		}
	}
	out := &Dataset{Samples: make([]Sample, len(d.Samples)), devices: len(order)}
	for i, s := range d.Samples {
		ns := Sample{
			Views:      make([][]float32, len(order)),
			ViewLabels: make([]int, len(order)),
			Label:      s.Label,
		}
		for j, o := range order {
			ns.Views[j] = s.Views[o]
			ns.ViewLabels[j] = s.ViewLabels[o]
		}
		out.Samples[i] = ns
	}
	return out
}

// Subset returns a new dataset sharing the selected samples.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := &Dataset{Samples: make([]Sample, len(indices)), devices: d.devices}
	for i, idx := range indices {
		out.Samples[i] = d.Samples[idx]
	}
	return out
}
