// Package core implements the distributed deep neural network (DDNN) of
// the paper: a single jointly-trained DNN whose sections are mapped onto a
// distributed computing hierarchy of end devices, an optional edge tier and
// the cloud (Fig. 2), with an early exit at each physical boundary, learned
// feature aggregation across geographically distributed devices (§III-B),
// entropy-thresholded staged inference (§III-D), the communication-cost
// model of Eq. (1), and the accuracy measures of §III-F.
package core

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Config describes a DDNN instance. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Devices is the number of end devices (paper evaluation: 6).
	Devices int
	// Classes is |C|, the number of target classes.
	Classes int
	// InputC, InputH, InputW describe each device's sensor input.
	// InputC is at most tensor.FrameMaxChannels: the device block sums
	// frame bytes in int16.
	InputC, InputH, InputW int
	// DeviceFilters is f, the filter count of the per-device ConvP block.
	// The paper sweeps f in Fig. 9 and uses 4 for Fig. 7/Table II.
	DeviceFilters int
	// CloudFilters is the filter count of the cloud ConvP blocks.
	CloudFilters int
	// LocalAgg and CloudAgg select the aggregation schemes at the local
	// and cloud exit points (Table I). The paper settles on MP-CC.
	LocalAgg agg.Scheme
	CloudAgg agg.Scheme
	// UseEdge inserts an edge tier between the devices and the cloud
	// (configurations (d) and (e) of Fig. 2), adding an edge exit point.
	UseEdge bool
	// EdgeFilters is the filter count of the edge ConvP block.
	EdgeFilters int
	// EdgeAgg selects the aggregation scheme feeding the edge tier.
	EdgeAgg agg.Scheme
	// FloatCloud switches the cloud section to floating-point conv-pool
	// blocks and exit head while the device sections stay binary — the
	// mixed-precision scheme the paper proposes as future work in §VI.
	FloatCloud bool
	// Seed makes weight initialization deterministic.
	Seed int64
}

// DefaultConfig returns the architecture evaluated in §IV: six end devices
// with 4-filter ConvP blocks feeding an MP local aggregator and a CC cloud
// aggregator, no edge tier (configuration (c) of Fig. 2).
func DefaultConfig() Config {
	return Config{
		Devices:       dataset.NumDevices,
		Classes:       dataset.NumClasses,
		InputC:        dataset.ImageC,
		InputH:        dataset.ImageH,
		InputW:        dataset.ImageW,
		DeviceFilters: 4,
		CloudFilters:  16,
		LocalAgg:      agg.MP,
		CloudAgg:      agg.CC,
		EdgeFilters:   8,
		EdgeAgg:       agg.CC,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Devices <= 0:
		return fmt.Errorf("core: need at least one device, got %d", c.Devices)
	case c.Classes < 2:
		return fmt.Errorf("core: need at least two classes, got %d", c.Classes)
	case c.InputC <= 0 || c.InputH <= 0 || c.InputW <= 0:
		return fmt.Errorf("core: invalid input shape %d×%d×%d", c.InputC, c.InputH, c.InputW)
	case c.InputC > tensor.FrameMaxChannels:
		return fmt.Errorf("core: %d input channels, the device block takes at most %d", c.InputC, tensor.FrameMaxChannels)
	case c.InputH%4 != 0 || c.InputW%4 != 0:
		return fmt.Errorf("core: input spatial dims must be divisible by 4, got %d×%d", c.InputH, c.InputW)
	case c.DeviceFilters <= 0:
		return fmt.Errorf("core: device filters must be positive, got %d", c.DeviceFilters)
	case c.CloudFilters <= 0:
		return fmt.Errorf("core: cloud filters must be positive, got %d", c.CloudFilters)
	case c.UseEdge && c.EdgeFilters <= 0:
		return fmt.Errorf("core: edge filters must be positive, got %d", c.EdgeFilters)
	case max(c.Devices*c.DeviceFilters, c.CloudFilters, c.EdgeFilters) > bnn.MaxPlaneChannels:
		return fmt.Errorf("core: a bit-plane block takes at most %d input channels (int16 counts), got %d devices of %d filters, %d cloud and %d edge filters",
			bnn.MaxPlaneChannels, c.Devices, c.DeviceFilters, c.CloudFilters, c.EdgeFilters)
	}
	for _, s := range []agg.Scheme{c.LocalAgg, c.CloudAgg} {
		if s != agg.MP && s != agg.AP && s != agg.CC {
			return fmt.Errorf("core: unknown aggregation scheme %v", s)
		}
	}
	if c.UseEdge && c.EdgeAgg != agg.MP && c.EdgeAgg != agg.AP && c.EdgeAgg != agg.CC {
		return fmt.Errorf("core: unknown edge aggregation scheme %v", c.EdgeAgg)
	}
	return nil
}

// FeatureH and FeatureW return the spatial size of a device's uploaded
// feature map (the ConvP block halves each input dimension).
func (c Config) FeatureH() int { return c.InputH / 2 }

// FeatureW returns the feature-map width after the device ConvP block.
func (c Config) FeatureW() int { return c.InputW / 2 }

// FeatureSize returns o, the per-filter output size of the final device NN
// layer in Eq. (1). For 32×32 inputs this is 16·16 = 256.
func (c Config) FeatureSize() int { return c.FeatureH() * c.FeatureW() }

// CommCostBytes evaluates Eq. (1): the expected per-sample communication of
// an end device given the fraction localExit of samples exiting locally,
//
//	c = 4·|C| + (1−l)·f·o/8
//
// The first term is the float32 class-summary vector every sample sends to
// the local aggregator; the second is the bit-packed binarized feature map
// uploaded to the cloud for samples that miss the local exit.
func (c Config) CommCostBytes(localExit float64) float64 {
	return float64(4*c.Classes) + (1-localExit)*float64(c.DeviceFilters*c.FeatureSize())/8
}

// RawOffloadBytes returns the per-sample cost of the baseline that sends
// raw sensor input to the cloud (3072 B for a 32×32 RGB image, §IV-H).
func (c Config) RawOffloadBytes() int { return c.InputC * c.InputH * c.InputW }
