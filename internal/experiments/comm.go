package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// CommReport is the §IV-H communication comparison (E8): the analytic
// Eq. (1) cost of DDNN inference versus offloading raw sensor input, plus
// the bytes actually measured on a running cluster.
type CommReport struct {
	// Threshold is the local-exit threshold used.
	Threshold float64
	// LocalExitPct is the measured fraction of samples exiting locally.
	LocalExitPct float64
	// RawOffloadBytes is the per-sample baseline: raw image to the cloud.
	RawOffloadBytes int
	// AnalyticBytes is the Eq. (1) expected per-device, per-sample cost.
	AnalyticBytes float64
	// MeasuredPayloadBytes is the per-device, per-sample payload measured
	// on the cluster (summaries + feature uploads).
	MeasuredPayloadBytes float64
	// MeasuredWireBytes includes protocol framing.
	MeasuredWireBytes float64
	// Reduction is RawOffloadBytes / AnalyticBytes.
	Reduction float64
	// Samples is how many test samples ran through the cluster.
	Samples int
	// MeanLatencyLocal and MeanLatencyCloud are mean session latencies by
	// exit point.
	MeanLatencyLocal time.Duration
	MeanLatencyCloud time.Duration
}

// CommunicationReduction runs the trained MP-CC DDNN over the test split
// on an in-process cluster (real protocol, in-memory links), measuring
// actual bytes, then compares them with the Eq. (1) analytic model and the
// raw-offload baseline (E8). The paper reports >20× reduction for its
// largest model at 140 B vs 3072 B.
func (r *Runner) CommunicationReduction(threshold float64, maxSamples int) (*CommReport, error) {
	m, err := r.model(agg.MP, agg.CC, r.opts.Model.DeviceFilters)
	if err != nil {
		return nil, err
	}
	if threshold < 0 {
		// Pick the best threshold on the test sweep, as §IV-D does.
		res := m.Evaluate(r.test, nil, r.opts.BatchSize)
		best, err := branchy.SearchThreshold(res.Outcomes(), branchy.Grid(10))
		if err != nil {
			return nil, err
		}
		threshold = best.Threshold
	}

	gcfg := cluster.DefaultGatewayConfig()
	gcfg.Threshold = threshold
	quiet := slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{Level: slog.LevelError}))
	eng, err := cluster.NewEngine(m, r.test, cluster.EngineConfig{Gateway: gcfg, Logger: quiet}, transport.NewMem())
	if err != nil {
		return nil, fmt.Errorf("experiments: start cluster: %w", err)
	}
	defer eng.Close()
	gw := eng.Gateway()

	n := r.test.Len()
	if maxSamples > 0 && maxSamples < n {
		n = maxSamples
	}
	localExits := 0
	var localLat, cloudLat time.Duration
	var localN, cloudN int
	for id := 0; id < n; id++ {
		results, err := gw.Classify(context.Background(), []uint64{uint64(id)}, "", cluster.ShedNone)
		if err != nil {
			return nil, fmt.Errorf("experiments: classify sample %d: %w", id, err)
		}
		res := results[0]
		switch res.Exit {
		case wire.ExitLocal:
			localExits++
			localLat += res.Latency
			localN++
		case wire.ExitCloud:
			cloudLat += res.Latency
			cloudN++
		}
	}

	devices := float64(m.Cfg.Devices)
	payload := float64(gw.Meter.Total()) / (devices * float64(n))
	up, _ := gw.WireBytes()
	wireBytes := float64(up) / (devices * float64(n))
	l := float64(localExits) / float64(n)
	report := &CommReport{
		Threshold:            threshold,
		LocalExitPct:         l * 100,
		RawOffloadBytes:      m.Cfg.RawOffloadBytes(),
		AnalyticBytes:        m.Cfg.CommCostBytes(l),
		MeasuredPayloadBytes: payload,
		MeasuredWireBytes:    wireBytes,
		Samples:              n,
	}
	report.Reduction = float64(report.RawOffloadBytes) / report.AnalyticBytes
	if localN > 0 {
		report.MeanLatencyLocal = localLat / time.Duration(localN)
	}
	if cloudN > 0 {
		report.MeanLatencyCloud = cloudLat / time.Duration(cloudN)
	}
	return report, nil
}

// FormatCommReport renders the §IV-H comparison.
func FormatCommReport(rep *CommReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "threshold T:                 %.2f\n", rep.Threshold)
	fmt.Fprintf(&sb, "local exit:                  %.1f%% of %d samples\n", rep.LocalExitPct, rep.Samples)
	fmt.Fprintf(&sb, "raw offload baseline:        %d B/sample\n", rep.RawOffloadBytes)
	fmt.Fprintf(&sb, "DDNN analytic (Eq. 1):       %.1f B/sample/device\n", rep.AnalyticBytes)
	fmt.Fprintf(&sb, "DDNN measured payload:       %.1f B/sample/device\n", rep.MeasuredPayloadBytes)
	fmt.Fprintf(&sb, "DDNN measured wire (framed): %.1f B/sample/device\n", rep.MeasuredWireBytes)
	fmt.Fprintf(&sb, "reduction vs raw offload:    %.1fx\n", rep.Reduction)
	fmt.Fprintf(&sb, "mean latency local exit:     %v\n", rep.MeanLatencyLocal)
	fmt.Fprintf(&sb, "mean latency cloud exit:     %v\n", rep.MeanLatencyCloud)
	return sb.String()
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
