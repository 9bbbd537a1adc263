package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"github.com/ddnn/ddnn-go/internal/agg"
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
}

// CommunicationReduction runs the trained MP-CC DDNN over the whole test
// split at the given exit threshold on an in-process cluster (real
// protocol, in-memory links), measuring actual bytes, then compares them
// with the Eq. (1) analytic model and the raw-offload baseline (E8). The
// paper reports >20× reduction for its largest model at 140 B vs 3072 B.
func (r *Runner) CommunicationReduction(threshold float64) (*CommReport, error) {
	m, err := r.model(agg.MP, agg.CC, r.opts.Model.DeviceFilters)
	if err != nil {
		return nil, err
	}
	gcfg := cluster.DefaultGatewayConfig()
	gcfg.Threshold = threshold
	// Heartbeats ride the device links the wire bytes are counted on, so
	// a beat during the run would make the count depend on how long the
	// run took. The run takes milliseconds; an hour's interval never fires.
	gcfg.HeartbeatInterval = time.Hour
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	eng, err := cluster.NewEngine(m, r.test, cluster.EngineConfig{Gateway: gcfg, Logger: quiet}, transport.NewMem())
	if err != nil {
		return nil, fmt.Errorf("experiments: start cluster: %w", err)
	}
	defer eng.Close()
	gw := eng.Gateway()

	n := r.test.Len()
	localExits := 0
	for id := 0; id < n; id++ {
		results, err := gw.Classify(context.Background(), []uint64{uint64(id)}, "", cluster.ShedNone)
		if err != nil {
			return nil, fmt.Errorf("experiments: classify sample %d: %w", id, err)
		}
		if results[0].Exit == wire.ExitLocal {
			localExits++
		}
	}

	devices := float64(m.Cfg.Devices)
	up, _ := gw.WireBytes()
	l := float64(localExits) / float64(n)
	report := &CommReport{
		Threshold:            threshold,
		LocalExitPct:         l * 100,
		RawOffloadBytes:      m.Cfg.RawOffloadBytes(),
		AnalyticBytes:        m.Cfg.CommCostBytes(l),
		MeasuredPayloadBytes: float64(gw.Meter.Total()) / (devices * float64(n)),
		MeasuredWireBytes:    float64(up) / (devices * float64(n)),
		Samples:              n,
	}
	report.Reduction = float64(report.RawOffloadBytes) / report.AnalyticBytes
	return report, nil
}
