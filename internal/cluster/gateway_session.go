package cluster

import (
	"context"
	"fmt"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// gatewaySession is the state one Classify call threads through its
// stages: the pins taken when it started, and per-sample bookkeeping
// indexed by position in sampleIDs.
type gatewaySession struct {
	sid   uint64
	start time.Time
	// model and mv pin the session to the model version active when it
	// started. The concrete version (never the 0 sentinel) is stamped
	// into every frame, so all hops of the session compute on the same
	// weights even while a rolling reload flips the fleet's active
	// pointers one replica at a time.
	model *core.Model
	mv    uint64
	// snap pins the membership and config version: devices joining or
	// leaving mid-session cannot change which links the session uses.
	snap      memberSnapshot
	pipeline  Pipeline
	sampleIDs []uint64

	// present is sample-major: sample i's per-device flags are
	// present[i*devices : (i+1)*devices], which is also what its
	// Result.Present aliases. masks holds the same as wire bitmasks.
	present []bool
	masks   []uint16
	// slab backs every Result of the session in one allocation. results[i]
	// points at slab[i] once sample i is classified; until then slab[i]
	// carries what the local stage already knows (entropy, presence).
	slab    []Result
	results []*Result
}

// Classify runs the full staged inference of §III-D for the samples as
// one session under the tenant's exit pipeline, tightened for the shed
// level (unknown tenants run the gateway default): one capture round trip
// per device, one aggregated forward pass over the whole session with
// each sample under its own device-presence mask, and — for the samples
// that miss the local exit — one escalation carrying only that hard
// remainder upstream. Every stage processes samples row-wise,
// so how callers group samples into sessions changes wire framing and
// dispatch overhead, never decisions or probabilities. It honors ctx
// cancellation and deadlines at every stage; on cancellation the error
// wraps ErrCanceled (or ErrDeadlineExceeded) as well as the context
// error.
//
// The returned slice always has len(sampleIDs) entries in input order.
// When some samples fail (e.g. no device produced a summary for them, or
// the upstream tier was unreachable) their entries are nil and the first
// such failure is returned alongside the successful results.
func (g *Gateway) Classify(ctx context.Context, sampleIDs []uint64, tenant string, level ShedLevel) ([]*Result, error) {
	n := len(sampleIDs)
	if n == 0 {
		return nil, nil
	}
	if n > wire.MaxBatch {
		return nil, fmt.Errorf("cluster: session of %d samples exceeds wire.MaxBatch (%d)", n, wire.MaxBatch)
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	devices := len(g.devices)
	s := gatewaySession{
		sid:       g.nextSession.Add(1),
		start:     time.Now(),
		pipeline:  g.TenantPipeline(tenant).Shed(level),
		sampleIDs: sampleIDs,
		present:   make([]bool, n*devices),
		masks:     make([]uint16, n),
		slab:      make([]Result, n),
		results:   make([]*Result, n),
	}
	s.model, s.mv, _ = g.reg.resolve(0)
	s.snap = g.snapshotMembers()
	classes := s.model.Cfg.Classes

	// Stage 1: every live device runs the whole session in one forward
	// pass and sends a single summary frame.
	capture := []wire.Message{&wire.CaptureBatch{Session: s.sid, ModelVersion: s.mv, SampleIDs: sampleIDs}}
	reqs := make([][]wire.Message, devices)
	for d := range reqs {
		reqs[d] = capture // exchange skips absent and down slots
	}
	replies, err := exchange(ctx, s.sid, s.snap.links, g.cfg.DeviceTimeout, reqs)
	if err != nil {
		return nil, err
	}
	exitVecs := make([]*tensor.Tensor, devices)
	for d := range exitVecs {
		exitVecs[d] = g.pool.Get(n, classes)
	}
	defer putAll(g.pool, exitVecs)
	for d, r := range replies {
		// A missed round trip, a malformed summary or no frame for any
		// sample (feed failure): the session degrades without this device.
		switch m := r.msg.(type) {
		case *wire.Error:
			if m.Code == 426 {
				// The device's registry no longer holds the session's pinned
				// version; degrading to "absent frame" would silently answer
				// on fewer devices, so the session fails typed instead.
				return nil, fmt.Errorf("cluster: device %d: %w", d, ErrModelVersionUnknown)
			}
		case *wire.SummaryBatch:
			if int(m.Count) != n || int(m.Classes) != classes {
				continue
			}
			rows := 0
			for i := 0; i < n; i++ {
				if !wire.IsPresent(m.Present, i) {
					continue // absent frame (object not in view / feed error)
				}
				copy(exitVecs[d].Row(i), m.Probs[rows*classes:(rows+1)*classes])
				rows++
				s.present[i*devices+d] = true
				s.masks[i] |= 1 << uint(d)
			}
			g.Meter.Add("local-summary", int64(rows)*int64(wire.SummaryPayloadBytes(classes)))
		}
	}

	// Stage 2: aggregate the whole session in one forward, each sample
	// under its own presence mask, and decide the first exit.
	var firstErr error
	var hard []int
	probs := nn.Softmax(s.model.LocalAggregate(exitVecs, s.masks))
	for i := 0; i < n; i++ {
		if s.masks[i] == 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: sample %d: %w", sampleIDs[i], ErrNoSummaries)
			}
			continue
		}
		// Probs aliases the softmax row; probs is private to the session.
		row := probs.Row(i)
		r := &s.slab[i]
		*r = Result{
			SampleID:      sampleIDs[i],
			Probs:         row[:classes:classes],
			Entropy:       nn.NormalizedEntropy(row),
			Present:       s.present[i*devices : (i+1)*devices : (i+1)*devices],
			ConfigVersion: s.snap.version,
			ModelVersion:  s.mv,
		}
		if r.Entropy > s.pipeline[0].Threshold {
			hard = append(hard, i)
			continue
		}
		r.Class = probs.ArgMaxRow(i)
		r.Exit = wire.ExitLocal
		r.Latency = time.Since(s.start)
		s.results[i] = r
	}
	g.instr.observeStage(wire.ExitLocal, time.Since(s.start))

	// Stage 3: the hard remainder — and only it — rides upstream as one
	// escalation (the paper's staged partial exit).
	if len(hard) > 0 {
		escStart := time.Now()
		err := g.escalate(ctx, &s, hard)
		if err == nil {
			g.instr.observeStage(g.upstreamExit(), time.Since(escStart))
		} else if firstErr == nil {
			firstErr = err
		}
	}
	// One exit observation per classified sample, after the session
	// settles (local exits and escalated verdicts alike).
	for _, r := range s.results {
		if r != nil {
			g.instr.observeExit(r.Exit, r.Latency)
		}
	}
	return s.results, firstErr
}

// escalate fetches the escalating samples' feature maps from the devices
// that cover them — each device packs its whole subset into one frame —
// and relays them behind a classify header to the next tier of the
// pipeline: an edge replica, which answers confident samples itself and
// forwards the rest to the cloud, or a cloud replica directly in a
// two-tier hierarchy. The replica pool picks the least-loaded healthy
// replica and, because the frames carry the session's complete feature
// payload, re-sends them verbatim to another replica if the chosen one
// dies mid-session. The relayed thresholds come from the session's
// pipeline, so tenant and shed overrides reach the upper tiers. Results
// are filled for every escalating index from the returned ResultBatch.
func (g *Gateway) escalate(ctx context.Context, s *gatewaySession, hard []int) error {
	sentinel := g.upstreamSentinel()
	if g.upstream.Down() {
		return fmt.Errorf("cluster: session of %d samples: %w: %w", len(hard), sentinel, ErrNoHealthyReplica)
	}
	devices := len(g.devices)
	escIDs := make([]uint64, len(hard))
	escMasks := make([]uint16, len(hard))
	for k, idx := range hard {
		escIDs[k] = s.sampleIDs[idx]
		escMasks[k] = s.masks[idx]
	}

	// A device is asked for exactly the escalating samples it summarized;
	// devices that cover all of them share one request.
	all := []wire.Message{&wire.FeatureBatchRequest{Session: s.sid, ModelVersion: s.mv, SampleIDs: escIDs}}
	reqs := make([][]wire.Message, devices)
	want := make([]int, devices) // feature maps asked of each device
	for d := range reqs {
		bit := uint16(1) << uint(d)
		for _, m := range escMasks {
			if m&bit != 0 {
				want[d]++
			}
		}
		switch want[d] {
		case 0:
		case len(escIDs):
			reqs[d] = all
		default:
			ids := make([]uint64, 0, want[d])
			for k, m := range escMasks {
				if m&bit != 0 {
					ids = append(ids, escIDs[k])
				}
			}
			reqs[d] = []wire.Message{&wire.FeatureBatchRequest{Session: s.sid, ModelVersion: s.mv, SampleIDs: ids}}
		}
	}
	replies, err := exchange(ctx, s.sid, s.snap.links, g.cfg.DeviceTimeout, reqs)
	if err != nil {
		return err
	}
	frames := make([]wire.Message, 1, devices+1) // frames[0] is the header
	for d, r := range replies {
		if reqs[d] == nil {
			continue
		}
		err := r.err
		switch m := r.msg.(type) {
		case *wire.FeatureBatch:
			if int(m.Count) == want[d] {
				frames = append(frames, m)
				g.Meter.Add(g.uploadCategory(), int64(m.Count)*int64(m.SampleBytes()))
				continue
			}
			err = fmt.Errorf("cluster: device %d sent %d feature maps, want %d", d, m.Count, want[d])
		case *wire.Error:
			if m.Code == 426 {
				return fmt.Errorf("cluster: session of %d samples: device %d: %w", len(hard), d, ErrModelVersionUnknown)
			}
			err = fmt.Errorf("cluster: device %d: %s", d, m.Msg)
		case nil:
		default:
			err = fmt.Errorf("cluster: expected FeatureBatch, got %v", m.MsgType())
		}
		// The device answered the capture but died before the feature
		// fetch; degrade to the remaining devices for every sample.
		g.logger.Warn("feature fetch failed", "device", d, "err", err)
		for k, idx := range hard {
			s.present[idx*devices+d] = false
			escMasks[k] &^= 1 << uint(d)
		}
	}
	if len(frames) == 1 {
		return fmt.Errorf("cluster: no features collected for session of %d samples: %w", len(hard), ErrNoSummaries)
	}
	// Samples whose every covering device died before the fetch have no
	// features to escalate; drop them (their results stay nil) so the
	// header masks exactly describe the relayed frames. A sample covered
	// by any successful frame still has that device's mask bit set and is
	// kept, so frames and header stay consistent.
	var dropErr error
	kept := 0
	for k, idx := range hard {
		if escMasks[k] == 0 {
			if dropErr == nil {
				dropErr = fmt.Errorf("cluster: sample %d: %w", s.sampleIDs[idx], ErrNoSummaries)
			}
			continue
		}
		hard[kept], escIDs[kept], escMasks[kept] = idx, escIDs[k], escMasks[k]
		kept++
	}
	hard, escIDs, escMasks = hard[:kept], escIDs[:kept], escMasks[:kept]
	if kept == 0 {
		return dropErr
	}

	if g.upstreamExit() == wire.ExitEdge {
		frames[0] = &wire.EdgeClassifyBatch{
			Session:      s.sid,
			ModelVersion: s.mv,
			Devices:      uint16(devices),
			SampleIDs:    escIDs,
			Masks:        escMasks,
			Thresholds:   s.pipeline.RelayThresholds(),
		}
	} else {
		frames[0] = &wire.CloudClassifyBatch{
			Session:      s.sid,
			ModelVersion: s.mv,
			Devices:      uint16(devices),
			SampleIDs:    escIDs,
			Masks:        escMasks,
		}
	}
	msg, err := g.upstream.relay(ctx, s.sid, g.upstreamTimeout(), frames...)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return ctxErr(cerr)
		}
		return fmt.Errorf("cluster: %w: %w", sentinel, err)
	}
	rb, ok := msg.(*wire.ResultBatch)
	if !ok {
		if e, isErr := msg.(*wire.Error); isErr {
			if e.Code == 503 {
				// The edge reached its own exit but the tier above it
				// did not answer.
				return fmt.Errorf("cluster: %w: %v tier: %s", ErrCloudUnavailable, g.upstreamExit(), e.Msg)
			}
			if e.Code == 426 {
				return fmt.Errorf("cluster: %w: %v tier: %s", ErrModelVersionUnknown, g.upstreamExit(), e.Msg)
			}
			return fmt.Errorf("cluster: %w: %v error %d: %s", sentinel, g.upstreamExit(), e.Code, e.Msg)
		}
		return fmt.Errorf("cluster: expected ResultBatch, got %v", msg.MsgType())
	}
	if err := checkVerdicts(rb.Verdicts, escIDs); err != nil {
		return fmt.Errorf("cluster: %v tier: %w", g.upstreamExit(), err)
	}
	for k, v := range rb.Verdicts {
		idx := hard[k]
		r := &s.slab[idx]
		r.Class = int(v.Class)
		r.Exit = v.Exit
		r.Probs = v.Probs
		r.Latency = time.Since(s.start)
		s.results[idx] = r
	}
	return dropErr
}
