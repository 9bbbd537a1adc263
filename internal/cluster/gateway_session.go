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
// stages: the pins taken when it started, per-sample bookkeeping indexed
// by position in ids, and the frames and buffers its round trips reuse.
// Sessions are recycled through the gateway's free list. What a Result
// keeps — its row of probs, its presence flags, the Result itself — is
// allocated for each session and never recycled, since the caller owns
// it; everything else is the session's own.
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
	snap     memberSnapshot
	pipeline Pipeline
	// ids is the session's copy of the caller's sample IDs.
	ids []uint64

	// present is sample-major: sample i's per-device flags are
	// present[i*devices : (i+1)*devices], which is also what its
	// Result.Present aliases. probs holds the samples' probability rows
	// the same way, which their Result.Probs alias. masks holds present
	// as wire bitmasks.
	present []bool
	probs   []float32
	masks   []uint16
	// slab backs every Result of the session in one allocation. results[i]
	// points at slab[i] once sample i is classified; until then slab[i]
	// carries what the local stage already knows (entropy, presence).
	slab    []Result
	results []*Result

	// stage runs the session's round trips: capture, feature fetch and
	// the upstream relay.
	stage    stage
	exitVecs []*tensor.Tensor
	reqs     [][]wire.Message
	capture  wire.CaptureBatch
	// fetchAll asks a device for every escalating sample; fetch[d] for
	// the subset device d covers when that is fewer.
	fetchAll    wire.FeatureBatchRequest
	fetch       []wire.FeatureBatchRequest
	frame       [1]wire.Message // capture or fetchAll
	fetchFrames [][1]wire.Message
	want        []int
	hard        []int
	escIDs      []uint64
	escMasks    []uint16
	// held are the device frames of the feature fetch: the relay sends
	// their messages, so they are released once it returns.
	held       []*wire.Frame
	relayed    []wire.Message
	cloudHdr   wire.CloudClassifyBatch
	edgeHdr    wire.EdgeClassifyBatch
	thresholds []float64
}

// releaseHeld releases the feature fetch's frames.
func (s *gatewaySession) releaseHeld() {
	for i, f := range s.held {
		f.Release()
		s.held[i] = nil
	}
	s.held = s.held[:0]
}

// recycle returns the session to the gateway's free list, first dropping
// what it must not keep: what its caller now owns and the shared
// pipeline (a poisoning free list would overwrite them), and pointers to
// links, frames and pooled tensors it is done with.
func (g *Gateway) recycle(s *gatewaySession) {
	s.model, s.pipeline = nil, nil
	s.present, s.probs, s.slab, s.results = nil, nil, nil, nil
	clear(s.snap.links)
	clear(s.relayed)
	clear(s.exitVecs)
	g.sessions.put(s)
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
// such failure is returned alongside the successful results. Classify
// does not keep sampleIDs.
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
	s := g.sessions.get()
	defer g.recycle(s)
	s.sid, s.start = g.nextSession.Add(1), time.Now()
	s.pipeline = g.TenantPipeline(tenant).Shed(level)
	s.ids = append(s.ids[:0], sampleIDs...)
	s.model, s.mv, _ = g.reg.resolve(0)
	g.snapshotMembers(&s.snap)
	classes := s.model.Cfg.Classes
	s.present = make([]bool, n*devices)
	s.probs = make([]float32, n*classes)
	s.slab = make([]Result, n)
	s.results = make([]*Result, n)
	s.masks = resize(s.masks, n)
	clear(s.masks)

	// Stage 1: every live device runs the whole session in one forward
	// pass and sends a single summary frame.
	s.capture = wire.CaptureBatch{Session: s.sid, ModelVersion: s.mv, SampleIDs: s.ids}
	s.frame[0] = &s.capture
	s.reqs = resize(s.reqs, devices)
	for d := range s.reqs {
		s.reqs[d] = s.frame[:] // exchange skips absent and down slots
	}
	replies, err := s.stage.exchange(ctx, s.sid, s.snap.links, g.cfg.DeviceTimeout, s.reqs)
	if err != nil {
		releaseReplies(replies)
		return nil, err
	}
	s.exitVecs = resize(s.exitVecs, devices)
	for d := range s.exitVecs {
		s.exitVecs[d] = g.pool.Get(n, classes)
	}
	defer putAll(g.pool, s.exitVecs)
	for d, r := range replies {
		// A missed round trip, a malformed summary or no frame for any
		// sample (feed failure): the session degrades without this device.
		switch m := r.msg().(type) {
		case *wire.Error:
			if m.Code == 426 {
				// The device's registry no longer holds the session's pinned
				// version; degrading to "absent frame" would silently answer
				// on fewer devices, so the session fails typed instead.
				releaseReplies(replies)
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
				copy(s.exitVecs[d].Row(i), m.Probs[rows*classes:(rows+1)*classes])
				rows++
				s.present[i*devices+d] = true
				s.masks[i] |= 1 << uint(d)
			}
			g.Meter.Add("local-summary", int64(rows)*int64(wire.SummaryPayloadBytes(classes)))
		}
	}
	releaseReplies(replies)

	// Stage 2: aggregate the whole session in one forward, each sample
	// under its own presence mask, and decide the first exit.
	var firstErr error
	logits := s.model.LocalAggregatePooled(s.exitVecs, s.masks, g.pool)
	nn.SoftmaxInto(s.probs, logits)
	g.pool.Put(logits)
	s.hard = s.hard[:0]
	for i := 0; i < n; i++ {
		if s.masks[i] == 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: sample %d: %w", sampleIDs[i], ErrNoSummaries)
			}
			continue
		}
		row := s.probs[i*classes : (i+1)*classes : (i+1)*classes]
		r := &s.slab[i]
		*r = Result{
			SampleID:      sampleIDs[i],
			Probs:         row,
			Entropy:       nn.NormalizedEntropy(row),
			Present:       s.present[i*devices : (i+1)*devices : (i+1)*devices],
			ConfigVersion: s.snap.version,
			ModelVersion:  s.mv,
		}
		if r.Entropy > s.pipeline[0].Threshold {
			s.hard = append(s.hard, i)
			continue
		}
		r.Class = core.Argmax(row)
		r.Exit = wire.ExitLocal
		r.Latency = time.Since(s.start)
		s.results[i] = r
	}
	g.instr.observeStage(wire.ExitLocal, time.Since(s.start))

	// Stage 3: the hard remainder — and only it — rides upstream as one
	// escalation (the paper's staged partial exit).
	if len(s.hard) > 0 {
		escStart := time.Now()
		err := g.escalate(ctx, s)
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

// escalate fetches the escalating samples' (s.hard) feature maps from
// the devices that cover them — each device packs its whole subset into
// one frame — and relays them behind a classify header to the next tier
// of the pipeline: an edge replica, which answers confident samples
// itself and forwards the rest to the cloud, or a cloud replica directly
// in a two-tier hierarchy. The replica pool picks the least-loaded
// healthy replica and, because the frames carry the session's complete
// feature payload, re-sends them verbatim to another replica if the
// chosen one dies mid-session. The relayed thresholds come from the
// session's pipeline, so tenant and shed overrides reach the upper tiers.
// Results are filled for every escalating index from the returned
// ResultBatch.
func (g *Gateway) escalate(ctx context.Context, s *gatewaySession) error {
	hard := s.hard
	sentinel := g.upstreamSentinel()
	if g.upstream.Down() {
		return fmt.Errorf("cluster: session of %d samples: %w: %w", len(hard), sentinel, ErrNoHealthyReplica)
	}
	devices := len(g.devices)
	escIDs := resize(s.escIDs, len(hard))
	escMasks := resize(s.escMasks, len(hard))
	s.escIDs, s.escMasks = escIDs, escMasks
	for k, idx := range hard {
		escIDs[k] = s.ids[idx]
		escMasks[k] = s.masks[idx]
	}

	// A device is asked for exactly the escalating samples it summarized;
	// devices that cover all of them share one request.
	s.fetchAll = wire.FeatureBatchRequest{Session: s.sid, ModelVersion: s.mv, SampleIDs: escIDs}
	s.frame[0] = &s.fetchAll
	reqs := s.reqs
	want := resize(s.want, devices) // feature maps asked of each device
	s.want = want
	s.fetch = resize(s.fetch, devices)
	s.fetchFrames = resize(s.fetchFrames, devices)
	for d := range reqs {
		reqs[d], want[d] = nil, 0
		bit := uint16(1) << uint(d)
		for _, m := range escMasks {
			if m&bit != 0 {
				want[d]++
			}
		}
		switch want[d] {
		case 0:
		case len(escIDs):
			reqs[d] = s.frame[:]
		default:
			fr := &s.fetch[d]
			ids := fr.SampleIDs[:0]
			for k, m := range escMasks {
				if m&bit != 0 {
					ids = append(ids, escIDs[k])
				}
			}
			*fr = wire.FeatureBatchRequest{Session: s.sid, ModelVersion: s.mv, SampleIDs: ids}
			s.fetchFrames[d][0] = fr
			reqs[d] = s.fetchFrames[d][:]
		}
	}
	replies, err := s.stage.exchange(ctx, s.sid, s.snap.links, g.cfg.DeviceTimeout, reqs)
	// The relay reuses the stage, so the fetched frames move to held.
	for _, r := range replies {
		if r.f != nil {
			s.held = append(s.held, r.f)
		}
	}
	defer s.releaseHeld()
	if err != nil {
		return err
	}
	frames := append(s.relayed[:0], nil) // frames[0] is the header
	for d, r := range replies {
		if reqs[d] == nil {
			continue
		}
		err := r.err
		switch m := r.msg().(type) {
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
	s.relayed = frames
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
				dropErr = fmt.Errorf("cluster: sample %d: %w", s.ids[idx], ErrNoSummaries)
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
		s.thresholds = s.pipeline.appendRelayThresholds(s.thresholds[:0])
		s.edgeHdr = wire.EdgeClassifyBatch{
			Session:      s.sid,
			ModelVersion: s.mv,
			Devices:      uint16(devices),
			SampleIDs:    escIDs,
			Masks:        escMasks,
			Thresholds:   s.thresholds,
		}
		frames[0] = &s.edgeHdr
	} else {
		s.cloudHdr = wire.CloudClassifyBatch{
			Session:      s.sid,
			ModelVersion: s.mv,
			Devices:      uint16(devices),
			SampleIDs:    escIDs,
			Masks:        escMasks,
		}
		frames[0] = &s.cloudHdr
	}
	f, err := g.upstream.relay(ctx, &s.stage, s.sid, g.upstreamTimeout(), time.Time{}, frames...)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return ctxErr(cerr)
		}
		return fmt.Errorf("cluster: %w: %w", sentinel, err)
	}
	defer f.Release()
	rb, ok := f.Msg.(*wire.ResultBatch)
	if !ok {
		if e, isErr := f.Msg.(*wire.Error); isErr {
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
		return fmt.Errorf("cluster: expected ResultBatch, got %v", f.Msg.MsgType())
	}
	if err := checkVerdicts(rb.Verdicts, escIDs); err != nil {
		return fmt.Errorf("cluster: %v tier: %w", g.upstreamExit(), err)
	}
	classes := s.model.Cfg.Classes
	for k, v := range rb.Verdicts {
		idx := hard[k]
		r := &s.slab[idx]
		r.Class = int(v.Class)
		r.Exit = v.Exit
		// The verdict's probabilities alias the reply frame: copy them
		// into the sample's own row.
		if len(v.Probs) == classes {
			r.Probs = s.probs[idx*classes : (idx+1)*classes : (idx+1)*classes]
			copy(r.Probs, v.Probs)
		} else {
			r.Probs = append([]float32(nil), v.Probs...)
		}
		r.Latency = time.Since(s.start)
		s.results[idx] = r
	}
	return dropErr
}
