package main

import (
	"time"

	"github.com/ddnn/ddnn-go/internal/wire"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's whole vocabulary: BENCHMARK.json lists the
// same names and units (a test checks it), an untraced run prints every
// endToEnd metric, a traced run every perLayer metric. A layer that
// does not run in a workload (internal/api outside http_open, the edge
// node outside wan_batch) reports 0.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"wire_bytes_per_class", "B"},
	{"allocs_per_class", "count"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"api.requests", "count"},
	{"api.handler_ms_p50", "ms"},
	{"api.handler_ms_p99", "ms"},
	{"api.self_us_p50", "us"},
	{"api.self_upload_us_p50", "us"},
	{"api.shed_share", "share"},
	{"api.non2xx_share", "share"},

	{"cluster.engine.calls", "count"},
	{"cluster.engine.call_ms_p50", "ms"},
	{"cluster.engine.queue_wait_ms_p50", "ms"},
	{"cluster.engine.queue_wait_ms_p99", "ms"},
	{"cluster.engine.batch_size_mean", "count"},

	{"cluster.gateway.sessions", "count"},
	{"cluster.gateway.session_ms_p50", "ms"},
	{"cluster.gateway.local_stage_ms_p50", "ms"},
	{"cluster.gateway.upstream_stage_ms_p50", "ms"},
	{"cluster.gateway.self_ms_p50", "ms"},
	{"cluster.gateway.exit_local_share", "share"},
	{"cluster.gateway.exit_edge_share", "share"},
	{"cluster.gateway.exit_cloud_share", "share"},

	{"transport.dev.capture_rtt_ms_p50", "ms"},
	{"transport.dev.feature_rtt_ms_p50", "ms"},
	{"transport.up.rtt_ms_p50", "ms"},
	{"transport.ec.rtt_ms_p50", "ms"},
	{"transport.dev.link_ms_p50", "ms"},
	{"transport.up.link_ms_p50", "ms"},
	{"transport.ec.link_ms_p50", "ms"},
	{"transport.rtts_per_session", "count"},
	{"transport.frames_per_class", "count"},
	{"transport.dev.bytes_up_per_class", "B"},
	{"transport.dev.bytes_down_per_class", "B"},
	{"transport.up.bytes_per_class", "B"},
	{"transport.ec.bytes_per_class", "B"},
	{"transport.mem_rtt_us_p50", "us"},
	{"transport.sim_overshoot_us_p50", "us"},

	{"cluster.device.requests", "count"},
	{"cluster.device.capture_service_ms_p50", "ms"},
	{"cluster.device.feature_service_ms_p50", "ms"},
	{"cluster.edge.requests", "count"},
	{"cluster.edge.service_ms_p50", "ms"},
	{"cluster.edge.self_ms_p50", "ms"},
	{"cluster.cloud.requests", "count"},
	{"cluster.cloud.service_ms_p50", "ms"},

	{"wire.encode_summary_us_b32", "us"},
	{"wire.decode_summary_us_b32", "us"},
	{"wire.encode_feature_us_b1", "us"},
	{"wire.decode_feature_us_b1", "us"},
	{"wire.encode_feature_us_b32", "us"},
	{"wire.decode_feature_us_b32", "us"},
	{"wire.encode_result_us_b32", "us"},
	{"wire.frame_overhead_bytes_b1", "B"},
	{"wire.frame_overhead_bytes_b32", "B"},

	{"core.device_forward_us_b1", "us"},
	{"core.device_forward_us_b32", "us"},
	{"core.edge_forward_us_b32", "us"},
	{"core.cloud_forward_us_b1", "us"},
	{"core.cloud_forward_us_b32", "us"},
	{"core.local_decide_us_b32", "us"},
	{"core.pack_feature_us", "us"},
	{"core.unpack_feature_us", "us"},

	{"tensor.gemm_us", "us"},
	{"tensor.gemm_sign_us", "us"},
	{"tensor.im2col_us", "us"},
	{"bnn.xnor_dot_ns", "ns"},
	{"bnn.pack_signs_us", "us"},

	{"process.cpu_ms_per_class", "ms"},
	{"trace.unattributed_share", "share"},
	{"trace.overhead_share", "share"},
	{"loadgen.offered_per_s", "1/s"},
	{"loadgen.achieved_share", "share"},
	{"loadgen.lag_ms_p99", "ms"},
}

// tracedWindow is what the traced stretch of a run hands to the layer
// accounting.
type tracedWindow struct {
	from, to int64 // recorder clock
	res      *driveResult
	wire     wireCounters // bytes and frames written inside the window
	// untracedPS and untracedCPU are the throughput and the process CPU
	// per classification of the untraced stretch before the window.
	untracedPS, untracedCPU float64
}

// layerMetrics turns the trace of one window into the per-layer
// numbers measured on live traffic; the isolated probes are added by
// the caller.
func (t *traceLog) layerMetrics(w tracedWindow) (map[string]float64, []*gwSession) {
	m := make(map[string]float64)
	classes := float64(w.res.classes)
	in := func(a, b int64) bool { return a >= w.from && b <= w.to }

	// internal/api: the benchmark's ServeHTTP call and its engine child.
	t.mu.Lock()
	calls := append([]engineCall(nil), t.calls...)
	handlers := make(map[uint64]handlerSpan, len(t.handlers))
	for id, h := range t.handlers {
		handlers[id] = *h
	}
	exits := append([]exitEvent(nil), t.exits...)
	stages := append([]stageEvent(nil), t.stages...)
	t.mu.Unlock()

	engineIn := make(map[uint64]time.Duration) // handler span -> its engine call
	var callMs, waitMs []float64
	for _, c := range calls {
		if !in(c.start, c.end) {
			continue
		}
		d := time.Duration(c.end - c.start)
		callMs = append(callMs, ms(d))
		if !c.failed {
			// Time in the engine before and after the gateway session:
			// the semaphore, and the collector's linger and hand-offs.
			waitMs = append(waitMs, ms(d-c.session))
		}
		if c.parent != 0 {
			engineIn[c.parent] = d
		}
	}
	var handlerMs, selfUs, selfUploadUs []float64
	var shed, non2xx float64
	for id, h := range handlers {
		if h.end == 0 || !in(h.start, h.end) {
			continue
		}
		d := time.Duration(h.end - h.start)
		handlerMs = append(handlerMs, ms(d))
		if h.status != 200 {
			non2xx++
		}
		if h.shed {
			shed++
		}
		if eng, ok := engineIn[id]; ok {
			// Handler self time: auth, admission, body decode, response
			// encode — everything but the engine call.
			if h.upload {
				selfUploadUs = append(selfUploadUs, us(d-eng))
			} else {
				selfUs = append(selfUs, us(d-eng))
			}
		}
	}
	m["api.requests"] = float64(len(handlerMs))
	m["api.handler_ms_p50"] = pctOf(handlerMs, 0.5)
	m["api.handler_ms_p99"] = pctOf(handlerMs, 0.99)
	m["api.self_us_p50"] = pctOf(selfUs, 0.5)
	m["api.self_upload_us_p50"] = pctOf(selfUploadUs, 0.5)
	m["api.shed_share"] = ratio(shed, float64(len(handlerMs)))
	m["api.non2xx_share"] = ratio(non2xx, float64(len(handlerMs)))

	m["cluster.engine.calls"] = float64(len(callMs))
	m["cluster.engine.call_ms_p50"] = pctOf(callMs, 0.5)
	m["cluster.engine.queue_wait_ms_p50"] = pctOf(waitMs, 0.5)
	m["cluster.engine.queue_wait_ms_p99"] = pctOf(waitMs, 0.99)

	// cluster.gateway: the public hooks.
	var exitN [4]float64
	var exitTotal float64
	for _, e := range exits {
		if e.at >= w.from && e.at <= w.to {
			exitN[e.exit]++
			exitTotal++
		}
	}
	var localMs, upstreamMs []float64
	for _, s := range stages {
		if !in(s.at-int64(s.d), s.at) {
			continue
		}
		if s.tier == wire.ExitLocal {
			localMs = append(localMs, ms(s.d))
		} else {
			upstreamMs = append(upstreamMs, ms(s.d))
		}
	}
	m["cluster.engine.batch_size_mean"] = ratio(exitTotal, float64(len(localMs)))
	m["cluster.gateway.sessions"] = float64(len(localMs))
	m["cluster.gateway.local_stage_ms_p50"] = pctOf(localMs, 0.5)
	m["cluster.gateway.upstream_stage_ms_p50"] = pctOf(upstreamMs, 0.5)
	m["cluster.gateway.exit_local_share"] = ratio(exitN[wire.ExitLocal], exitTotal)
	m["cluster.gateway.exit_edge_share"] = ratio(exitN[wire.ExitEdge], exitTotal)
	m["cluster.gateway.exit_cloud_share"] = ratio(exitN[wire.ExitCloud], exitTotal)

	// transport and the nodes behind it: the recorder's round trips.
	var all []exchange
	for _, e := range t.rec.exchanges() {
		if in(e.reqStart, e.repArrive) {
			all = append(all, e)
		}
	}
	var rtt, link [numHops][]float64
	var captureRTT, featureRTT, captureSvc, featureSvc, upSvc, ecSvc []float64
	for _, e := range all {
		link[e.hop] = append(link[e.hop], ms(e.linkTime()))
		switch {
		case e.hop != hopDev:
			rtt[e.hop] = append(rtt[e.hop], ms(e.rtt()))
			if e.hop == hopUp {
				upSvc = append(upSvc, ms(e.service()))
			} else {
				ecSvc = append(ecSvc, ms(e.service()))
			}
		case e.index == 0:
			captureRTT = append(captureRTT, ms(e.rtt()))
			captureSvc = append(captureSvc, ms(e.service()))
		default:
			featureRTT = append(featureRTT, ms(e.rtt()))
			featureSvc = append(featureSvc, ms(e.service()))
		}
	}
	m["transport.dev.capture_rtt_ms_p50"] = pctOf(captureRTT, 0.5)
	m["transport.dev.feature_rtt_ms_p50"] = pctOf(featureRTT, 0.5)
	m["transport.up.rtt_ms_p50"] = pctOf(rtt[hopUp], 0.5)
	m["transport.ec.rtt_ms_p50"] = pctOf(rtt[hopEC], 0.5)
	m["transport.dev.link_ms_p50"] = pctOf(link[hopDev], 0.5)
	m["transport.up.link_ms_p50"] = pctOf(link[hopUp], 0.5)
	m["transport.ec.link_ms_p50"] = pctOf(link[hopEC], 0.5)
	m["transport.frames_per_class"] = ratio(float64(w.wire.frames), classes)
	m["transport.dev.bytes_up_per_class"] = ratio(float64(w.wire.bytes[hopDev][dirReply]), classes)
	m["transport.dev.bytes_down_per_class"] = ratio(float64(w.wire.bytes[hopDev][dirRequest]), classes)
	m["transport.up.bytes_per_class"] = ratio(float64(w.wire.bytes[hopUp][0]+w.wire.bytes[hopUp][1]), classes)
	m["transport.ec.bytes_per_class"] = ratio(float64(w.wire.bytes[hopEC][0]+w.wire.bytes[hopEC][1]), classes)

	m["cluster.device.requests"] = float64(len(captureSvc) + len(featureSvc))
	m["cluster.device.capture_service_ms_p50"] = pctOf(captureSvc, 0.5)
	m["cluster.device.feature_service_ms_p50"] = pctOf(featureSvc, 0.5)
	// The node answering the gateway's upstream hop is the edge in a
	// three-tier hierarchy and the cloud in a two-tier one.
	if t.rec.useEdge {
		m["cluster.edge.requests"] = float64(len(upSvc))
		m["cluster.edge.service_ms_p50"] = pctOf(upSvc, 0.5)
		m["cluster.cloud.requests"] = float64(len(ecSvc))
		m["cluster.cloud.service_ms_p50"] = pctOf(ecSvc, 0.5)
	} else {
		m["cluster.cloud.requests"] = float64(len(upSvc))
		m["cluster.cloud.service_ms_p50"] = pctOf(upSvc, 0.5)
	}

	// Per-session reconciliation: does the critical path the trace sees
	// add up to the session latency the gateway reports?
	sessions := t.sessions(w.from, w.to, all)
	var sessionMs, selfMs, edgeSelfMs, sequential, unattributed []float64
	for _, s := range sessions {
		if s.sid == 0 {
			continue
		}
		total := time.Duration(s.end - s.start)
		self := s.selfTime()
		capture, feature, upstream, n := s.criticalPath()
		sessionMs = append(sessionMs, ms(total))
		selfMs = append(selfMs, ms(self))
		sequential = append(sequential, float64(n))
		unattributed = append(unattributed, 1-float64(capture+self+feature+upstream)/float64(total))
		for _, e := range s.exchanges {
			if e.hop == hopUp && t.rec.useEdge {
				d := e.service()
				if s.ec != nil {
					d -= s.ec.rtt()
				}
				edgeSelfMs = append(edgeSelfMs, ms(d))
			}
		}
	}
	m["cluster.gateway.session_ms_p50"] = pctOf(sessionMs, 0.5)
	m["cluster.gateway.self_ms_p50"] = pctOf(selfMs, 0.5)
	m["cluster.edge.self_ms_p50"] = pctOf(edgeSelfMs, 0.5)
	m["transport.rtts_per_session"] = mean(sequential)
	m["trace.unattributed_share"] = pctOf(unattributed, 0.5)

	m["process.cpu_ms_per_class"] = w.untracedCPU
	tracedPS := classes / w.res.elapsed.Seconds()
	m["trace.overhead_share"] = 1 - ratio(tracedPS, w.untracedPS)
	m["loadgen.offered_per_s"] = w.res.offeredPerSec
	m["loadgen.achieved_share"] = ratio(float64(w.res.attempted-w.res.failed), float64(w.res.attempted))
	m["loadgen.lag_ms_p99"] = pctOf(w.res.lagMs, 0.99)
	return m, sessions
}
