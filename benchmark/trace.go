package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// traceLog is the traced pass's in-memory record. Everything in it is
// written by benchmark-owned code wrapped around the layers' public
// entry points: the handler call (drive.go), the engine adapter
// (sut.go), the gateway's public instrumentation hooks, and the
// recording transport (recorder.go). Nothing is written to disk until
// the run is over.
type traceLog struct {
	rec *recorder
	on  atomic.Bool
	ids atomic.Uint64

	mu       sync.Mutex
	calls    []engineCall
	handlers map[uint64]*handlerSpan
	stages   []stageEvent
	exits    []exitEvent
}

// engineCall is one call into cluster.Engine through the adapter.
type engineCall struct {
	id, parent uint64
	start, end int64
	session    time.Duration // longest Result.Latency among its results
	failed     bool
}

// handlerSpan is one ServeHTTP call of the front door.
type handlerSpan struct {
	id         uint64
	start, end int64
	upload     bool
	status     int
	shed       bool
}

// stageEvent is one StageObserved callback: a tier round trip of
// duration d that ended at at.
type stageEvent struct {
	at   int64
	tier wire.ExitPoint
	d    time.Duration
}

// exitEvent is one ExitObserved callback.
type exitEvent struct {
	at   int64
	exit wire.ExitPoint
}

func newTraceLog(rec *recorder) *traceLog {
	return &traceLog{rec: rec, handlers: make(map[uint64]*handlerSpan)}
}

// enable switches span recording (and the recorder's frame timestamps)
// on or off; the traced pass measures an untraced stretch first.
func (t *traceLog) enable(on bool) {
	t.on.Store(on)
	t.rec.trace.Store(on)
}

func (t *traceLog) active() bool { return t != nil && t.on.Load() }

func (t *traceLog) addCall(c engineCall) {
	c.id = t.ids.Add(1)
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

// beginHandler opens a handler span and returns its ID, or 0 when not
// tracing.
func (t *traceLog) beginHandler(upload bool) uint64 {
	if !t.active() {
		return 0
	}
	h := &handlerSpan{id: t.ids.Add(1), start: t.rec.now(), upload: upload}
	t.mu.Lock()
	t.handlers[h.id] = h
	t.mu.Unlock()
	return h.id
}

func (t *traceLog) endHandler(id uint64, status int, shed bool) {
	if id == 0 {
		return
	}
	end := t.rec.now()
	t.mu.Lock()
	if h := t.handlers[id]; h != nil {
		h.end, h.status, h.shed = end, status, shed
	}
	t.mu.Unlock()
}

// hooks returns gateway instrumentation that feeds the trace log and
// then calls through to next.
func (t *traceLog) hooks(next cluster.Instrumentation) cluster.Instrumentation {
	return cluster.Instrumentation{
		ExitObserved: func(exit wire.ExitPoint, latency time.Duration) {
			if t.on.Load() {
				at := t.rec.now()
				t.mu.Lock()
				t.exits = append(t.exits, exitEvent{at: at, exit: exit})
				t.mu.Unlock()
			}
			if next.ExitObserved != nil {
				next.ExitObserved(exit, latency)
			}
		},
		StageObserved: func(tier wire.ExitPoint, d time.Duration) {
			if t.on.Load() {
				at := t.rec.now()
				t.mu.Lock()
				t.stages = append(t.stages, stageEvent{at: at, tier: tier, d: d})
				t.mu.Unlock()
			}
			if next.StageObserved != nil {
				next.StageObserved(tier, d)
			}
		},
	}
}

// gwSession is one gateway session rebuilt from the trace: the hooks
// give its start, its local stage and (if it escalated) its upstream
// stage; the recorder gives the link round trips that carry its
// session ID.
type gwSession struct {
	start, localEnd, end int64
	upstream             time.Duration // 0 when nothing escalated
	sid                  uint64        // 0 when no recorder session matched
	exchanges            []exchange    // dev and up hops, this session only
	ec                   *exchange     // the edge's cloud round trip, if any
}

// matchTolerance bounds the gaps the session matching accepts: between
// a session's start (from the hook) and its first capture frame (from
// the recorder), which shares no identifier with it, and between an
// edge's cloud reply and the edge's own reply. Both gaps are a few
// microseconds of straight-line code, but a first frame can queue
// behind another session's frame on a slow simulated link.
const matchTolerance = 5 * time.Millisecond

// sessions rebuilds the gateway sessions that started and ended inside
// [from, to].
func (t *traceLog) sessions(from, to int64, exchanges []exchange) []*gwSession {
	t.mu.Lock()
	stages := append([]stageEvent(nil), t.stages...)
	t.mu.Unlock()

	var out []*gwSession
	var ups []stageEvent
	for _, s := range stages {
		if s.tier != wire.ExitLocal {
			ups = append(ups, s)
			continue
		}
		start := s.at - int64(s.d)
		if start < from || s.at > to {
			continue
		}
		out = append(out, &gwSession{start: start, localEnd: s.at, end: s.at})
	}
	// An upstream stage starts right after its session's local stage
	// ended, on the same goroutine: attach it to the session whose local
	// stage ended last before it began.
	sort.Slice(out, func(a, b int) bool { return out[a].localEnd < out[b].localEnd })
	for _, u := range ups {
		began := u.at - int64(u.d)
		i := sort.Search(len(out), func(i int) bool { return out[i].localEnd > began }) - 1
		if i < 0 || out[i].upstream != 0 || began-out[i].localEnd > int64(matchTolerance) || u.at > to {
			continue
		}
		out[i].upstream, out[i].end = u.d, u.at
	}

	// The recorder knows sessions by ID, the hooks by time. A session's
	// first capture frame is written just after the session starts, and
	// session IDs rise with start time, so walk both in order.
	bySID := make(map[uint64][]exchange)
	first := make(map[uint64]int64)
	var ecs []exchange
	for _, e := range exchanges {
		if e.hop == hopEC {
			ecs = append(ecs, e)
			continue
		}
		bySID[e.session] = append(bySID[e.session], e)
		if e.hop == hopDev {
			if at, ok := first[e.session]; !ok || e.reqStart < at {
				first[e.session] = e.reqStart
			}
		}
	}
	sids := make([]uint64, 0, len(first))
	for sid := range first {
		sids = append(sids, sid)
	}
	sort.Slice(sids, func(a, b int) bool { return first[sids[a]] < first[sids[b]] })
	sort.Slice(out, func(a, b int) bool { return out[a].start < out[b].start })
	k := 0
	for _, s := range out {
		for k < len(sids) && first[sids[k]] < s.start {
			k++
		}
		if k < len(sids) && first[sids[k]]-s.start <= int64(matchTolerance) && first[sids[k]] <= s.localEnd {
			s.sid = sids[k]
			s.exchanges = bySID[s.sid]
			k++
		}
	}

	// The edge forwards to the cloud under its own session counter, so
	// its round trip is matched to the gateway session by time: the
	// edge replies downstream right after the cloud's verdict arrives.
	sort.Slice(ecs, func(a, b int) bool { return ecs[a].repArrive < ecs[b].repArrive })
	for _, s := range out {
		for i := range s.exchanges {
			up := &s.exchanges[i]
			if up.hop != hopUp {
				continue
			}
			j := sort.Search(len(ecs), func(j int) bool { return ecs[j].repArrive > up.repWrite }) - 1
			if j >= 0 && up.repWrite-ecs[j].repArrive <= int64(matchTolerance) && ecs[j].reqStart >= up.reqArrive {
				s.ec = &ecs[j]
			}
		}
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(lo, hi int64, spans [][2]int64) int64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a][0] < spans[b][0] })
	var total int64
	at := lo
	for _, s := range spans {
		a, b := s[0], s[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// selfTime is the session's duration minus the part its link round
// trips cover: aggregation, the exit decision, fan-out and hand-offs.
func (s *gwSession) selfTime() time.Duration {
	spans := make([][2]int64, len(s.exchanges))
	for i, e := range s.exchanges {
		spans[i] = [2]int64{e.reqStart, e.repArrive}
	}
	return time.Duration((s.end - s.start) - covered(s.start, s.end, spans))
}

// criticalPath returns the slowest capture round trip, the slowest
// feature round trip and the upstream round trip of the session, and
// how many sequential exchanges its answer waited for.
func (s *gwSession) criticalPath() (capture, feature, upstream time.Duration, sequential int) {
	for _, e := range s.exchanges {
		switch {
		case e.hop == hopUp:
			upstream = e.rtt()
		case e.index == 0:
			capture = max(capture, e.rtt())
		default:
			feature = max(feature, e.rtt())
		}
	}
	for _, d := range []time.Duration{capture, feature, upstream} {
		if d > 0 {
			sequential++
		}
	}
	if s.ec != nil {
		sequential++
	}
	return capture, feature, upstream, sequential
}

// span is the on-disk form of one trace record (JSON lines).
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Session uint64 `json:"session,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans dumps the traced window as JSON lines: handler and engine
// call spans as recorded, gateway sessions and their stages as rebuilt
// from the hooks, link round trips and node service intervals from the
// recorder. A span's parent is the span that caused it where the trace
// can tell: a coalesced session has many callers and names none.
func (t *traceLog) writeSpans(path string, sessions []*gwSession, closedLoop bool) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	enc := json.NewEncoder(w)
	emit := func(s span) uint64 {
		if s.ID == 0 {
			s.ID = t.ids.Add(1)
		}
		_ = enc.Encode(s) // the buffered writer's error surfaces at Flush
		return s.ID
	}
	t.mu.Lock()
	calls := append([]engineCall(nil), t.calls...)
	for _, h := range t.handlers {
		if h.end != 0 {
			emit(span{Name: "api.handler", ID: h.id, StartNs: h.start, EndNs: h.end})
		}
	}
	t.mu.Unlock()
	for _, c := range calls {
		emit(span{Name: "cluster.engine.call", ID: c.id, Parent: c.parent, StartNs: c.start, EndNs: c.end})
	}
	for _, s := range sessions {
		// A closed-loop call runs exactly one session: the tightest
		// engine call around the session is the one that caused it.
		var parent uint64
		best := int64(-1)
		for _, c := range calls {
			if closedLoop && c.start <= s.start && c.end >= s.end {
				if slack := (c.end - c.start) - (s.end - s.start); best < 0 || slack < best {
					parent, best = c.id, slack
				}
			}
		}
		id := emit(span{Name: "cluster.gateway.session", Parent: parent, Session: s.sid, StartNs: s.start, EndNs: s.end})
		emit(span{Name: "cluster.gateway.local_stage", Parent: id, Session: s.sid, StartNs: s.start, EndNs: s.localEnd})
		if s.upstream > 0 {
			emit(span{Name: "cluster.gateway.upstream_stage", Parent: id, Session: s.sid, StartNs: s.end - int64(s.upstream), EndNs: s.end})
		}
		for _, e := range s.exchanges {
			rtt := emit(span{Name: "transport." + e.hop.String() + ".rtt:" + e.reqType.String(), Parent: id, Session: s.sid, StartNs: e.reqStart, EndNs: e.repArrive})
			svc := emit(span{Name: "node.service:" + e.link, Parent: rtt, Session: s.sid, StartNs: e.reqArrive, EndNs: e.repWrite})
			if e.hop == hopUp && s.ec != nil {
				emit(span{Name: "transport.ec.rtt:" + s.ec.reqType.String(), Parent: svc, Session: s.sid, StartNs: s.ec.reqStart, EndNs: s.ec.repArrive})
			}
		}
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
