package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// closedLoopClients is how many callers a closed-loop workload runs:
// two, and never more than the machine has processors, so the load
// generator does not starve the system it measures.
func closedLoopClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// drainTimeout is how long after the window an open-loop request may
// still finish; one that does not counts as failed.
const drainTimeout = 5 * time.Second

// driveResult is what one stretch of traffic produced.
type driveResult struct {
	start        time.Time // when the first operation could be issued
	elapsed      time.Duration
	attempted    int64 // timed operations issued
	failed       int64 // errors, non-2xx, reference mismatches, unfinished
	mismatches   int64 // the part of failed that is a wrong answer
	firstFailure string
	classes      int64 // verified classifications
	exits        exitCounts
	ops          []op // the successful timed operations

	offeredPerSec float64 // timed operations offered per second
	// Open loop only.
	lagMs  []float64 // how late the scheduler fired each arrival
	shed   int64     // 2xx answers granted a tightened pipeline
	non2xx int64
}

// merge folds one client's (or one request's) tallies into r.
func (r *driveResult) merge(o *driveResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.mismatches += o.mismatches
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
	r.classes += o.classes
	for i := range r.exits {
		r.exits[i] += o.exits[i]
	}
	r.ops = append(r.ops, o.ops...)
	r.shed += o.shed
	r.non2xx += o.non2xx
}

func (r *driveResult) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// op is one successful timed operation.
type op struct {
	done      time.Time // when its answer was in hand
	latencyMs float64
	classes   int // classifications it carried
}

// accept verifies one operation's answers; the operation succeeds only
// if every answer matches the staged reference.
func (r *driveResult) accept(v *verifier, answers []answer, done time.Time, latency time.Duration) {
	for _, a := range answers {
		if err := v.check(a); err != nil {
			r.mismatches++
			r.fail("wrong answer: %v", err)
			return
		}
	}
	for _, a := range answers {
		r.classes++
		r.exits[a.exit]++
	}
	r.ops = append(r.ops, op{done: done, latencyMs: ms(latency), classes: len(answers)})
}

// drive runs the workload's traffic for d and returns what happened.
// The same function produces warm-up and measured traffic.
func (f *fixture) drive(ctx context.Context, seed int64, d time.Duration) *driveResult {
	if f.wl.ratePerSec > 0 {
		return f.driveOpen(ctx, seed, d)
	}
	return f.driveClosed(ctx, seed, d)
}

// driveClosed runs the closed-loop clients: each issues its next call
// when the previous one returned.
func (f *fixture) driveClosed(ctx context.Context, seed int64, d time.Duration) *driveResult {
	clients := closedLoopClients()
	parts := make([]*driveResult, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		part := &driveResult{}
		parts[c] = part
		ids := newIDStream(seed*31+int64(c), f.test.Len())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				f.closedOp(ctx, ids.take(f.wl.callSize), part)
			}
		}()
	}
	wg.Wait()
	total := &driveResult{start: start, elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	// Closed loop: the callers offer exactly what the system takes.
	total.offeredPerSec = float64(total.attempted) / total.elapsed.Seconds()
	return total
}

// closedOp is one timed closed-loop operation: a Classify call, or a
// ClassifyBatch call of callSize IDs.
func (f *fixture) closedOp(ctx context.Context, ids []uint64, r *driveResult) {
	r.attempted++
	var (
		results []*cluster.Result
		err     error
	)
	t0 := time.Now()
	if len(ids) == 1 {
		var res *cluster.Result
		res, err = f.sut.classify(ctx, ids[0], "", cluster.ShedNone)
		results = []*cluster.Result{res}
	} else {
		results, err = f.sut.classifyBatch(ctx, ids, "", cluster.ShedNone)
	}
	done := time.Now()
	if err != nil {
		r.fail("engine error: %v", err)
		return
	}
	answers := make([]answer, len(results))
	for i, res := range results {
		if res == nil {
			r.fail("sample %d: no result", ids[i])
			return
		}
		answers[i] = answer{
			refID:        int(ids[i]),
			class:        res.Class,
			exit:         res.Exit,
			probs:        res.Probs,
			present:      res.Present,
			modelVersion: res.ModelVersion,
		}
	}
	r.accept(f.ver, answers, done, done.Sub(t0))
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at     time.Duration // intended start, from the window's start
	sample int
	upload bool
}

// poissonSchedule is the open-loop arrival plan: exponential gaps at
// ratePerSec until d, each arrival drawing its sample and whether it is
// a raw-tensor upload. It is a pure function of its arguments.
func poissonSchedule(seed int64, ratePerSec float64, d time.Duration, samples int, uploadShare float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	ids := newIDStream(seed*31+7, samples)
	var plan []arrival
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / ratePerSec * float64(time.Second))
		if at >= d {
			return plan
		}
		plan = append(plan, arrival{at: at, sample: int(ids.next()), upload: rng.Float64() < uploadShare})
	}
}

// driveOpen issues the Poisson plan from one scheduler goroutine by
// calling the front door's handler in-process. A request is timed from
// its intended start, so time spent waiting behind a stalled system (or
// a late scheduler) is charged to it rather than omitted.
func (f *fixture) driveOpen(ctx context.Context, seed int64, d time.Duration) *driveResult {
	plan := poissonSchedule(seed, f.wl.ratePerSec, d, f.test.Len(), f.wl.uploadShare)
	total := &driveResult{offeredPerSec: float64(len(plan)) / d.Seconds()}
	total.lagMs = make([]float64, 0, len(plan))
	done := make(chan *driveResult, len(plan)) // every request reports once, never blocking

	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	issued := 0
	for _, a := range plan {
		if wait := time.Until(start.Add(a.at)); wait > 0 {
			time.Sleep(wait)
		}
		if ctx.Err() != nil {
			break
		}
		intended := start.Add(a.at)
		total.lagMs = append(total.lagMs, ms(time.Since(intended)))
		issued++
		go func(a arrival) {
			part := &driveResult{}
			f.httpOp(reqCtx, a, intended, part)
			done <- part
		}(a)
	}
	drain := time.NewTimer(time.Until(start.Add(d + drainTimeout)))
	defer drain.Stop()
	finished := 0
collect:
	for ; finished < issued; finished++ {
		select {
		case part := <-done:
			total.merge(part)
		case <-drain.C:
			break collect
		}
	}
	for n := finished; n < len(plan); n++ {
		total.fail("%d of %d requests unfinished %v after the window", len(plan)-finished, len(plan), drainTimeout)
	}
	// The window is the plan's span; the drain only lets the last
	// arrivals finish.
	total.start, total.elapsed = start, d
	total.attempted = int64(len(plan))
	return total
}

// uploadBody is the raw-tensor request body for one dataset sample: its
// views in device order as little-endian float32.
func uploadBody(ds *dataset.Dataset, sample int) []byte {
	var body []byte
	for _, view := range ds.Samples[sample].Views[:ds.Devices()] {
		for _, v := range view {
			body = binary.LittleEndian.AppendUint32(body, math.Float32bits(v))
		}
	}
	return body
}

// httpAnswer is the front door's classify response, as far as the
// benchmark reads it.
type httpAnswer struct {
	Class        int       `json:"class"`
	Exit         string    `json:"exit"`
	Probs        []float32 `json:"probs"`
	Present      []bool    `json:"present"`
	ShedLevel    string    `json:"shed_level"`
	ModelVersion uint64    `json:"model_version"`
}

// response is a minimal in-memory http.ResponseWriter.
type response struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *response) Header() http.Header { return w.header }
func (w *response) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *response) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// httpOp is one timed open-loop operation: a POST /v1/classify through
// the whole handler chain, by sample ID or as a raw tensor upload.
func (f *fixture) httpOp(ctx context.Context, a arrival, intended time.Time, r *driveResult) {
	var body []byte
	contentType := "application/json"
	if a.upload {
		body, contentType = f.uploads[a.sample], "application/octet-stream"
	} else {
		body = []byte(fmt.Sprintf(`{"sample_id":%d}`, a.sample))
	}
	span := f.trace.beginHandler(a.upload)
	if span != 0 {
		ctx = context.WithValue(ctx, spanKey{}, span)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/classify", bytes.NewReader(body))
	if err != nil {
		r.fail("build request: %v", err)
		return
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Authorization", "Bearer "+httpToken)
	w := &response{header: make(http.Header)}
	f.front.ServeHTTP(w, req)
	done := time.Now()

	var ans httpAnswer
	shed := false
	defer func() { f.trace.endHandler(span, w.status, shed) }()
	if w.status != http.StatusOK {
		r.non2xx++
		r.fail("HTTP %d: %s", w.status, bytes.TrimSpace(w.body.Bytes()))
		return
	}
	if err := json.Unmarshal(w.body.Bytes(), &ans); err != nil {
		r.fail("decode response: %v", err)
		return
	}
	exit, okExit := parseExit(ans.Exit)
	level, okLevel := parseShedLevel(ans.ShedLevel)
	if !okExit || !okLevel {
		r.fail("response names exit %q, shed level %q", ans.Exit, ans.ShedLevel)
		return
	}
	if shed = level != cluster.ShedNone; shed {
		r.shed++
	}
	r.accept(f.ver, []answer{{
		refID:        a.sample,
		class:        ans.Class,
		exit:         exit,
		probs:        ans.Probs,
		present:      ans.Present,
		modelVersion: ans.ModelVersion,
		level:        level,
	}}, done, done.Sub(intended))
}

func parseExit(s string) (wire.ExitPoint, bool) {
	for _, e := range []wire.ExitPoint{wire.ExitLocal, wire.ExitEdge, wire.ExitCloud} {
		if e.String() == s {
			return e, true
		}
	}
	return 0, false
}

func parseShedLevel(s string) (cluster.ShedLevel, bool) {
	for _, l := range []cluster.ShedLevel{cluster.ShedNone, cluster.ShedPreferEdge, cluster.ShedLocalOnly} {
		if l.String() == s {
			return l, true
		}
	}
	return 0, false
}
