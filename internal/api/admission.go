package api

import (
	"sync/atomic"

	"github.com/ddnn/ddnn-go/internal/cluster"
)

// admission bounds in-flight classify work and converts load into shed
// levels: below half capacity requests run the full hierarchy, up to
// three quarters they stop at the edge, up to the bound they answer at
// the device-local exit, and at the bound they are rejected with 503.
// Overload therefore degrades answer quality stage by stage — every
// admitted request is answered, with bounded queueing, until the server
// is genuinely full.
type admission struct {
	max      int64
	inflight atomic.Int64
}

func newAdmission(maxInFlight int) *admission {
	return &admission{max: int64(maxInFlight)}
}

// acquire admits one request, returning its shed level and a release
// func, or reports rejection (the caller answers 503).
func (a *admission) acquire() (level cluster.ShedLevel, release func(), ok bool) {
	n := a.inflight.Add(1)
	if n > a.max {
		a.inflight.Add(-1)
		return 0, nil, false
	}
	switch {
	case 2*n <= a.max:
		level = cluster.ShedNone
	case 4*n <= 3*a.max:
		level = cluster.ShedPreferEdge
	default:
		level = cluster.ShedLocalOnly
	}
	return level, func() { a.inflight.Add(-1) }, true
}

// current returns the number of admitted in-flight requests.
func (a *admission) current() int64 { return a.inflight.Load() }
