package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// assertedOrderings are the orderings of Repro.Orderings that held on
// the record when it was first taken. The others fail at the quick
// scale, whose models sit near chance and send 95 % of samples to the
// cloud at ReproT (so the framed bytes of comm-20x-wire read 16.9×);
// they are reported by ddnn-bench -exp repro, not asserted, and not
// tuned away.
var assertedOrderings = map[string]bool{
	"staged-ge-cloud-only": true,
	"comm-20x":             true,
}

// TestReproRecord retakes the paper record at QuickOptions on the
// package's shared runner (about half a minute of training on two
// cores, shared with the shape tests), requires it to equal the
// committed REPRO.json exactly — training is deterministic, so a change
// that moves training numerics must update the file in its own diff —
// and asserts the orderings the record holds.
func TestReproRecord(t *testing.T) {
	r := runner(t)
	committed, err := os.ReadFile("../../REPRO.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Repro()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Orderings() {
		t.Logf("%s holds=%v: %s", o.Name, o.Holds, o.Detail)
		if assertedOrderings[o.Name] && !o.Holds {
			t.Errorf("ordering %s no longer holds: %s", o.Name, o.Detail)
		}
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), committed) {
		t.Errorf("the repro record differs from REPRO.json; if training numerics moved on purpose, rerun `go run ./cmd/ddnn-bench -exp repro -json REPRO.json` and commit it. Got:\n%s", got)
	}
}
