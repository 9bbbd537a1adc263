// Package cliutil holds the flag helpers shared by the cmd binaries: the
// repeatable address flag, integer lists, and the Cluster flag set that
// picks a model and where its hierarchy runs.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"
)

// AddrList is a repeatable address flag (flag.Value): each occurrence
// appends one address, and an occurrence may also hold a
// comma-separated list. The replica address flags (-cloud, -edge-addr)
// of ddnn-node and Cluster use it.
type AddrList []string

// String renders the accumulated addresses.
func (a *AddrList) String() string { return strings.Join(*a, ",") }

// Set appends one flag occurrence's addresses.
func (a *AddrList) Set(v string) error {
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			*a = append(*a, s)
		}
	}
	return nil
}

// ParseInts parses a comma-separated list of integers no smaller than
// min, ignoring empty elements. ddnn-sim parses its -fail and -churn
// device lists with it.
func ParseInts(s string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < min {
			return nil, fmt.Errorf("bad list entry %q (want integer >= %d)", part, min)
		}
		out = append(out, n)
	}
	return out, nil
}
