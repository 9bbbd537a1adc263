package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// plantedModule is a module whose workflow leaves three functions
// orphaned — a test no -run expression lists, a test that skips under
// -short in the only line that runs it, and a fuzz target without a smoke
// line — and runs everything else once: through a -run list, a -short
// package line, a non-short line, a -fuzz line and a -fuzz loop.
var plantedModule = map[string]string{
	"go.mod": "module example.com/planted\n\ngo 1.22\n",
	"a/a_test.go": `package a

import "testing"

func TestListed(t *testing.T)   {}
func TestUnlisted(t *testing.T) {}
`,
	"b/b_test.go": `package b

import "testing"

func TestPlain(t *testing.T) {}

func TestSkipsUnderShort(t *testing.T) { trains(t) }

func trains(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
}

func TestShortensUnderShort(t *testing.T) {
	n := 10
	if testing.Short() {
		n = 1
	}
	_ = n
}

func FuzzSmoked(f *testing.F) { f.Fuzz(func(t *testing.T, b []byte) {}) }
func FuzzLooped(f *testing.F) { f.Fuzz(func(t *testing.T, b []byte) {}) }
func FuzzOrphan(f *testing.F) { f.Fuzz(func(t *testing.T, b []byte) {}) }
`,
	"c/c_test.go": `package c

import "testing"

func TestSkipsUnderShortButRunsLong(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
}
`,
	"ci.yml": `jobs:
  test:
    steps:
      - run: go test -race -run 'TestListed' -v ./a
      - run: go test -short ./b ./c
      - run: go test ./c
      - run: go test -run 'TestGone|TestPlain' ./b
      - run: |
          go test -run='^$' -fuzz='^FuzzSmoked$' -fuzztime=5s ./b
          for target in FuzzLooped; do
            go test -run='^$' -fuzz="^${target}$" -fuzztime=5s ./b
          done
      - run: (cd elsewhere && go test ./...)
`,
}

// TestRuncheckFindsPlantedOrphans runs both checks on the planted module
// and requires exactly its four findings: the stale -run alternative and
// the three orphans.
func TestRuncheckFindsPlantedOrphans(t *testing.T) {
	root := t.TempDir()
	for name, body := range plantedModule {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := check(filepath.Join(root, "ci.yml"), root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		for _, name := range []string{`"TestGone"`, "TestUnlisted", "TestSkipsUnderShort ", "FuzzOrphan"} {
			if strings.Contains(f, name) {
				got = append(got, strings.TrimSpace(name))
			}
		}
	}
	slices.Sort(got)
	if want := []string{`"TestGone"`, "FuzzOrphan", "TestSkipsUnderShort", "TestUnlisted"}; !slices.Equal(got, want) || len(findings) != len(want) {
		t.Errorf("findings %q\nwant one each for %v", findings, want)
	}
}
