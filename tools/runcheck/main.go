// Command runcheck keeps CI from silently dropping coverage when a test
// is renamed or deleted: for every `go test … -run 'A|B|C' … ./pkg` line
// in a workflow file it splits the -run expression into its top-level
// alternatives and checks, with `go test -list`, that each alternative
// still matches at least one test in the line's target packages.
//
// Usage:
//
//	go run ./tools/runcheck .github/workflows/ci.yml
//
// Exit status 1 and one line per finding when an alternative matches
// nothing. Lines whose expression is `^$` (the fuzz steps, which run no
// tests on purpose) are skipped.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
)

// runRe captures a -run expression: -run 'X', -run "X", -run=X and the
// quoted = forms.
var runRe = regexp.MustCompile(`-run[= ]\s*(?:'([^']*)'|"([^"]*)"|(\S+))`)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: runcheck WORKFLOW.yml")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "runcheck: %v\n", err)
		os.Exit(2)
	}
	listed := make(map[string][]string) // package → its test names
	bad := 0
	for n, line := range strings.Split(string(data), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := runRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		expr := m[1] + m[2] + m[3]
		if expr == "^$" {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		var names []string
		for _, pkg := range pkgs {
			if _, ok := listed[pkg]; !ok {
				if listed[pkg], err = listTests(pkg); err != nil {
					fmt.Fprintf(os.Stderr, "runcheck: %v\n", err)
					os.Exit(2)
				}
			}
			names = append(names, listed[pkg]...)
		}
		for _, alt := range splitAlternatives(expr) {
			re, err := regexp.Compile(alt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "runcheck: line %d: -run alternative %q: %v\n", n+1, alt, err)
				os.Exit(2)
			}
			matched := 0
			for _, name := range names {
				if re.MatchString(name) {
					matched++
				}
			}
			if matched == 0 {
				fmt.Printf("%s:%d: -run alternative %q matches no test in %s\n", os.Args[1], n+1, alt, strings.Join(pkgs, " "))
				bad++
			}
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// listTests returns the names `go test -list` reports for a package
// pattern: tests, benchmarks, fuzz targets and examples.
func listTests(pkg string) ([]string, error) {
	out, err := exec.Command("go", "test", "-list", ".*", pkg).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -list .* %s: %v\n%s", pkg, err, out)
	}
	var names []string
	for _, l := range strings.Split(string(out), "\n") {
		// Everything but the per-package "ok  pkg 0.01s" / "?  pkg [no
		// test files]" trailers is a name.
		if l = strings.TrimSpace(l); l != "" && !strings.ContainsAny(l, " \t") {
			names = append(names, l)
		}
	}
	return names, nil
}

// splitAlternatives cuts a regular expression at its top-level `|`s —
// those outside any group or character class.
func splitAlternatives(expr string) []string {
	var alts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(expr); i++ {
		switch c := expr[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, expr[start:i])
			start = i + 1
		}
	}
	return append(alts, expr[start:])
}
