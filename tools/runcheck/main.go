// Command runcheck keeps CI from silently dropping coverage. It makes two
// checks against a workflow file:
//
//   - every `go test … -run 'A|B|C' … ./pkg` line: each top-level
//     alternative of the -run expression must still match at least one
//     test in the line's target packages (`go test -list`), so a rename or
//     deletion cannot leave an expression that runs nothing;
//   - every Test* and Fuzz* function of the module must run in some step.
//     A test runs in a `go test` line that targets its package and whose
//     -run expression (none: every test) matches it; a line with -short
//     does not count for a test that skips under -short (its body or a
//     helper it calls skips inside `if testing.Short()`). A fuzz target
//     runs only in a `-fuzz` smoke line that names it; `${var}` in a
//     -fuzz expression takes each value of the line's enclosing
//     `for var in …; do` loop.
//
// Usage:
//
//	go run ./tools/runcheck .github/workflows/ci.yml
//
// It runs from the module root. Exit status 1 and one line per finding
// when either check fails. Lines that cd elsewhere (another module) or
// name a package through a shell variable are not steps of this module.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// runRe and fuzzRe capture a -run or -fuzz expression: -run 'X',
// -run "X", -run=X and the quoted = forms.
var (
	runRe  = regexp.MustCompile(`-run[= ]\s*(?:'([^']*)'|"([^"]*)"|(\S+))`)
	fuzzRe = regexp.MustCompile(`-fuzz[= ]\s*(?:'([^']*)'|"([^"]*)"|(\S+))`)
	forRe  = regexp.MustCompile(`for (\w+) in ([^;]*); do`)
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: runcheck WORKFLOW.yml")
		os.Exit(2)
	}
	findings, err := check(os.Args[1], ".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "runcheck: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// step is one `go test` line of the workflow.
type step struct {
	line  int
	short bool
	run   string   // the -run expression; "" runs every test
	fuzz  []string // the -fuzz expressions, loop variables expanded
	pkgs  []string // package patterns: ".", "./x" or "./x/..."
}

// pkg is one package of the module: its tests as `go test -list`
// reports them, and the Test functions that skip under -short.
type pkg struct {
	rel       string // "." or "./x"
	tests     []string
	shortSkip map[string]bool
}

// check runs both checks for the workflow file against the module in
// root and returns the findings.
func check(workflow, root string) ([]string, error) {
	data, err := os.ReadFile(workflow)
	if err != nil {
		return nil, err
	}
	steps := parseSteps(string(data))
	pkgs, err := listPackages(root)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, s := range steps {
		if s.run == "" || s.run == "^$" {
			continue
		}
		var names []string
		for _, p := range pkgs {
			if s.targets(p.rel) {
				names = append(names, p.tests...)
			}
		}
		for _, alt := range splitAlternatives(s.run) {
			re, err := regexp.Compile(alt)
			if err != nil {
				return nil, fmt.Errorf("line %d: -run alternative %q: %v", s.line, alt, err)
			}
			if !matchesAny(re, names) {
				findings = append(findings, fmt.Sprintf("%s:%d: -run alternative %q matches no test in %s", workflow, s.line, alt, strings.Join(s.pkgs, " ")))
			}
		}
	}
	for _, p := range pkgs {
		for _, name := range p.tests {
			if why := orphan(steps, p, name); why != "" {
				findings = append(findings, fmt.Sprintf("%s: %s %s runs in no CI step: %s", workflow, p.rel, name, why))
			}
		}
	}
	return findings, nil
}

// orphan reports why a test or fuzz target runs in no step, or "".
func orphan(steps []step, p pkg, name string) string {
	switch {
	case strings.HasPrefix(name, "Fuzz"):
		for _, s := range steps {
			for _, expr := range s.fuzz {
				if re, err := regexp.Compile(expr); err == nil && s.targets(p.rel) && re.MatchString(name) {
					return ""
				}
			}
		}
		return "no -fuzz smoke line names it"
	case strings.HasPrefix(name, "Test"):
		listed := false
		for _, s := range steps {
			if !s.targets(p.rel) || len(s.fuzz) > 0 {
				continue
			}
			if s.run != "" {
				re, err := regexp.Compile(s.run)
				if err != nil || !re.MatchString(name) {
					continue
				}
			}
			listed = true
			if !s.short || !p.shortSkip[name] {
				return ""
			}
		}
		if listed {
			return "it skips under -short and every line that runs it passes -short"
		}
		return "no line runs its package with a -run expression that matches it"
	}
	return "" // benchmarks and examples are not gated
}

// targets reports whether the step tests the package rel.
func (s step) targets(rel string) bool {
	for _, pat := range s.pkgs {
		switch {
		case pat == rel:
			return true
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			if base == "." || rel == base || strings.HasPrefix(rel, base+"/") {
				return true
			}
		}
	}
	return false
}

// parseSteps extracts the `go test` lines of a workflow.
func parseSteps(workflow string) []step {
	var steps []step
	lines := strings.Split(workflow, "\n")
	for n, line := range lines {
		i := strings.Index(line, "go test")
		if i < 0 || strings.Contains(line[:i], "cd ") {
			continue
		}
		s := step{line: n + 1}
		args := strings.Fields(line[i+len("go test"):])
		unresolved := false
		for _, a := range args {
			switch {
			case a == "-short":
				s.short = true
			case a == "." || strings.HasPrefix(a, "./"):
				s.pkgs = append(s.pkgs, a)
			case strings.HasPrefix(strings.Trim(a, `"'`), "./") && strings.Contains(a, "$"):
				unresolved = true
			}
		}
		if unresolved {
			continue
		}
		if len(s.pkgs) == 0 {
			s.pkgs = []string{"."}
		}
		if m := runRe.FindStringSubmatch(line); m != nil {
			s.run = m[1] + m[2] + m[3]
		}
		if m := fuzzRe.FindStringSubmatch(line); m != nil {
			s.fuzz = expandLoop(m[1]+m[2]+m[3], lines[:n])
		}
		steps = append(steps, s)
	}
	return steps
}

// expandLoop replaces ${v} (or $v) in expr by each value of the nearest
// preceding `for v in …; do` loop.
func expandLoop(expr string, before []string) []string {
	for k := len(before) - 1; k >= 0; k-- {
		m := forRe.FindStringSubmatch(before[k])
		if m == nil {
			continue
		}
		v := m[1]
		if !strings.Contains(expr, "${"+v+"}") && !strings.Contains(expr, "$"+v) {
			break
		}
		var out []string
		for _, val := range strings.Fields(m[2]) {
			out = append(out, strings.NewReplacer("${"+v+"}", val, "$"+v, val).Replace(expr))
		}
		return out
	}
	return []string{expr}
}

// listPackages lists the module's packages in root with their tests and
// the tests that skip under -short.
func listPackages(root string) ([]pkg, error) {
	mod, err := goCmd(root, "list", "-m")
	if err != nil {
		return nil, err
	}
	modPath := strings.TrimSpace(mod)
	out, err := goCmd(root, "list", "-f", "{{.ImportPath}}\t{{.Dir}}", "./...")
	if err != nil {
		return nil, err
	}
	byPath := map[string]*pkg{}
	var pkgs []*pkg
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		path, dir, _ := strings.Cut(l, "\t")
		rel := "." + strings.TrimPrefix(path, modPath)
		if rel == "." || strings.HasPrefix(rel, "./") {
			p := &pkg{rel: rel}
			if p.shortSkip, err = shortSkips(dir); err != nil {
				return nil, err
			}
			byPath[path] = p
			pkgs = append(pkgs, p)
		}
	}
	listed, err := goCmd(root, "test", "-list", ".*", "./...")
	if err != nil {
		return nil, err
	}
	var names []string
	for _, l := range strings.Split(listed, "\n") {
		f := strings.Fields(l)
		switch {
		case len(f) == 1:
			names = append(names, f[0])
		case len(f) >= 2 && (f[0] == "ok" || f[0] == "?"):
			// The per-package trailer ends the package's names.
			if p := byPath[f[1]]; p != nil {
				p.tests = append(p.tests, names...)
			}
			names = nil
		}
	}
	res := make([]pkg, len(pkgs))
	for i, p := range pkgs {
		res[i] = *p
	}
	sort.Slice(res, func(i, j int) bool { return res[i].rel < res[j].rel })
	return res, nil
}

// shortSkips parses the _test.go files in dir and returns the functions
// that skip under -short: those whose body skips inside an
// `if testing.Short()` statement, and those that call such a function of
// the package.
func shortSkips(dir string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	skips := map[string]bool{}
	calls := map[string][]string{}
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv != nil {
				continue
			}
			name := fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					if mentionsShort(n.Cond) && skipsIn(n.Body) {
						skips[name] = true
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok {
						calls[name] = append(calls[name], id.Name)
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for _, c := range callees {
				if skips[c] && !skips[fn] {
					skips[fn], changed = true, true
				}
			}
		}
	}
	return skips, nil
}

// mentionsShort reports whether e calls testing.Short().
func mentionsShort(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Short" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "testing" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// skipsIn reports whether b calls a Skip, Skipf or SkipNow method.
func skipsIn(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Skip") {
				found = true
			}
		}
		return !found
	})
	return found
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
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
