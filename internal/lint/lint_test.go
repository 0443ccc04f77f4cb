package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The golden tests mirror x/tools' analysistest: each fixture package
// under testdata/src/<analyzer> carries `// want "regex"` comments on
// the lines the analyzer must flag, and every diagnostic must be
// matched by exactly one want.

// wantRe matches `// want` comments with a backquoted or double-quoted
// pattern.
var wantRe = regexp.MustCompile("// want (?:`([^`]*)`|\"([^\"]*)\")")

type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// parseWants scans the fixture directory's Go files for want comments.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			pat := m[1]
			if pat == "" {
				pat = m[2]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, pat, err)
			}
			wants = append(wants, &want{file: path, line: line, pattern: re})
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// fixtureLoader builds one loader whose importer can resolve everything
// any fixture imports. Loading is shared across subtests because go
// list dominates the test's wall clock.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	l, _, err := NewLoader(".", nil,
		"sync", "time", "math/rand", "sort",
		"sp2bench/internal/store", "sp2bench/internal/engine")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// runFixture loads testdata/src/<name>, runs one analyzer over it, and
// reconciles diagnostics against the want comments.
func runFixture(t *testing.T, l *Loader, name string, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.CheckDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	var diags []Diagnostic
	pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
	if err := a.Run(pass); err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	wants := parseWants(t, dir)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.pattern)
		}
	}
}

func TestAnalyzersGolden(t *testing.T) {
	l := fixtureLoader(t)
	cases := []struct {
		name     string
		analyzer *Analyzer
	}{
		{"goroutinecleanup", GoroutineCleanup},
		{"lockdiscipline", LockDiscipline},
		{"frozenmutation", NewFrozenMutation("fixture/frozenmutation")},
		{"idequality", IDEquality},
		{"determinism", Determinism},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runFixture(t, l, tc.name, tc.analyzer)
		})
	}
}

// TestScope pins the scoping semantics sp2blint relies on: prefix
// matches, exact matches, and the everything-by-default rule.
func TestScope(t *testing.T) {
	s := Scope{"determinism": {"sp2bench/internal/gen", "sp2bench/internal/dist"}}
	for _, tc := range []struct {
		analyzer, path string
		want           bool
	}{
		{"determinism", "sp2bench/internal/gen", true},
		{"determinism", "sp2bench/internal/gen/sub", true},
		{"determinism", "sp2bench/internal/generic", false},
		{"determinism", "sp2bench/internal/engine", false},
		{"goroutinecleanup", "sp2bench/internal/engine", true},
	} {
		if got := s.inScope(tc.analyzer, tc.path); got != tc.want {
			t.Errorf("inScope(%s, %s) = %v, want %v", tc.analyzer, tc.path, got, tc.want)
		}
	}
}

// TestParseDirective pins the annotation grammar.
func TestParseDirective(t *testing.T) {
	for _, tc := range []struct {
		text       string
		key, value string
		ok         bool
	}{
		{"// sp2b:locks=write guarded by StoreShared.mu", "locks", "write", true},
		{"//sp2b:leaks=ok bounded by ctx", "leaks", "ok", true},
		{"// sp2b:valuecmp", "valuecmp", "true", true},
		{"// an ordinary comment", "", "", false},
		{"// sp2b:", "", "", false},
	} {
		k, v, ok := parseDirective(tc.text)
		if k != tc.key || v != tc.value || ok != tc.ok {
			t.Errorf("parseDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.text, k, v, ok, tc.key, tc.value, tc.ok)
		}
	}
}

// TestMutatingStoreMethodsInSync derives the set of mutating methods
// from package store's own source — any method that writes a Store or
// Dict field, directly or via a builder — and checks the
// lockdiscipline table against it. A new mutating method
// added to the store without a table update fails here, not in
// production.
func TestMutatingStoreMethodsInSync(t *testing.T) {
	pkgs, err := LoadPackages("", "sp2bench/internal/store")
	if err != nil {
		t.Fatalf("loading store: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected 1 package, got %d", len(pkgs))
	}
	derived := deriveMutatingMethods(pkgs[0])
	for recvName, methods := range derived {
		for m := range methods {
			if !mutatingStoreMethods[recvName][m] {
				t.Errorf("store method %s.%s writes store state but is missing from mutatingStoreMethods", recvName, m)
			}
		}
	}
	for recvName, methods := range mutatingStoreMethods {
		for m := range methods {
			if !derived[recvName][m] {
				t.Errorf("mutatingStoreMethods lists %s.%s, which does not write store state (stale entry?)", recvName, m)
			}
		}
	}
}
