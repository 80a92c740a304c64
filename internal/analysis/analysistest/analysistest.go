// Package analysistest runs sgelint analyzers over fixture packages
// and checks their findings against // want annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// alone.
//
// Fixtures live under testdata/src/<pkg>/ and are plain Go packages
// (skipped by the go tool because of the testdata path element). They
// may import the standard library — resolved by the source importer
// from GOROOT, so tests need no network and no pre-built export data —
// but not each other.
//
// An expectation is a comment on the offending line:
//
//	x := T{}        // want "missing field"
//	y := f(ctx)     // want "first finding" "second finding"
//
// Each quoted string is a regular expression that must match the
// message of exactly one finding reported on that line; findings with
// no matching expectation, and expectations with no matching finding,
// fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parsge/internal/analysis"
)

// The source importer re-typechecks each imported package from GOROOT
// source; it caches internally, so one shared instance (it is not
// safe for concurrent use — guarded by mu) keeps fixture suites fast.
var (
	mu        sync.Mutex
	sharedSet = token.NewFileSet()
	sharedImp = importer.ForCompiler(sharedSet, "source", nil)
)

// Run analyzes each fixture package under filepath.Join(testdata,
// "src", pkg) with the given analyzers (through analysis.Run, so the
// //sgelint:ignore suppression path is active exactly as in the real
// driver) and reports mismatches against the // want annotations.
func Run(t testing.TB, testdata string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		if err := runPackage(t, dir, pkg, analyzers); err != nil {
			t.Errorf("%s: %v", pkg, err)
		}
	}
}

func runPackage(t testing.TB, dir, pkgPath string, analyzers []*analysis.Analyzer) error {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(sharedSet, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return fmt.Errorf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tcfg := &types.Config{Importer: sharedImp}
	pkg, err := tcfg.Check(pkgPath, sharedSet, files, info)
	if err != nil {
		return fmt.Errorf("typechecking fixture: %w", err)
	}

	diags, err := analysis.Run(sharedSet, files, pkg, info, analyzers)
	if err != nil {
		return err
	}

	wants := collectWants(t, sharedSet, files)
	for _, d := range diags {
		p := sharedSet.Position(d.Pos)
		key := posKey{p.Filename, p.Line}
		if !claimWant(wants[key], d.Message) {
			t.Errorf("%s:%d: unexpected finding: %s: %s", p.Filename, p.Line, d.Analyzer, d.Message)
		}
	}
	var keys []posKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.claimed {
				t.Errorf("%s:%d: no finding matched want %q", k.file, k.line, w.re.String())
			}
		}
	}
	return nil
}

type posKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	claimed bool
}

// claimWant marks (and reports) the first unclaimed expectation on the
// line whose pattern matches the message.
func claimWant(ws []*want, message string) bool {
	for _, w := range ws {
		if !w.claimed && w.re.MatchString(message) {
			w.claimed = true
			return true
		}
	}
	return false
}

var wantRE = regexp.MustCompile(`// want((?:\s+(?:"(?:[^"\\]|\\.)*"|` + "`[^`]*`" + `))+)`)

// collectWants parses every // want annotation, keyed by the line the
// comment sits on.
func collectWants(t testing.TB, fset *token.FileSet, files []*ast.File) map[posKey][]*want {
	t.Helper()
	out := make(map[posKey][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				for rest := strings.TrimSpace(m[1]); rest != ""; {
					arg, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", p.Filename, p.Line, rest, err)
						break
					}
					rest = strings.TrimSpace(rest[len(arg):])
					pat, _ := strconv.Unquote(arg) // a valid quoted prefix always unquotes
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", p.Filename, p.Line, pat, err)
						continue
					}
					key := posKey{p.Filename, p.Line}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}
