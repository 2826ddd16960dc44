package lint_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ndnprivacy/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the findings.golden files")

// fixtures maps each testdata/src directory to the import path it is
// type-checked under, which is what scopes the determinism checks.
var fixtures = map[string]string{
	"simdet_violation":     "ndnprivacy/internal/netsim",
	"simdet_allow":         "ndnprivacy/internal/netsim",
	"simdet_rtexempt":      "ndnprivacy/internal/rt",
	"globalrand_violation": "ndnprivacy/internal/util",
	"maporder_violation":   "ndnprivacy/internal/fwd",
	"maporder_clean":       "ndnprivacy/internal/fwd",
	"wireerr_violation":    "ndnprivacy/internal/fwd",
	"clean":                "ndnprivacy/internal/netsim",
	"seedflow_violation":   "ndnprivacy/internal/netsim",
	"seedflow_clean":       "ndnprivacy/internal/netsim",
	"seedflow_allow":       "ndnprivacy/internal/netsim",
	"filescope_allow":      "ndnprivacy/internal/util",
}

// expectFiring names the fixtures that must produce at least one finding
// from the named check, proving each analyzer actually fires.
var expectFiring = map[string]string{
	"simdet_violation":     "simdeterminism",
	"globalrand_violation": "globalrand",
	"maporder_violation":   "maporder",
	"wireerr_violation":    "wireerr",
	"seedflow_violation":   "seedflow",
}

// expectClean names the fixtures that must stay silent: clean idiomatic
// code, the suppression negative fixtures, and the rt boundary.
var expectClean = []string{
	"clean", "simdet_allow", "simdet_rtexempt", "maporder_clean",
	"seedflow_clean", "seedflow_allow",
	"filescope_allow",
}

func TestGolden(t *testing.T) {
	imp := newFixtureImporter(t, filepath.Join("testdata", "src"))
	got := make(map[string][]lint.Finding)
	for dir, path := range fixtures {
		got[dir] = checkFixture(t, imp, dir, path)
	}

	for dir := range fixtures {
		t.Run(dir, func(t *testing.T) {
			compareGolden(t, dir, got[dir])
		})
	}

	t.Run("checks-fire", func(t *testing.T) {
		for dir, check := range expectFiring {
			found := false
			for _, f := range got[dir] {
				if f.Check == check {
					found = true
				}
			}
			if !found {
				t.Errorf("fixture %s: expected at least one %s finding, got %v", dir, check, got[dir])
			}
		}
	})

	t.Run("checks-stay-silent", func(t *testing.T) {
		for _, dir := range expectClean {
			if len(got[dir]) != 0 {
				t.Errorf("fixture %s: expected no findings, got %v", dir, got[dir])
			}
		}
	})
}

func compareGolden(t *testing.T, dir string, findings []lint.Finding) {
	t.Helper()
	var lines []string
	for _, f := range findings {
		lines = append(lines, fmt.Sprintf("%s:%d: [%s] %s", filepath.Base(f.File), f.Line, f.Check, f.Message))
	}
	rendered := strings.Join(lines, "\n")
	if rendered != "" {
		rendered += "\n"
	}
	goldenPath := filepath.Join("testdata", "src", dir, "findings.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if rendered != string(want) {
		t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", rendered, want)
	}
}

// checkFixture type-checks one fixture directory under the given import
// path and runs every analyzer over it.
func checkFixture(t *testing.T, imp *fixtureImporter, dir, path string) []lint.Finding {
	t.Helper()
	files, fset := imp.parseDir(t, filepath.Join(imp.root, dir))
	info := lint.NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	return lint.Check(fset, files, pkg, info, lint.All)
}

// fixtureImporter resolves module-internal import paths from the
// testdata/src tree and everything else from the installed toolchain, so
// fixtures can import a miniature internal/ndn without touching the real
// module graph.
type fixtureImporter struct {
	root     string
	fset     *token.FileSet
	fallback types.Importer
	cache    map[string]*types.Package
}

func newFixtureImporter(t *testing.T, root string) *fixtureImporter {
	t.Helper()
	return &fixtureImporter{
		root:     root,
		fset:     token.NewFileSet(),
		fallback: importer.Default(),
		cache:    make(map[string]*types.Package),
	}
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(im.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return im.fallback.Import(path)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		return nil, fmt.Errorf("fixture import %q: no Go files: %v", path, err)
	}
	var files []*ast.File
	for _, m := range matches {
		f, err := parser.ParseFile(im.fset, m, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, files, lint.NewInfo())
	if err != nil {
		return nil, err
	}
	im.cache[path] = pkg
	return pkg, nil
}

func (im *fixtureImporter) parseDir(t *testing.T, dir string) ([]*ast.File, *token.FileSet) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("fixture dir %s: no Go files (%v)", dir, err)
	}
	sort.Strings(matches)
	var files []*ast.File
	for _, m := range matches {
		f, err := parser.ParseFile(im.fset, m, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files, im.fset
}

// TestRepoLintsClean loads the real module the same way cmd/ndnlint does
// and requires zero findings: the repo must honor its own invariants.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list -export over the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lint.CheckAll(pkgs, lint.All) {
		t.Errorf("%s", f)
	}
}
