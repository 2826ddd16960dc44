package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Check runs the given analyzers over the package. Module-level
// analyzers see just this package; prefer CheckAll for whole-tree runs
// so interprocedural analyses can follow cross-package calls.
func (p *Package) Check(checks []*Analyzer) []Finding {
	return Check(p.Fset, p.Files, p.Types, p.Info, checks)
}

// CheckAll runs the given analyzers over every loaded package at once:
// per-package checks per package, module-level checks (viewsafe) over
// the whole set, which is what lets them propagate facts across package
// boundaries. All packages must come from one Load call (shared
// FileSet).
func CheckAll(pkgs []*Package, checks []*Analyzer) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	return CheckUnits(pkgs[0].Fset, Units(pkgs), checks)
}

// Units converts loaded packages to module-pass units (shared FileSet
// assumed, as produced by one Load call).
func Units(pkgs []*Package) []*Unit {
	units := make([]*Unit, len(pkgs))
	for i, p := range pkgs {
		units[i] = &Unit{Files: p.Files, Pkg: p.Types, Info: p.Info}
	}
	return units
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks every non-test Go file of the packages matching the
// `go list` patterns (for example "./..."), resolving imports from the
// compiled export data that `go list -export -deps` produces. It needs
// only the go toolchain and the standard library, so it works offline.
//
// Test files are deliberately excluded: the determinism contract binds
// the simulator and experiment code, while tests are free to consult
// the wall clock for timeouts and benchmarks.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list failed: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		targets = append(targets, p)
	}

	fset := token.NewFileSet()
	imp := &moduleImporter{
		base: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("lint: no export data for %q", path)
			}
			return os.Open(file)
		}),
		built: make(map[string]*types.Package),
	}

	var pkgs []*Package
	for _, target := range targets {
		pkg, err := typeCheck(fset, imp, target)
		if err != nil {
			return nil, err
		}
		imp.built[pkg.Path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// moduleImporter resolves module-internal imports to the source-checked
// packages built earlier in the same Load call (go list -deps emits
// dependencies before dependents), falling back to compiled export data
// for the standard library. Sharing one object world across packages is
// what lets viewsafe follow a call from internal/cache into
// internal/ndn by object identity.
type moduleImporter struct {
	base  types.Importer
	built map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.built[path]; ok {
		return pkg, nil
	}
	return m.base.Import(path)
}

func typeCheck(fset *token.FileSet, imp types.Importer, target listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range target.GoFiles {
		file, err := parser.ParseFile(fset, filepath.Join(target.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, file)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(target.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", target.ImportPath, err)
	}
	return &Package{
		Path:  target.ImportPath,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// NewInfo allocates the types.Info maps the checks rely on. The test
// harness shares it so fixtures are checked exactly like real packages.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
