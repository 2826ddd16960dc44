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

// Check runs the given analyzers over the package.
func (p *Package) Check(checks []*Analyzer) []Finding {
	return Check(p.Fset, p.Files, p.Types, p.Info, checks)
}

// CheckAll runs the given analyzers over every loaded package and
// returns the findings of all of them, sorted by position.
func CheckAll(pkgs []*Package, checks []*Analyzer) []Finding {
	var findings []Finding
	for _, p := range pkgs {
		findings = append(findings, p.Check(checks)...)
	}
	sortFindings(findings)
	return findings
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
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	for _, target := range targets {
		pkg, err := typeCheck(fset, imp, target)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
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
