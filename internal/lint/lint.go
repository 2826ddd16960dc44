// Package lint is ndnprivacy's project-specific static analysis. Every
// figure this repository reproduces depends on the discrete-event
// simulator being bit-for-bit deterministic under a fixed seed, so the
// invariants that convention alone used to guard — no wall clock inside
// simulated packages, no global math/rand, no map-iteration order
// leaking into event schedules or reports, no silently dropped
// wire-format errors, no RNG seed that bypasses the seed parameter — are
// mechanized here on top of the standard library go/ast + go/types
// toolchain (no external dependencies, offline-buildable).
//
// Each check is a self-contained *Analyzer; future checks are one file
// implementing Run over a type-checked package and one entry in All.
// Findings can be suppressed with a trailing comment on the offending
// line, or a comment on the line directly above it:
//
//	//ndnlint:allow simdeterminism — measured at the rt boundary
//
// The comment names one or more checks, comma separated, or "all".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name identifies the check in reports and in //ndnlint:allow
	// suppression comments. Lowercase, no spaces.
	Name string
	// Doc is a one-line description of what the check enforces.
	Doc string
	// Hint tells a developer how to fix a finding from this check.
	Hint string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	findings *[]Finding
}

// A Finding is one rule violation at one source position.
type Finding struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Column  int            `json:"column"`
	Message string         `json:"message"`
	Hint    string         `json:"hint,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Column, f.Check, f.Message)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// Reportf records a finding at pos using the analyzer's default hint.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Check:   p.analyzer.Name,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Column:  position.Column,
		Message: fmt.Sprintf(format, args...),
		Hint:    p.analyzer.Hint,
	})
}

// All is every check this linter ships, in reporting order. The first
// four are single-node AST checks; seedflow is flow-sensitive, built on
// the internal/lint/cfg reaching-definitions engine.
var All = []*Analyzer{
	SimDeterminism,
	GlobalRand,
	MapOrder,
	WireErr,
	SeedFlow,
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Check runs every analyzer in checks over one type-checked package and
// returns surviving findings: suppressed ones are dropped, the rest are
// sorted by position then check name.
func Check(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, checks []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range checks {
		a.Run(&Pass{
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			analyzer: a,
			findings: &findings,
		})
	}
	findings = suppress(fset, files, findings)
	sortFindings(findings)
	return findings
}

// sortFindings orders findings by position, then check name.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Check < b.Check
	})
}

// allowDirective is the comment prefix that suppresses findings.
const allowDirective = "//ndnlint:allow"

// An allowIndex records every //ndnlint:allow directive in a file set:
// statement-scoped directives by file and line, file-scoped directives
// (any directive above the package clause, for generated or fixture
// files) by file alone.
type allowIndex struct {
	// lines maps file → line → set of allowed check names.
	lines map[string]map[int]map[string]bool
	// files maps file → set of check names allowed for the whole file.
	files map[string]map[string]bool
}

// collectAllows indexes the allow directives of every file.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowIndex {
	ix := &allowIndex{
		lines: make(map[string]map[int]map[string]bool),
		files: make(map[string]map[string]bool),
	}
	for _, f := range files {
		pkgLine := fset.Position(f.Package).Line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checks, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if pos.Line < pkgLine {
					// Above the package clause: file-scoped.
					set := ix.files[pos.Filename]
					if set == nil {
						set = make(map[string]bool)
						ix.files[pos.Filename] = set
					}
					for _, name := range checks {
						set[name] = true
					}
					continue
				}
				byLine := ix.lines[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					ix.lines[pos.Filename] = byLine
				}
				if byLine[pos.Line] == nil {
					byLine[pos.Line] = make(map[string]bool)
				}
				for _, name := range checks {
					byLine[pos.Line][name] = true
				}
			}
		}
	}
	return ix
}

// allows reports whether a finding of check at file:line is suppressed:
// by a directive on the same line, on the line directly above, or by a
// file-scoped directive.
func (ix *allowIndex) allows(file string, line int, check string) bool {
	if lineAllows(ix.files[file], check) {
		return true
	}
	byLine := ix.lines[file]
	return lineAllows(byLine[line], check) || lineAllows(byLine[line-1], check)
}

// suppress drops findings covered by an //ndnlint:allow comment on the
// same line, the line directly above, or above the file's package
// clause (file scope).
func suppress(fset *token.FileSet, files []*ast.File, findings []Finding) []Finding {
	ix := collectAllows(fset, files)
	kept := findings[:0]
	for _, fd := range findings {
		if ix.allows(fd.File, fd.Line, fd.Check) {
			continue
		}
		kept = append(kept, fd)
	}
	return kept
}

func lineAllows(set map[string]bool, check string) bool {
	return set != nil && (set[check] || set["all"])
}

// parseAllow extracts the check names from an //ndnlint:allow comment.
// Anything after " — " or " -- " is free-form justification.
func parseAllow(text string) ([]string, bool) {
	if !strings.HasPrefix(text, allowDirective) {
		return nil, false
	}
	rest := strings.TrimPrefix(text, allowDirective)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false // e.g. //ndnlint:allowed — not the directive
	}
	for _, sep := range []string{" — ", " -- "} {
		if i := strings.Index(rest, sep); i >= 0 {
			rest = rest[:i]
		}
	}
	var checks []string
	for _, name := range strings.Split(rest, ",") {
		if name = strings.TrimSpace(name); name != "" {
			checks = append(checks, name)
		}
	}
	return checks, len(checks) > 0
}

// deterministicPkgs are the packages that must run identically for a
// fixed seed: everything the simulator clock or experiment reports can
// observe. internal/rt and internal/netface are the designated
// real-time boundary and are deliberately absent.
var deterministicPkgs = []string{
	"internal/netsim",
	"internal/fwd",
	"internal/attack",
	"internal/experiments",
	"internal/core",
	"internal/cache",
	"internal/cache/tiered",
	"internal/trace",
	"internal/table",
	"internal/session",
	"internal/telemetry",
	"internal/telemetry/span",
	"internal/sweep",
}

// isDeterministicPkg reports whether the import path names one of the
// packages under the determinism contract. Matching is by path suffix so
// test fixtures and forks of the module resolve identically.
func isDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// funcObj resolves an identifier to the function it uses, or nil.
func funcObj(info *types.Info, id *ast.Ident) *types.Func {
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package declaring fn, or "".
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
