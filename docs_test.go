package ndnprivacy_test

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The documents a newcomer reads to map the paper onto the code. ROADMAP.md
// is left out because it names planned code by design, CHANGES.md because
// it is history, and bench/README.md because the benchmark's files change
// only with the benchmark.
var liveDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// retired names code that is gone and that a document mentions as gone.
var retired = map[string]bool{"seedflow": true, "viewsafe": true, "alloccheck": true}

// TestDocsNameLiveCode resolves every backticked name in the live documents
// against the tree, so a document cannot keep naming code after it is
// deleted or renamed. A name resolves as
//   - a Go identifier declared anywhere in the module, tests and bench/
//     included (a bare benchmark, test or fuzz name counts in its
//     Benchmark…, Test… or Fuzz… form, and X* matches any declared prefix);
//     pkg.Name, Type.Member and pkg.Type.Member are checked level by level,
//     against the standard library's export data for a standard package;
//   - a string constant in the code (stage, span, counter and -fig names);
//   - a path in the repository or in the standard library's source, or
//     the module path;
//   - a flag of ndnsim, ndnd, ndnlint or the benchmark, or of the go tool;
//   - a benchmark workload or metric in BENCHMARK.json.
//
// Commands (ndnsim, ndnd, ndnlint, go, bash bench/run.sh), inline or in a
// sh/console block, have each flag, each -fig value and each ./path checked.
// In a go block, code and comments alike, every pkg.Name whose qualifier
// names a package of this module, the root package included, must be
// declared in that package's non-test files.
func TestDocsNameLiveCode(t *testing.T) {
	tr := loadTree(t)
	for _, doc := range liveDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range docRefs(string(raw)) {
			if why := tr.check(ref); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, ref.line, ref.text, why)
			}
		}
	}
}

// A docRef is one inline code span, one command line of a shell block, or
// one pkg.Name selector of a go block.
type docRef struct {
	text string
	line int
	api  bool // a selector from a go block
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

// docRefs returns the inline code spans of a Markdown document, a span
// possibly broken across lines of one paragraph, each command line of its
// sh and console blocks, and the package selectors of its go blocks.
func docRefs(doc string) []docRef {
	var refs []docRef
	var para, code []string
	paraStart, codeStart := 0, 0
	flush := func() {
		text := strings.Join(para, "\n")
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			line := paraStart + strings.Count(text[:m[0]], "\n")
			refs = append(refs, docRef{text: strings.Join(strings.Fields(text[m[2]:m[3]]), " "), line: line})
		}
		para = para[:0]
	}
	fence := ""
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			if fence == "" {
				flush()
				fence = strings.TrimPrefix(trimmed, "```")
				if fence == "" {
					fence = "text"
				}
				code, codeStart = code[:0], i+2
			} else if trimmed == "```" {
				if fence == "go" {
					refs = append(refs, goSelectors(strings.Join(code, "\n"), codeStart)...)
				}
				fence = ""
			}
			continue
		}
		if fence != "" {
			code = append(code, line)
			if fence == "sh" || fence == "console" {
				cmd := strings.TrimPrefix(trimmed, "$ ")
				if cmd, _, _ = strings.Cut(cmd, "#"); isCommand(strings.Fields(cmd)) {
					refs = append(refs, docRef{text: strings.TrimSpace(cmd), line: i + 1})
				}
			}
			continue
		}
		if trimmed == "" {
			flush()
			continue
		}
		if len(para) == 0 {
			paraStart = i + 1
		}
		para = append(para, line)
	}
	flush()
	return refs
}

var commentSelector = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)`)

// goSelectors returns each pkg.Name of a go block, in code or in a
// comment, whose qualifier the block does not declare as a variable.
// first is the document line of the block's first line.
func goSelectors(src string, first int) []docRef {
	var fset token.FileSet
	var s scanner.Scanner
	s.Init(fset.AddFile("", -1, len(src)), []byte(src), nil, scanner.ScanComments)
	type tok struct {
		pos token.Pos
		tok token.Token
		lit string
	}
	var toks []tok
	for {
		pos, t, lit := s.Scan()
		if t == token.EOF {
			break
		}
		toks = append(toks, tok{pos, t, lit})
	}
	local := map[string]bool{}
	for i, t := range toks {
		switch {
		case t.tok == token.DEFINE: // a, b := …
			for j := i - 1; j >= 0 && toks[j].tok == token.IDENT; j -= 2 {
				local[toks[j].lit] = true
				if j == 0 || toks[j-1].tok != token.COMMA {
					break
				}
			}
		case t.tok == token.VAR && i+1 < len(toks) && toks[i+1].tok == token.IDENT:
			local[toks[i+1].lit] = true
		}
	}
	var refs []docRef
	add := func(pos token.Pos, pkg, name string) {
		if !local[pkg] {
			refs = append(refs, docRef{text: pkg + "." + name, line: first + fset.Position(pos).Line - 1, api: true})
		}
	}
	for i, t := range toks {
		switch {
		case t.tok == token.COMMENT:
			for _, m := range commentSelector.FindAllStringSubmatch(t.lit, -1) {
				add(t.pos, m[1], m[2])
			}
		case t.tok == token.IDENT && i+2 < len(toks) && toks[i+1].tok == token.PERIOD && toks[i+2].tok == token.IDENT &&
			(i == 0 || toks[i-1].tok != token.PERIOD):
			add(t.pos, t.lit, toks[i+2].lit)
		}
	}
	return refs
}

// tree is what a document may name.
type tree struct {
	idents   map[string]bool            // every identifier declared anywhere
	pkgs     map[string]map[string]bool // package name → its top-level names
	api      map[string]map[string]bool // module package name → names its non-test files declare
	module   string                     // the module path, from go.mod
	members  map[string]map[string]bool // type name → its fields and methods
	strs     map[string]bool            // every string literal's value
	flags    map[string]map[string]bool // command → its flags
	figs     map[string]bool            // experiments.Table IDs and "all"
	metrics  map[string]bool            // BENCHMARK.json workload and metric names
	files    map[string]bool            // base names of the repository's files
	std      map[string][]string        // package name → standard import paths
	importer types.Importer             // standard packages' export data
	goroot   string
}

// commandDirs maps a command to the directory whose flag definitions it has.
var commandDirs = map[string]string{"ndnsim": "cmd/ndnsim", "ndnd": "cmd/ndnd", "ndnlint": "cmd/ndnlint", "bench": "bench"}

// flagMethods maps each flag package method that defines a flag to the
// position of its name argument.
var flagMethods = map[string]int{"String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Bool": 0, "Float64": 0,
	"Duration": 0, "Func": 0, "BoolFunc": 0, "Var": 1, "StringVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1,
	"Uint64Var": 1, "BoolVar": 1, "Float64Var": 1, "DurationVar": 1, "TextVar": 1}

func loadTree(t *testing.T) *tree {
	t.Helper()
	tr := &tree{idents: map[string]bool{}, pkgs: map[string]map[string]bool{}, api: map[string]map[string]bool{},
		members: map[string]map[string]bool{}, strs: map[string]bool{}, flags: map[string]map[string]bool{},
		figs: map[string]bool{"all": true}, metrics: map[string]bool{}, files: map[string]bool{},
		std: map[string][]string{}, importer: importer.Default(), goroot: build.Default.GOROOT}
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if modPath, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			tr.module = strings.TrimSpace(modPath)
		}
	}
	// The root directory is a package of the module even when no non-test
	// file declares anything in it.
	tr.api[path.Base(tr.module)] = map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		tr.files[d.Name()] = true
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tr.addFile(f, filepath.ToSlash(filepath.Dir(p)), strings.HasSuffix(p, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range goToolFlags(t) {
		tr.addFlag("go", m)
	}
	for _, cmd := range []string{"ndnsim", "ndnd", "ndnlint", "bench"} {
		tr.addFlag(cmd, "h")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var rawSpec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &rawSpec); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"workloads", "end_to_end", "per_layer"} {
		var entries []struct{ Name string }
		if err := json.Unmarshal(rawSpec[key], &entries); err != nil {
			t.Fatalf("BENCHMARK.json %s: %v", key, err)
		}
		for _, e := range entries {
			tr.metrics[e.Name] = true
		}
	}
	return tr
}

// goToolFlags lists the flags `go help build` and `go help testflag` document.
func goToolFlags(t *testing.T) []string {
	var flags []string
	for _, topic := range []string{"build", "testflag"} {
		out, err := exec.Command("go", "help", topic).Output()
		if err != nil {
			t.Fatalf("go help %s: %v", topic, err)
		}
		for _, m := range regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9]*)`).FindAllStringSubmatch(string(out), -1) {
			flags = append(flags, m[1])
		}
	}
	return flags
}

func (tr *tree) addFlag(cmd, name string) {
	if tr.flags[cmd] == nil {
		tr.flags[cmd] = map[string]bool{}
	}
	tr.flags[cmd][name] = true
}

func (tr *tree) addFile(f *ast.File, dir string, test bool) {
	pkg := f.Name.Name
	if tr.pkgs[pkg] == nil {
		tr.pkgs[pkg] = map[string]bool{}
	}
	var api map[string]bool // nil for what a test or a command declares
	if !test && pkg != "main" {
		if tr.api[pkg] == nil {
			tr.api[pkg] = map[string]bool{}
		}
		api = tr.api[pkg]
	}
	declare := func(name string) {
		tr.pkgs[pkg][name] = true
		tr.idents[name] = true
		if api != nil {
			api[name] = true
		}
	}
	member := func(typ, name string) {
		if tr.members[typ] == nil {
			tr.members[typ] = map[string]bool{}
		}
		tr.members[typ][name] = true
		tr.idents[name] = true
	}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if first, _, _ := strings.Cut(p, "/"); strings.Contains(first, ".") || first == tr.module {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		tr.std[name] = append(tr.std[name], p)
	}
	cmd := ""
	for c, d := range commandDirs {
		if d == dir {
			cmd = c
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declare(d.Name.Name)
			} else {
				member(receiverType(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare(s.Name.Name)
					if tr.members[s.Name.Name] == nil {
						tr.members[s.Name.Name] = map[string]bool{}
					}
					ast.Inspect(s.Type, func(n ast.Node) bool {
						if field, ok := n.(*ast.Field); ok {
							for _, name := range field.Names {
								member(s.Name.Name, name.Name)
							}
							if len(field.Names) == 0 {
								member(s.Name.Name, receiverType(field.Type))
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for _, name := range s.Names {
						declare(name.Name)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			for _, name := range n.Names {
				tr.idents[name.Name] = true
			}
			if n.Tag != nil { // an output format's field name: delay_ns
				tag, _ := strconv.Unquote(n.Tag.Value)
				key, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
				tr.strs[key] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						tr.idents[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				tr.idents[name.Name] = true
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				if s, err := strconv.Unquote(n.Value); err == nil {
					tr.strs[s] = true
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok && key.Name == "ID" && pkg == "experiments" {
				if lit, ok := n.Value.(*ast.BasicLit); ok {
					id, _ := strconv.Unquote(lit.Value)
					tr.figs[id] = true
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || cmd == "" {
				break
			}
			if at, ok := flagMethods[sel.Sel.Name]; ok && len(n.Args) > at+1 {
				if lit, ok := n.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					tr.addFlag(cmd, name)
				}
			}
		}
		return true
	})
}

// receiverType names the type of a method receiver or embedded field.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

var (
	goName    = regexp.MustCompile(`^\*?[A-Za-z_][A-Za-z0-9_]*(\[[A-Za-z, ]+\])?(\(\))?(\.[A-Za-z_][A-Za-z0-9_]*(\(\))?)*\*?$`)
	typeArgs  = regexp.MustCompile(`\[[^]]*\]|\(\)`)
	pathLike  = regexp.MustCompile(`^\.?[A-Za-z0-9_./-]+$`)
	wildcard  = regexp.MustCompile(`^[a-z][a-z0-9_]*\*[a-z0-9_]*$`)
	labelTail = regexp.MustCompile(`\{[^}]*\}$`)
	figID     = regexp.MustCompile(`^[0-9a-z]+$`)
	fileExt   = map[string]bool{".go": true, ".md": true, ".json": true, ".sh": true}
)

// check returns why ref names nothing in the tree, or "" when it resolves
// or is not a name (a number, an expression, a content name, prose).
func (tr *tree) check(ref docRef) string {
	s := ref.text
	if ref.api {
		pkg, name, _ := strings.Cut(s, ".")
		if names := tr.api[pkg]; names != nil && !names[name] {
			return "package " + pkg + " of this module declares no " + name
		}
		return ""
	}
	fields := strings.Fields(s)
	if isCommand(fields) {
		return tr.checkCommand(fields)
	}
	if strings.HasPrefix(s, "-") { // flags without their command: -tier-dir DIR
		for _, arg := range fields {
			if !strings.HasPrefix(arg, "-") {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			if !tr.anyFlag(name) {
				return "no command defines -" + name
			}
		}
		return ""
	}
	if len(fields) != 1 || retired[s] || strings.HasPrefix(s, "/") || strings.Contains(s, "://") {
		return ""
	}
	if strings.Contains(s, "/") || fileExt[path.Ext(s)] && !strings.HasPrefix(s, ".") {
		if !pathLike.MatchString(s) || tr.pathExists(s) {
			return ""
		}
		return "no such file or package"
	}
	s = labelTail.ReplaceAllString(s, "")
	if wildcard.MatchString(s) && !strings.HasSuffix(s, "*") {
		for str := range tr.strs {
			if ok, _ := path.Match(s, str); ok {
				return ""
			}
		}
		return "matches no string in the code"
	}
	if !goName.MatchString(s) {
		return ""
	}
	if tr.strs[s] || tr.metrics[s] {
		return ""
	}
	if tr.resolveGo(s) {
		return ""
	}
	return "declared nowhere in the module or the standard library"
}

func (tr *tree) anyFlag(name string) bool {
	for _, flags := range tr.flags {
		if flags[name] {
			return true
		}
	}
	return false
}

// isCommand reports whether fields spell a command whose flags are checked.
func isCommand(fields []string) bool {
	if len(fields) == 0 {
		return false
	}
	switch fields[0] {
	case "ndnsim", "ndnd", "ndnlint", "./scripts/check.sh":
		return len(fields) > 1 || fields[0] == "./scripts/check.sh"
	case "go", "bash":
		return len(fields) > 1
	}
	return false
}

func (tr *tree) checkCommand(fields []string) string {
	cmd, args := fields[0], fields[1:]
	switch {
	case cmd == "bash" || cmd == "./scripts/check.sh":
		script := cmd
		if cmd == "bash" {
			script, args = args[0], args[1:]
		}
		if !tr.pathExists(script) {
			return "no such script " + script
		}
		if script != "bench/run.sh" {
			return ""
		}
		cmd = "bench"
	case cmd == "go" && args[0] == "run" && len(args) > 1 && strings.HasPrefix(args[1], "./cmd/"):
		cmd, args = strings.TrimPrefix(args[1], "./cmd/"), args[2:]
	case cmd == "go" && args[0] != "test" && args[0] != "build" && args[0] != "run" && args[0] != "vet":
		return "" // go list, go tool …: flags of their own
	}
	for i, arg := range args {
		if strings.HasPrefix(arg, "./") {
			if p := strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/"); p != "." && !tr.pathExists(p) {
				return "no such package " + arg
			}
		}
		if !strings.HasPrefix(arg, "-") || arg == "-" {
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
		if !tr.flags[cmd][name] {
			return cmd + " has no flag -" + name
		}
		if !hasValue && i+1 < len(args) {
			value = args[i+1]
		}
		switch {
		case cmd == "ndnsim" && name == "fig" && figID.MatchString(value):
			if !tr.figs[value] {
				return "ndnsim has no -fig " + value
			}
		case cmd == "go" && (name == "run" || name == "bench" || name == "fuzz"):
			if pattern := strings.Trim(value, "'\""); !tr.namesTest(pattern) {
				return "no test, benchmark or fuzz target matches " + pattern
			}
		}
	}
	return ""
}

// namesTest reports whether a -run/-bench/-fuzz pattern matches a
// declared test, benchmark or fuzz target.
func (tr *tree) namesTest(pattern string) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return false
	}
	for id := range tr.idents {
		if strings.HasPrefix(id, "Test") || strings.HasPrefix(id, "Benchmark") || strings.HasPrefix(id, "Fuzz") {
			if re.MatchString(id) {
				return true
			}
		}
	}
	return pattern == "." || pattern == "^$"
}

func (tr *tree) pathExists(p string) bool {
	p = strings.TrimSuffix(p, "/")
	if !strings.Contains(p, "/") && tr.files[p] {
		return true
	}
	for _, dir := range []string{".", "internal", filepath.Join(tr.goroot, "src")} {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(p))); err == nil {
			return true
		}
	}
	return false
}

// resolveGo resolves a Go name: an identifier, pkg.Name, Type.Member or
// pkg.Type.Member, with a trailing * matching any declared prefix.
func (tr *tree) resolveGo(s string) bool {
	s = strings.TrimPrefix(s, "*")
	s = typeArgs.ReplaceAllString(s, "")
	if prefix, ok := strings.CutSuffix(s, "*"); ok {
		for _, names := range []map[string]bool{tr.idents, tr.strs} {
			for name := range names {
				if strings.HasPrefix(name, prefix) {
					return true
				}
			}
		}
		return false
	}
	parts := strings.Split(s, ".")
	if len(parts) == 1 {
		name := parts[0]
		return tr.idents[name] || tr.idents["Test"+name] || tr.idents["Benchmark"+name] || tr.idents["Fuzz"+name] ||
			tr.pkgs[name] != nil || name == tr.module || len(tr.std[name]) > 0 || token.IsKeyword(name) || types.Universe.Lookup(name) != nil ||
			tr.pathExists(name) || tr.pathExists("cmd/"+name)
	}
	if top := tr.pkgs[parts[0]]; top != nil && top[parts[1]] && tr.membersResolve(parts[1:]) {
		return true
	}
	for _, p := range tr.std[parts[0]] {
		if tr.stdResolves(p, parts[1:]) {
			return true
		}
	}
	if tr.members[parts[0]] != nil && tr.membersResolve(parts) {
		return true
	}
	// A value's field or method (c.fetch): every part is declared.
	for _, part := range parts {
		if !tr.idents[part] {
			return false
		}
	}
	return tr.pkgs[parts[0]] == nil && len(tr.std[parts[0]]) == 0 && tr.members[parts[0]] == nil
}

// membersResolve checks Type.Member.Member… against the declared fields
// and methods, a member whose type is unknown ending the check.
func (tr *tree) membersResolve(parts []string) bool {
	if len(parts) < 2 {
		return true
	}
	members := tr.members[parts[0]]
	return members != nil && members[parts[1]] && (tr.members[parts[1]] == nil || tr.membersResolve(parts[1:]))
}

// stdResolves looks parts up in a standard package's export data.
func (tr *tree) stdResolves(importPath string, parts []string) bool {
	pkg, err := tr.importer.Import(importPath)
	if err != nil {
		return false
	}
	obj := pkg.Scope().Lookup(parts[0])
	for _, member := range parts[1:] {
		if obj == nil {
			return false
		}
		typ := obj.Type()
		if sig, ok := typ.(*types.Signature); ok && sig.Results().Len() > 0 {
			typ = sig.Results().At(0).Type() // time.Now().UnixNano
		}
		obj, _, _ = types.LookupFieldOrMethod(typ, true, pkg, member)
	}
	return obj != nil
}
