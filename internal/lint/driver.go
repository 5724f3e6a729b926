// Package lint is acelint: a stdlib-only static analyzer that
// enforces ACE's concurrency, context-propagation, and
// instrumentation invariants (docs/LINT.md).
//
// The package has two halves: a loader (this file) that turns `./...`
// style patterns into parsed, type-checked packages using nothing but
// go/parser, go/types, and go/importer — no x/tools — and a set of
// analyzers (ctxprop.go, lockhold.go, droppederr.go per package;
// verbconformance.go, deadlinecheck.go, metricnames.go over the call
// graph in callgraph.go) that run over the loaded packages and report
// findings.
//
// The loader resolves imports in three tiers: packages inside the
// module under analysis are parsed and type-checked from source
// recursively; everything else goes to the compiler export-data
// importer first and falls back to the source importer (which
// type-checks the standard library from GOROOT/src) when no export
// data is installed.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one analysis unit: a package's source files (including
// in-package _test.go files) together with its type information. Test
// files are merged into the unit so checks that cover tests (lockhold,
// ctxpropagation) see them; checks that exempt tests filter by file
// name.
type Package struct {
	// Path is the import path ("ace/internal/wire"). External test
	// packages get the base path with a " [test]" suffix.
	Path string
	// Name is the package name from the package clauses.
	Name string
	// Files holds every parsed file in the unit, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package (never nil, but possibly
	// incomplete when the package has type errors).
	Types *types.Package
	// Info carries the use/def/selection/type maps the analyzers
	// consult. Partially populated when type checking failed.
	Info *types.Info
}

// IsTestFile reports whether the given file position sits in a
// _test.go file.
func (p *Package) IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Program is a loaded module tree ready for analysis.
type Program struct {
	Fset *token.FileSet
	// Module is the module path from go.mod.
	Module string
	// Dir is the module root directory.
	Dir string
	// Packages are the analysis units matched by the load patterns,
	// sorted by import path.
	Packages []*Package
	// LoadErrors collects parse and type errors encountered anywhere
	// in the tree. The loader never fails on a broken package; it
	// records the error and keeps going so the remaining packages are
	// still analyzed.
	LoadErrors []error

	local map[string]bool // import paths type-checked from the module source
	graph *Graph          // lazily built interprocedural call graph
}

// Graph returns the program-wide call graph, building it on first
// use. Program-level analyzers receive it through ProgPass; tests and
// the doc generators call it directly.
func (p *Program) Graph() *Graph {
	if p.graph == nil {
		p.graph = BuildGraph(p)
	}
	return p.graph
}

// IsLocal reports whether the import path was loaded from the module
// under analysis (as opposed to the standard library). Analyzers use
// it to restrict findings to calls into ACE's own APIs.
func (p *Program) IsLocal(path string) bool { return p.local[path] }

// loader drives discovery, parsing, and type checking.
type loader struct {
	fset    *token.FileSet
	module  string
	root    string
	gc      types.Importer
	src     types.Importer
	pure    map[string]*types.Package // completed pure (no test files) packages
	loading map[string]bool           // cycle detection
	errs    []error
	local   map[string]bool
}

// Load parses and type-checks the packages under dir matched by
// patterns. dir must be inside a Go module; patterns are "./...",
// "dir/...", or plain directories, all relative to dir. A broken
// package (parse or type errors) is recorded in LoadErrors and still
// returned for analysis; Load only errors when the module itself
// cannot be located or no pattern matches anything.
func Load(dir string, patterns []string) (*Program, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// The source importer consults build.Default; with cgo enabled it
	// would try to run the cgo tool on packages like net. The pure-Go
	// variants are what the repo builds against anyway.
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		module:  module,
		root:    root,
		gc:      importer.Default(),
		src:     importer.ForCompiler(fset, "source", nil),
		pure:    make(map[string]*types.Package),
		loading: make(map[string]bool),
		local:   make(map[string]bool),
	}

	dirs, err := expand(dir, root, patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("acelint: no packages match %v", patterns)
	}

	prog := &Program{Fset: fset, Module: module, Dir: root, local: l.local}
	for _, d := range dirs {
		units := l.analyze(d)
		prog.Packages = append(prog.Packages, units...)
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })
	prog.LoadErrors = l.errs
	return prog, nil
}

// findModule walks up from dir to the enclosing go.mod and returns
// the module root and module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("acelint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("acelint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// expand resolves load patterns to package directories (absolute
// paths). testdata, vendor, and hidden directories are skipped, as
// the go tool does.
func expand(cwd, root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(d string) {
		if !seen[d] && hasGoFiles(d) {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	_ = root
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPath maps a directory inside the module to its import path.
func (l *loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// dirFor maps an in-module import path back to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

func (l *loader) isLocal(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

// parseDir parses every buildable .go file in dir into three groups:
// regular files, in-package test files, and external (package foo_test)
// test files.
func (l *loader) parseDir(dir string) (base, inTest, extTest []*ast.File) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		l.errs = append(l.errs, err)
		return nil, nil, nil
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			l.errs = append(l.errs, err)
			if f == nil {
				continue
			}
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			base = append(base, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return base, inTest, extTest
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// check type-checks files as one package, recording rather than
// failing on type errors.
func (l *loader) check(path string, files []*ast.File, info *types.Info) *types.Package {
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { l.errs = append(l.errs, err) },
	}
	pkg, _ := conf.Check(path, l.fset, files, info) // errors already collected
	return pkg
}

// Import implements types.Importer: module-local packages are
// type-checked from source (pure variant, no test files); everything
// else tries compiler export data and falls back to source.
func (l *loader) Import(path string) (*types.Package, error) {
	if l.isLocal(path) {
		return l.loadPure(path)
	}
	if pkg, err := l.gc.Import(path); err == nil && pkg != nil && pkg.Complete() {
		return pkg, nil
	}
	return l.src.Import(path)
}

// loadPure loads the non-test variant of an in-module package, for
// use as an import dependency.
func (l *loader) loadPure(path string) (*types.Package, error) {
	if pkg, ok := l.pure[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	base, _, _ := l.parseDir(dir)
	if len(base) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg := l.check(path, base, newInfo())
	l.pure[path] = pkg
	l.local[path] = true
	return pkg, nil
}

// analyze builds the analysis units for one directory: the package
// with its in-package test files merged, plus (when present) the
// external _test package as a second unit.
func (l *loader) analyze(dir string) []*Package {
	path := l.importPath(dir)
	base, inTest, extTest := l.parseDir(dir)
	var units []*Package

	if len(base) > 0 || len(inTest) > 0 {
		// Ensure the pure variant exists first so packages whose test
		// files are imported indirectly see the test-free export.
		if len(base) > 0 {
			if _, err := l.loadPure(path); err != nil {
				l.errs = append(l.errs, err)
			}
		}
		files := append(append([]*ast.File(nil), base...), inTest...)
		info := newInfo()
		pkg := l.check(path, files, info)
		l.local[path] = true
		units = append(units, &Package{Path: path, Name: pkg.Name(), Files: files, Types: pkg, Info: info})
	}

	if len(extTest) > 0 {
		info := newInfo()
		tpath := path + " [test]"
		pkg := l.check(tpath, extTest, info)
		units = append(units, &Package{Path: tpath, Name: pkg.Name(), Files: extTest, Types: pkg, Info: info})
	}
	return units
}
