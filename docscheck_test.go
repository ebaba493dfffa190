package paella

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// paperAnchor matches a citation of the source paper: a section sign, or a
// spelled-out Figure/Table/section reference.
var paperAnchor = regexp.MustCompile(`§|Figure\s+\d|Fig\.\s*\d|Table\s+\d|SOSP`)

// TestInternalPackageDocs enforces the documentation contract: every
// internal/* package carries a package comment, and that comment anchors
// the package to the paper (a §/Figure/Table reference) so readers can
// find the design it implements. docs/ARCHITECTURE.md relies on this.
func TestInternalPackageDocs(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			comment := packageDoc(t, filepath.Join("internal", name))
			if strings.TrimSpace(comment) == "" {
				t.Fatalf("package %s has no package comment", name)
			}
			if !paperAnchor.MatchString(comment) {
				t.Fatalf("package %s's doc cites no paper anchor (§, Figure, or Table):\n%s",
					name, comment)
			}
		})
	}
}

// TestExportedSymbolDocs enforces the second half of the documentation
// contract: every exported symbol in every internal/* package — function,
// type, method, constructor, var, and const — carries a doc comment. The
// check was introduced to cover internal/gateway's policy surface (the
// registry is the extension point contributors touch first) and holds
// repo-wide because the rest of the tree already meets it.
func TestExportedSymbolDocs(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("internal", name)
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				p := doc.New(pkg, dir, 0)
				var missing []string
				undocumented := func(label, docstr string) {
					if strings.TrimSpace(docstr) == "" {
						missing = append(missing, label)
					}
				}
				for _, f := range p.Funcs {
					undocumented(f.Name, f.Doc)
				}
				for _, ty := range p.Types {
					undocumented(ty.Name, ty.Doc)
					for _, m := range ty.Methods {
						undocumented(ty.Name+"."+m.Name, m.Doc)
					}
					for _, fn := range ty.Funcs {
						undocumented(fn.Name, fn.Doc)
					}
				}
				// Vars and consts document per declaration group: a group
				// comment (or per-spec comments inside it) covers its names.
				for _, v := range p.Vars {
					if strings.TrimSpace(v.Doc) == "" && exportedUncommented(v.Decl) {
						missing = append(missing, v.Names...)
					}
				}
				for _, c := range p.Consts {
					if strings.TrimSpace(c.Doc) == "" && exportedUncommented(c.Decl) {
						missing = append(missing, c.Names...)
					}
				}
				if len(missing) > 0 {
					t.Fatalf("package %s: exported symbols without doc comments: %s",
						name, strings.Join(missing, ", "))
				}
			}
		})
	}
}

// exportedUncommented reports whether a var/const declaration group exports
// a name whose value spec carries no comment of its own.
func exportedUncommented(decl *ast.GenDecl) bool {
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || vs.Doc != nil || vs.Comment != nil {
			continue
		}
		for _, n := range vs.Names {
			if ast.IsExported(n.Name) {
				return true
			}
		}
	}
	return false
}

// packageDoc parses the directory (comments only) and returns its
// non-test package's documentation comment.
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		// PackageClauseOnly keeps the doc comment attached to each file's
		// package clause; take the first file that has one (gofmt keeps a
		// single canonical doc file per package).
		var files []*ast.File
		for _, f := range pkg.Files {
			files = append(files, f)
		}
		p := doc.New(pkg, dir, doc.AllDecls)
		if strings.TrimSpace(p.Doc) != "" {
			return p.Doc
		}
		for _, f := range files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				return f.Doc.Text()
			}
		}
	}
	return ""
}

// testOnlyAllowed lists the exported internal/ identifiers that no non-test
// file references (or, for a struct field, writes) but that stay exported,
// each with the reason. Keys are "pkg.Name" for package-level names and
// "pkg.Type.Member" for methods and struct fields.
var testOnlyAllowed = map[string]string{
	"cluster.Cluster.Routable":        "autoscale tests check that a parked, warming or draining replica takes no new work (ROADMAP item 5's routing check)",
	"remote.NetConfig.RequestTimeout": "public API through the `paella.NetConfig` alias",
	"remote.NetConfig.Seed":           "public API through the `paella.NetConfig` alias",
	"sim.Env.Pending":                 "the event count the sim tests check the timer arena against (arena.live() == Pending(), ROADMAP item 5) and the gpu tests count device events with",
	"trace.Recorder.Spans":            "core's copy-cost pin reads every span in emission order",
	"vram.Manager.KVBlocks":           "llm and cluster tests check that no KV page outlives its sequence (ROADMAP item 5's KV page check)",
}

// TestNoTestOnlyExports fails when an exported func, method, type, var or
// const declared in internal/ is referenced by no non-test file in the tree
// (bench/, examples/ and cmd/ included) outside its own declaration, or when
// no such file writes an exported field of a struct type declared at
// package level there, unless testOnlyAllowed names it with a reason; it
// also fails on a stale entry. A package-level name counts as referenced
// by a pkg.Name selector in a file importing its package, or a bare
// identifier in its own package; a method counts as referenced by any
// .Name selector. Interface methods are not checked. Fields are resolved
// with go/types, so a write of one struct's field never counts for a
// same-named field of another: a field counts as written by a
// composite-literal key or an unkeyed literal of its struct, and by an
// assignment or ++/-- target x.F or &x.F. An assignment x.F = … directly
// inside an if x.F <= 0 { … } or if x.F == 0 { … } in the field's own
// package is the field's default, not a write: a field only such a
// default writes has one value. A field with a struct tag is exempt,
// since a decoder writes it.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key    string // reported name
		path   string // import path of the declaring package
		name   string
		method bool
		pos    token.Position
	}
	var decls []*decl
	pkgRefs := map[string]bool{} // import path + "." + name
	selectors := map[string]bool{}
	fset := token.NewFileSet()

	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		self := "paella/" + dir
		internal := strings.HasPrefix(dir, "internal/")
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			local := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = p
		}
		// skip marks identifiers that name a declaration rather than use it.
		skip := map[*ast.Ident]bool{}
		declare := func(name *ast.Ident, key string, method bool) {
			skip[name] = true
			if internal && ast.IsExported(name.Name) {
				decls = append(decls, &decl{key: key, path: self, name: name.Name,
					method: method, pos: fset.Position(name.Pos())})
			}
		}
		pkg := f.Name.Name
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if dd.Recv == nil {
					declare(dd.Name, pkg+"."+dd.Name.Name, false)
					continue
				}
				// A method's receiver names its type but does not use it.
				recv := dd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					skip[id] = true
					declare(dd.Name, pkg+"."+id.Name+"."+dd.Name.Name, true)
				}
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, pkg+"."+s.Name.Name, false)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(n, pkg+"."+n.Name, false)
						}
					}
				}
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// The selected name refers to a member of X, never to a
				// package-level name of this file's package.
				selectors[n.Sel.Name] = true
				if id, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						pkgRefs[p+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !skip[n] {
					pkgRefs[self+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowed := map[string]bool{}
	var unused []string
	for _, d := range decls {
		used := pkgRefs[d.path+"."+d.name]
		if d.method {
			used = selectors[d.name]
		}
		if used {
			continue
		}
		if _, ok := testOnlyAllowed[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		unused = append(unused, fmt.Sprintf("exported %s (%s) is referenced only by tests: delete it, move it into a _test.go file, or allowlist it with a reason", d.key, d.pos))
	}

	tree, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	fields := internalFields(tree)
	for _, p := range tree {
		markFieldWrites(p, fields)
	}
	for v, f := range fields {
		if !f.topLevel || !v.Exported() || v.Embedded() || f.wrote {
			continue
		}
		if _, ok := testOnlyAllowed[f.key]; ok {
			allowed[f.key] = true
			continue
		}
		unused = append(unused, fmt.Sprintf("exported field %s (%s) is written only by tests: delete it, make it a constant or unexported, or allowlist it with a reason", f.key, f.pos))
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("stale testOnlyAllowed entry %s: it is referenced outside tests or no longer declared", key)
		}
	}
}

// markFieldWrites sets wrote on the fields p's files write outside a
// default in the field's own package (see TestNoTestOnlyExports).
func markFieldWrites(p *checkedPkg, fields map[*types.Var]*structField) {
	info := p.info
	field := func(e ast.Expr) *types.Var {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var).Origin()
			}
		}
		return nil
	}
	write := func(v *types.Var) {
		if f := fields[v]; f != nil {
			f.wrote = true
		}
	}
	for _, file := range p.files {
		defaults := map[*ast.AssignStmt]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				cond, ok := n.Cond.(*ast.BinaryExpr)
				if !ok || (cond.Op != token.LEQ && cond.Op != token.EQL) {
					break
				}
				zero, isLit := cond.Y.(*ast.BasicLit)
				v := field(cond.X)
				if v == nil || !isLit || zero.Value != "0" || v.Pkg() != p.types {
					break
				}
				for _, st := range n.Body.List {
					if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 &&
						types.ExprString(as.Lhs[0]) == types.ExprString(cond.X) {
						defaults[as] = true
					}
				}
			case *ast.CompositeLit:
				typ := info.TypeOf(n)
				if typ == nil {
					break
				}
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							write(v.Origin())
						}
						continue
					}
					write(st.Field(i).Origin())
				}
			case *ast.AssignStmt:
				if defaults[n] {
					break
				}
				for _, lhs := range n.Lhs {
					if v := field(lhs); v != nil {
						write(v)
					}
				}
			case *ast.IncDecStmt:
				if v := field(n.X); v != nil {
					write(v)
				}
			case *ast.UnaryExpr:
				if v := field(n.X); v != nil && n.Op == token.AND {
					write(v)
				}
			}
			return true
		})
	}
}

// fuzzSmokeLine matches one target of ci.yml's fuzz-smoke step.
var fuzzSmokeLine = regexp.MustCompile(`go test \./(\S*?)/? -run (\w+) -fuzz (\w+) -fuzztime`)

// TestFuzzSmokeCoversEveryTarget checks that the fuzz-smoke step of
// .github/workflows/ci.yml runs exactly the root module's fuzz targets, so
// a new, deleted or renamed func Fuzz* cannot silently fall out of CI.
func TestFuzzSmokeCoversEveryTarget(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	inCI := map[string]bool{}
	for _, m := range fuzzSmokeLine.FindAllStringSubmatch(string(ci), -1) {
		if m[2] != m[3] {
			t.Errorf("fuzz-smoke line runs %s but fuzzes %s", m[2], m[3])
		}
		inCI[m[1]+"."+m[3]] = true
	}
	inTree := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is its own module; testdata holds no targets.
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				inTree[filepath.ToSlash(filepath.Dir(path))+"."+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inTree) == 0 {
		t.Fatal("found no fuzz targets")
	}
	for target := range inTree {
		if !inCI[target] {
			t.Errorf("fuzz target %s is missing from ci.yml's fuzz-smoke step", target)
		}
	}
	for target := range inCI {
		if !inTree[target] {
			t.Errorf("ci.yml's fuzz-smoke step runs %s, which does not exist", target)
		}
	}
}

var (
	// roadmapCite matches "ROADMAP item N" and "ROADMAP items N and M".
	roadmapCite = regexp.MustCompile(`ROADMAP items? (\d+(?:(?:,? and |, | or )\d+)*)`)
	// designCite matches "DESIGN §N", "DESIGN §N.M" and "DESIGN.md §N".
	designCite = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+(?:\.\d+)?)`)
	// roadmapItem matches a numbered item, open or retired, of ROADMAP.md.
	roadmapItem = regexp.MustCompile(`(?m)^(\d+)\. \*{1,2}[A-Z]`)
	// designHeading matches a numbered section heading of DESIGN.md.
	designHeading = regexp.MustCompile(`(?m)^#{2,} (\d+(?:\.\d+)?)\.? `)
	// codeSpan matches an inline code span of a Markdown file.
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// cmdPath matches a command directory, `cmd/<name>` or `./cmd/<name>`,
	// inside a code span.
	cmdPath = regexp.MustCompile(`(?:^|[\s(])(?:\./)?cmd/([\w-]+)`)
	// rootJSON matches a code span naming a repo-root JSON file. Those are
	// capitalised (BENCHMARK.json, BENCH_*.json); a lowercase name such as
	// trace.json is a run's output.
	rootJSON = regexp.MustCompile(`^[A-Z][\w-]*\.json$`)
	// goPath matches a code span naming a Go file, bare or with some of its
	// directories (`sched/paella.go`).
	goPath = regexp.MustCompile(`^[\w./-]+\.go$`)
	// testName matches a test, benchmark or fuzz target name; a trailing *
	// makes it a prefix (`BenchmarkNotifQueue*`).
	testName = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z]\w*)(\*?)`)
	// ciPattern matches the pattern argument of a go test -run, -bench or
	// -fuzz flag in ci.yml, quoted or bare.
	ciPattern = regexp.MustCompile(`-(?:run|bench|fuzz) ('[^']*'|\S+)`)
	// goName matches a code span naming a Go declaration, `pkg.Name` or
	// `pkg.Type.Member`, possibly called (`serving.NewFleet(opts)`). Name
	// must hold an upper-case letter and no underscore, which keeps out
	// metric names such as `vram.loads` and `sim.events_per_req`.
	goName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([a-z0-9]*[A-Z][A-Za-z0-9]*)(?:\.([A-Za-z]\w*))?(?:\(.*\))?$`)
	// fileExt matches the extension of a file name such as `trace.json`,
	// which goName would otherwise read as a package member.
	fileExt = regexp.MustCompile(`\.(?:go|md|json|csv|txt|gz|yml|sha256|golden|prof|test)$`)
)

// currentDocs are the documents that describe the tree as it is. ROADMAP.md
// and CHANGES.md record history, so they may name deleted files.
var currentDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md", "bench/README.md"}

// TestDocCitationsResolve checks that every "ROADMAP item N" cited in a .go
// or .md file names an item of ROADMAP.md, open or retired, and every
// "DESIGN §N[.M]" names a numbered heading of DESIGN.md. In currentDocs it
// also checks that every backticked `cmd/<name>` is a directory, every
// backticked repo-root `*.json` exists, every backticked `*.go` path is
// the path suffix of some Go file, and every backticked `TestX`,
// `BenchmarkX` or `FuzzX` is a function of some _test.go file, and every
// backticked `pkg.Name` or `pkg.Type.Member` whose pkg names a non-test
// package of the tree is a declaration of that package, or a field or
// method of that type (promoted ones included). So must every test name in ci.yml's
// -run, -bench and -fuzz patterns: a renamed benchmark would otherwise
// drop silently out of a continue-on-error step.
func TestDocCitationsResolve(t *testing.T) {
	targets := func(file string, re *regexp.Regexp) map[string]bool {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, m := range re.FindAllStringSubmatch(string(b), -1) {
			out[m[1]] = true
		}
		return out
	}
	items := targets("ROADMAP.md", roadmapItem)
	sections := targets("DESIGN.md", designHeading)
	if len(items) == 0 || len(sections) == 0 {
		t.Fatalf("found %d ROADMAP items and %d DESIGN sections", len(items), len(sections))
	}
	number := regexp.MustCompile(`\d+`)
	var goFiles []string // every Go file's path, with a leading slash
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".md") {
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, "/"+filepath.ToSlash(path))
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range roadmapCite.FindAllStringSubmatch(string(b), -1) {
			for _, n := range number.FindAllString(m[1], -1) {
				if !items[n] {
					t.Errorf("%s cites ROADMAP item %s, which ROADMAP.md does not have", path, n)
				}
			}
		}
		for _, m := range designCite.FindAllStringSubmatch(string(b), -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN §%s, which DESIGN.md has no heading for", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	funcs := collectTestFuncs(t)
	tree, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string][]*types.Package{} // package name -> packages
	for _, p := range tree {
		pkgs[p.types.Name()] = append(pkgs[p.types.Name()], p.types)
	}
	for _, doc := range currentDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllStringSubmatch(string(b), -1) {
			for _, m := range cmdPath.FindAllStringSubmatch(span[1], -1) {
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s names `cmd/%s`, which is not a directory", doc, m[1])
				}
			}
			if rootJSON.MatchString(span[1]) {
				if _, err := os.Stat(span[1]); err != nil {
					t.Errorf("%s names `%s`, which the repo root does not have", doc, span[1])
				}
			}
			if goPath.MatchString(span[1]) && !slices.ContainsFunc(goFiles, func(f string) bool {
				return strings.HasSuffix(f, "/"+strings.TrimPrefix(span[1], "./"))
			}) {
				t.Errorf("%s names `%s`, which no Go file's path ends with", doc, span[1])
			}
			for _, m := range testName.FindAllStringSubmatch(span[1], -1) {
				if !funcs.resolves(m[1], m[2] == "*") {
					t.Errorf("%s names `%s%s`, which no _test.go file declares", doc, m[1], m[2])
				}
			}
			if m := goName.FindStringSubmatch(span[1]); m != nil && pkgs[m[1]] != nil && !fileExt.MatchString(span[1]) &&
				!slices.ContainsFunc(pkgs[m[1]], func(p *types.Package) bool { return declares(p, m[2], m[3]) }) {
				t.Errorf("%s names `%s`, which no package %s declares", doc, span[1], m[1])
			}
		}
	}
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range ciPattern.FindAllStringSubmatch(string(ci), -1) {
		for _, m := range testName.FindAllStringSubmatch(arg[1], -1) {
			if !funcs.resolves(m[1], false) {
				t.Errorf("ci.yml runs %s, which no _test.go file declares", m[1])
			}
		}
	}
}

// declares reports whether p declares name at package level and, when
// member is set, whether name is a type with that field or method,
// promoted ones included.
func declares(p *types.Package, name, member string) bool {
	obj := p.Scope().Lookup(name)
	if obj == nil || member == "" {
		return obj != nil
	}
	_, isType := obj.(*types.TypeName)
	if !isType {
		return false
	}
	found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p, member)
	return found != nil
}

// testFuncs is the set of top-level function names declared in the repo's
// _test.go files, bench/ included.
type testFuncs map[string]bool

func collectTestFuncs(t *testing.T) testFuncs {
	funcs := testFuncs{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// resolves reports whether name is declared, or with prefix set, whether
// some declared name starts with it.
func (f testFuncs) resolves(name string, prefix bool) bool {
	if f[name] {
		return true
	}
	if prefix {
		for fn := range f {
			if strings.HasPrefix(fn, name) {
				return true
			}
		}
	}
	return false
}

// writeOnlyAllowed lists the struct fields declared in internal/ that
// non-test code writes and only tests read, each with the reason. Keys
// are "pkg.Type.Field".
var writeOnlyAllowed = map[string]string{
	"autoscale.Event.Active":     scalingLog,
	"autoscale.Event.Kind":       scalingLog,
	"autoscale.Event.Replica":    scalingLog,
	"compiler.KernelStat.Count":  "the compiler tests check each kernel's profiled executions per job (C̄ᵢ) against the model's sequence",
	"core.Stats.LoadFailures":    "the recovery tests check the weight-load retry budget; saturated-dispatch pins core.Stats printed with %+v",
	"core.Stats.LoadRetries":     "the recovery tests check the weight-load retry budget; saturated-dispatch pins core.Stats printed with %+v",
	"cudart.LinkStats.QueuedNs":  "the PCIe tests check the time a contended transfer queues for its engine",
	"gpu.Stats.BlocksPlaced":     "the gpu tests check block conservation against it, and the gpu transcript goldens print gpu.Stats with %+v",
	"gpu.Stats.KernelsSubmitted": "cudart's tests check that a hooked launch bypasses the device, and the gpu transcript goldens print gpu.Stats with %+v",
	"gpu.Stats.NotifsDropped":    "the gpu transcript goldens print gpu.Stats with %+v",
	"gpu.Stats.NotifsDuplicated": "the gpu transcript goldens print gpu.Stats with %+v",
	"gpu.Stats.SMsRestored":      "the recovery tests check SM retirement faults, and the gpu transcript goldens print gpu.Stats with %+v",
	"gpu.Stats.SMsRetired":       "the recovery tests check SM retirement faults, and the gpu transcript goldens print gpu.Stats with %+v",
	"llm.Engine.inflight":        "the llm tests check that no sequence is still in flight after a drain",
	"sim.Env.seq":                "the process-mix test counts the events a process mix schedules per step",
	"trace.SpanView.Cat":         spanViews,
	"trace.SpanView.ID":          spanViews,
	"trace.SpanView.Name":        spanViews,
	"trace.SpanView.Process":     spanViews,
	"trace.SpanView.Track":       spanViews,
	"vram.Stats.BytesLoaded":     "the vram tests check the bytes a load pages in",
	"vram.Stats.ColdPins":        "the vram and core tests check cold pins against warm hits",
}

// Reasons shared by several writeOnlyAllowed entries.
const (
	scalingLog = "the autoscale identity tests compare the scaling log entry by entry (Scaler.Events in export_test.go)"
	spanViews  = "the trace tests and core's copy-cost pin read each span's identity through the test-only Recorder.Spans"
)

// TestNoWriteOnlyFields fails when a struct field declared in internal/ is
// written by a non-test file of the tree (bench/, examples/ and cmd/
// included) but read by none, unless writeOnlyAllowed names it with a
// reason; it also fails on a stale entry. Fields with a struct tag (an
// encoder reads them) and blank fields are exempt. A field is written by
// a composite-literal key or an unkeyed literal of its struct, and by
// being on the left of an assignment or ++/--: x.f, x.f[i], x.f.g and
// *x.f all write f and never read it. Every other selection of the field
// reads it, and so does &x.f; a method or field promoted through an
// embedded field reads the embedded field too; comparing a struct with ==
// or != or indexing a map by it reads all its fields. The check
// type-checks the tree with go/types.
func TestNoWriteOnlyFields(t *testing.T) {
	tree, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	fields := internalFields(tree)
	mark := func(v *types.Var, write bool) {
		if f := fields[v.Origin()]; f != nil {
			if write {
				f.wrote = true
			} else {
				f.read = true
			}
		}
	}
	// readAll reads every field of a struct value that is compared or
	// hashed as a map key.
	var readAll func(typ types.Type)
	readAll = func(typ types.Type) {
		if st, ok := typ.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				mark(st.Field(i), false)
				readAll(st.Field(i).Type())
			}
		}
	}
	for _, p := range tree {
		info := p.info
		// keyed reads the key of a map index expression.
		keyed := func(x *ast.IndexExpr) {
			if typ := info.TypeOf(x.X); typ != nil {
				if m, ok := typ.Underlying().(*types.Map); ok {
					readAll(m.Key())
				}
			}
		}
		// promoted reads the embedded fields a selection goes through.
		promoted := func(sel *types.Selection) {
			typ := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					return
				}
				mark(st.Field(i), false)
				typ = st.Field(i).Type()
			}
		}
		var visit func(n ast.Node) bool
		// target walks the left-hand side of an assignment: the fields on
		// its path are written, index expressions are read.
		target := func(e ast.Expr) {
			for e != nil {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					keyed(x)
					ast.Inspect(x.Index, visit)
					e = x.X
				case *ast.SelectorExpr:
					sel := info.Selections[x]
					if sel == nil || sel.Kind() != types.FieldVal {
						ast.Inspect(x, visit)
						return
					}
					promoted(sel)
					mark(sel.Obj().(*types.Var), true)
					e = x.X
				default:
					ast.Inspect(x, visit)
					return
				}
			}
		}
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
				for _, rhs := range n.Rhs {
					ast.Inspect(rhs, visit)
				}
				return false
			case *ast.IncDecStmt:
				target(n.X)
				return false
			case *ast.IndexExpr:
				keyed(n)
			case *ast.BinaryExpr:
				if typ := info.TypeOf(n.X); typ != nil && (n.Op == token.EQL || n.Op == token.NEQ) {
					readAll(typ)
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
						mark(s.Obj().(*types.Var), true)
					}
				}
			case *ast.CompositeLit:
				typ := info.TypeOf(n)
				if typ == nil {
					break
				}
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							mark(v, true)
						}
						ast.Inspect(kv.Value, visit)
						continue
					}
					mark(st.Field(i), true)
					ast.Inspect(e, visit)
				}
				return false
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; sel != nil {
					promoted(sel)
					if sel.Kind() == types.FieldVal {
						mark(sel.Obj().(*types.Var), false)
					}
				}
			}
			return true
		}
		for _, f := range p.files {
			ast.Inspect(f, visit)
		}
	}
	allowed := map[string]bool{}
	var bad []string
	for _, f := range fields {
		if !f.wrote || f.read {
			continue
		}
		if _, ok := writeOnlyAllowed[f.key]; ok {
			allowed[f.key] = true
			continue
		}
		bad = append(bad, fmt.Sprintf("field %s (%s) is written but never read outside tests: delete it, or allowlist it with a reason", f.key, f.pos))
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	for key := range writeOnlyAllowed {
		if !allowed[key] {
			t.Errorf("stale writeOnlyAllowed entry %s: it is read outside tests, unwritten or no longer declared", key)
		}
	}
}

// structField is one struct field declared in internal/: its
// "pkg.Type.Field" key ("pkg.struct{…}.Field" in an anonymous struct), its
// position, whether its struct is a package-level type, and whether
// non-test code writes and reads it.
type structField struct {
	key         string
	pos         token.Position
	topLevel    bool
	wrote, read bool
}

// internalFields returns every untagged, non-blank struct field declared
// in internal/, embedded fields included.
func internalFields(tree []*checkedPkg) map[*types.Var]*structField {
	fields := map[*types.Var]*structField{}
	for _, p := range tree {
		if !strings.HasPrefix(p.path, "paella/internal/") {
			continue
		}
		for _, f := range p.files {
			owners := map[*ast.StructType]*ast.Ident{} // a named struct's type name
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						owners[st] = ts.Name
					}
				}
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				owner, topLevel := "struct{…}", false
				if id := owners[st]; id != nil {
					owner = id.Name
					topLevel = p.info.Defs[id].Parent() == p.types.Scope()
				}
				for _, fl := range st.Fields.List {
					names := fl.Names
					if len(names) == 0 {
						names = []*ast.Ident{embeddedName(fl.Type)}
					}
					for _, id := range names {
						v, _ := p.info.Defs[id].(*types.Var)
						if fl.Tag != nil || id.Name == "_" || v == nil {
							continue
						}
						fields[v] = &structField{key: p.types.Name() + "." + owner + "." + id.Name,
							pos: p.fset.Position(id.Pos()), topLevel: topLevel}
					}
				}
				return true
			})
		}
	}
	return fields
}

// embeddedName returns the identifier that names an embedded field's type.
func embeddedName(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

// checkedPkg is one type-checked package of the tree, test files excluded.
type checkedPkg struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadTree type-checks every non-test package of the tree, once per test
// binary: the root module and bench/'s module, whose paella/... imports
// resolve to the root. The standard library comes from the compiler's
// export data.
var loadTree = sync.OnceValues(func() ([]*checkedPkg, error) {
	fset := token.NewFileSet()
	dirs := map[string][]string{} // import path -> files
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		ip := "paella"
		if dir != "." {
			ip += "/" + filepath.ToSlash(dir)
		}
		dirs[ip] = append(dirs[ip], path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(fset, "gc", nil)
	done := map[string]*checkedPkg{}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := dirs[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if p := done[path]; p != nil {
			return p.types, nil
		}
		p := &checkedPkg{path: path, fset: fset, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range dirs[path] {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		var err error
		if p.types, err = conf.Check(path, fset, p.files, p.info); err != nil {
			return nil, err
		}
		done[path] = p
		return p.types, nil
	}
	paths := make([]string, 0, len(dirs))
	for path := range dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var out []*checkedPkg
	for _, path := range paths {
		if _, err := check(path); err != nil {
			return nil, err
		}
		out = append(out, done[path])
	}
	return out, nil
})

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
