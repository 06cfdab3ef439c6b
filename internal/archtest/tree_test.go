package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// goFile is one parsed Go file of the module.
type goFile struct {
	path    string // slash path from the module root
	dir     string // its directory, "." at the root
	pkg     string // the import path of that directory
	test    bool   // a _test.go file
	ast     *ast.File
	imports map[string]string // the name each import is used under → its path; blank and dot imports left out
}

// tree is the module as the rules read it: every Go file parsed, whatever
// its build constraints, and the assembly files, README.md, the shell scripts
// and the CI workflows as text.
// Rules only read a tree, so a mutated copy shares every file it does not
// replace.
type tree struct {
	fset   *token.FileSet
	module string
	src    map[string][]byte  // every file read, by slash path
	gofs   map[string]*goFile // the Go files among them
}

var loadOnce = sync.OnceValues(loadTree)

func load(t *testing.T) *tree {
	t.Helper()
	tr, err := loadOnce()
	if err != nil {
		t.Fatalf("reading the module: %v", err)
	}
	return tr
}

// loadTree reads the module the working directory is in: every .go, .s and
// .sh file outside what the go tool ignores (testdata, vendor, nested
// modules, names starting with a dot or an underscore), the root README.md,
// and the workflows under .github/workflows.
func loadTree() (*tree, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(gomod)
	if m == nil {
		return nil, errors.New("go.mod names no module")
	}
	tr := &tree{fset: token.NewFileSet(), module: string(m[1]), src: map[string][]byte{}, gofs: map[string]*goFile{}}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			return nil
		}
		if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, "_") ||
			strings.HasPrefix(name, ".") && rel != ".github" {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		workflow := path.Dir(rel) == ".github/workflows" && strings.HasSuffix(rel, ".yml")
		if !strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, ".s") && !strings.HasSuffix(rel, ".sh") && rel != "README.md" && !workflow {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return tr.add(rel, b)
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// add puts one file into the tree, parsing it when it is Go source; a file
// already there under rel is replaced.
func (tr *tree) add(rel string, src []byte) error {
	tr.src[rel] = src
	if !strings.HasSuffix(rel, ".go") {
		return nil
	}
	f, err := parser.ParseFile(tr.fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	gf := &goFile{path: rel, dir: path.Dir(rel), pkg: tr.module, test: strings.HasSuffix(rel, "_test.go"), ast: f, imports: map[string]string{}}
	if gf.dir != "." {
		gf.pkg += "/" + gf.dir
	}
	for _, is := range f.Imports {
		p := importPath(is)
		name := path.Base(p)
		if major, _ := path.Match("v[0-9]*", name); major && path.Dir(p) != "." {
			name = path.Base(path.Dir(p)) // math/rand/v2 is used as rand
		}
		if is.Name != nil {
			name = is.Name.Name
		}
		if name != "_" && name != "." {
			gf.imports[name] = p
		}
	}
	tr.gofs[rel] = gf
	return nil
}

// mutated returns a copy of tr with m's edits made; tr itself is unchanged.
func (tr *tree) mutated(m mutation) (*tree, error) {
	mt := &tree{fset: tr.fset, module: tr.module, src: maps.Clone(tr.src), gofs: maps.Clone(tr.gofs)}
	for _, e := range m.edits {
		src := string(mt.src[e.path])
		switch {
		case e.old == "":
			src += e.src
		case strings.Contains(src, e.old):
			src = strings.Replace(src, e.old, e.src, 1)
		default:
			return nil, fmt.Errorf("%s has no %q to replace", e.path, e.old)
		}
		if err := mt.add(e.path, []byte(src)); err != nil {
			return nil, err
		}
	}
	return mt, nil
}

// files returns the Go files keep accepts, in path order.
func (tr *tree) files(keep func(*goFile) bool) []*goFile {
	var out []*goFile
	for _, gf := range tr.gofs {
		if keep(gf) {
			out = append(out, gf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// lines calls visit with every line of every text file keep accepts, in
// path order, and the line's file:line.
func (tr *tree) lines(keep func(path string) bool, visit func(line, at string)) {
	var paths []string
	for p := range tr.src {
		if !strings.HasSuffix(p, ".go") && keep(p) {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		for i, line := range strings.Split(string(tr.src[p]), "\n") {
			visit(line, fmt.Sprintf("%s:%d", p, i+1))
		}
	}
}

// at is n's file:line.
func (tr *tree) at(n ast.Node) string {
	p := tr.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

func all(*goFile) bool { return true }

func nonTest(gf *goFile) bool { return !gf.test }

// nonTestIn accepts the non-test files of the packages in dirs.
func nonTestIn(dirs ...string) func(*goFile) bool {
	return func(gf *goFile) bool {
		for _, d := range dirs {
			if !gf.test && gf.dir == d {
				return true
			}
		}
		return false
	}
}

func importPath(is *ast.ImportSpec) string {
	p, _ := strconv.Unquote(is.Path.Value) // the parser has checked the literal
	return p
}

// ref is a package-level name: the import path of its package and the name.
type ref struct{ pkg, name string }

// ref resolves e when it names a package-level function or value: pkg.Name
// through the file's imports, or a bare name of the file's own package.
func (gf *goFile) ref(e ast.Expr) ref {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if p, ok := gf.imports[x.Name]; ok {
				return ref{p, e.Sel.Name}
			}
		}
	case *ast.Ident:
		return ref{gf.pkg, e.Name}
	}
	return ref{}
}

// inspect calls visit with every node of the file and the top-level
// function it sits in, nil outside any.
func (gf *goFile) inspect(visit func(n ast.Node, fn *ast.FuncDecl)) {
	for _, d := range gf.ast.Decls {
		fn, _ := d.(*ast.FuncDecl)
		ast.Inspect(d, func(n ast.Node) bool {
			if n != nil {
				visit(n, fn)
			}
			return true
		})
	}
}

// isFunc reports whether fn is the package-level function name.
func isFunc(fn *ast.FuncDecl, name string) bool {
	return fn != nil && fn.Recv == nil && fn.Name.Name == name
}

// where names the place fn stands for in a violation.
func where(fn *ast.FuncDecl) string {
	switch {
	case fn == nil:
		return "package scope"
	case fn.Recv != nil:
		return "method " + fn.Name.Name
	}
	return "func " + fn.Name.Name
}

// TestRulesHold runs every rule on the module as it is.
func TestRulesHold(t *testing.T) {
	tr := load(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if v := r.check(tr); len(v) > 0 {
				t.Errorf("rule %s: %s\n\t%s", r.name, r.why, strings.Join(v, "\n\t"))
			}
		})
	}
}

var fileLine = regexp.MustCompile(`^[^\s:]+:[0-9]+: `)

// TestRulesRejectMutations proves every rule live: each of its mutations
// is one breach, made in memory, that the rule must report as file:line.
// The rule passes on the real tree (TestRulesHold), so what it reports on a
// mutated one is the mutation's doing.
func TestRulesRejectMutations(t *testing.T) {
	tr := load(t)
	seen := map[string]bool{}
	for _, r := range rules {
		if seen[r.name] || len(r.mutations) == 0 {
			t.Errorf("rule %s: a rule needs a name of its own and at least one mutation", r.name)
		}
		seen[r.name] = true
		for _, m := range r.mutations {
			t.Run(r.name+"/"+m.name, func(t *testing.T) {
				mt, err := tr.mutated(m)
				if err != nil {
					t.Fatalf("mutation %s: %v", m.name, err)
				}
				v := r.check(mt)
				if len(v) == 0 {
					t.Fatalf("rule %s let mutation %s through", r.name, m.name)
				}
				for _, s := range v {
					if !fileLine.MatchString(s) {
						t.Errorf("rule %s reported %q without a file:line", r.name, s)
					}
				}
				t.Logf("rule %s rejects mutation %s: %s", r.name, m.name, v[0])
			})
		}
	}
}
