package archtest

import (
	"fmt"
	"go/ast"
	"path"
	"sort"
	"strings"
)

// unusedExports are the exported declarations under internal/ that no
// non-test code outside their own file uses, each with the reason it is
// kept. A key is "dir.Name" for a package-level name, "dir.Type.Method" for
// a method, or "dir" for every exported name of the package; dir is the
// package's directory under internal/.
var unusedExports = map[string]string{
	"comm.NewFaultConn":              "test fixture: the fault-injecting net.Conn the comm and mpc chaos tests wrap links in",
	"comm.FaultConn.DropAfterFrames": "test fixture: the frame-boundary cut the peer-link chaos tests arm",
	"comm.Wrap":                      "test fixture: wraps an arbitrary net.Conn (a pipe, a FaultConn) as a framed Conn",
	"mpc.EncodeRequestBudget":        "test fixture: the budgeted request frame the mpc and fleet deadline tests write by hand; RequestMulRetry lends its frames instead",
	"comm.FramesLent":                "test fixture: the frame pool's outstanding count, which the mpc and comm leak tests read",
	"comm.muxTimeoutError.Temporary": "completes net.Error; deleting it changes what errors.As finds",
	"comm.muxTimeoutError.Timeout":   "completes net.Error: a session read deadline reads as a timeout, as a connection deadline does",
	"tensor.SetMaxWorkers":           "test fixture: pins the worker count for the parallel-kernel tests in tensor and rng",
	"tensor.DecodeMatrixFP16":        "ROADMAP item 3 decides the FP16 codec's fate",
	"tensor.DecodeCSR":               "ROADMAP item 3 decides the CSR codec's fate",
	"fixed":                          "ROADMAP item 4 decides whether the ring engine adopts or deletes internal/fixed",
}

// export is one exported declaration of non-test code under internal/.
type export struct {
	key  string // as in unusedExports
	file string
	at   string // file:line
	name string
	kind string // "func", "method", "type" or "value"
	recv string // a method's receiver type
}

// uses is every reference the module's non-test code makes, by the file it
// is made in.
type uses struct {
	names   map[ref]map[string]bool    // package-level names: pkg.Name selectors and bare identifiers
	members map[string]map[string]bool // selected names (x.Name), which is how methods are matched
}

func (u uses) outside(set map[string]bool, file string) bool {
	for f := range set {
		if f != file {
			return true
		}
	}
	return false
}

// collectUses records every identifier that non-test code reads. Declared
// names (functions, types, values, fields, parameters) and method receivers
// are not uses; a selector counts as a member use of its name and, when it
// is pkg.Name through an import, as a use of that package-level name.
func collectUses(tr *tree) uses {
	u := uses{names: map[ref]map[string]bool{}, members: map[string]map[string]bool{}}
	add := func(m map[string]bool, file string) map[string]bool {
		if m == nil {
			m = map[string]bool{}
		}
		m[file] = true
		return m
	}
	for _, gf := range tr.files(nonTest) {
		declared := map[*ast.Ident]bool{}
		ast.Inspect(gf.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
			case *ast.TypeSpec:
				declared[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			}
			return true
		})
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl: // the receiver is not a use
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				u.members[n.Sel.Name] = add(u.members[n.Sel.Name], gf.path)
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := gf.imports[x.Name]; ok {
						r := ref{p, n.Sel.Name}
						u.names[r] = add(u.names[r], gf.path)
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declared[n] {
					r := ref{gf.pkg, n.Name}
					u.names[r] = add(u.names[r], gf.path)
				}
			}
			return true
		}
		for _, d := range gf.ast.Decls {
			ast.Inspect(d, visit)
		}
	}
	return u
}

// collectExports lists the exported declarations of non-test code under
// internal/, less the typed-failure contract: Err… values and types with
// an Error method, which tests reach through errors.Is and errors.As.
func collectExports(tr *tree) (exports []export, returns map[ref][]*ast.FuncDecl) {
	returns = map[ref][]*ast.FuncDecl{} // a type → the functions and methods returning it
	errorTypes := map[ref]bool{}
	for _, gf := range tr.files(nonTest) {
		if !strings.HasPrefix(gf.path, "internal/") {
			continue
		}
		key := strings.TrimPrefix(gf.dir, "internal/")
		for _, d := range gf.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Type.Results != nil {
					for _, res := range d.Type.Results.List {
						if t := namedType(res.Type); t != "" {
							r := ref{gf.pkg, t}
							returns[r] = append(returns[r], d)
						}
					}
				}
				if d.Recv == nil {
					if d.Name.IsExported() {
						exports = append(exports, export{key + "." + d.Name.Name, gf.path, tr.at(d), d.Name.Name, "func", ""})
					}
					continue
				}
				recv := namedType(d.Recv.List[0].Type)
				if d.Name.Name == "Error" && len(d.Type.Params.List) == 0 {
					errorTypes[ref{gf.pkg, recv}] = true
				}
				if d.Name.IsExported() {
					exports = append(exports, export{key + "." + recv + "." + d.Name.Name, gf.path, tr.at(d), d.Name.Name, "method", recv})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exports = append(exports, export{key + "." + s.Name.Name, gf.path, tr.at(s), s.Name.Name, "type", ""})
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() && !strings.HasPrefix(id.Name, "Err") {
								exports = append(exports, export{key + "." + id.Name, gf.path, tr.at(id), id.Name, "value", ""})
							}
						}
					}
				}
			}
		}
	}
	kept := exports[:0]
	for _, e := range exports {
		if e.kind != "type" || !errorTypes[ref{tr.module + "/" + path.Dir(e.file), e.name}] {
			kept = append(kept, e)
		}
	}
	return kept, returns
}

// namedType is the name of the type t is, or points to, or is a slice of;
// "" when t is none of those.
func namedType(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return namedType(t.X)
	case *ast.ArrayType:
		return namedType(t.Elt)
	case *ast.IndexExpr: // a generic type's instance
		return namedType(t.X)
	case *ast.IndexListExpr:
		return namedType(t.X)
	}
	return ""
}

func exportedIsUsed(tr *tree) []string {
	u := collectUses(tr)
	exports, returns := collectExports(tr)
	used := func(e export) bool {
		pkg := tr.module + "/" + path.Dir(e.file)
		switch e.kind {
		case "method":
			return len(u.members[e.name]) > 0
		case "type":
			if u.outside(u.names[ref{pkg, e.name}], e.file) {
				return true
			}
			for _, m := range exports {
				if m.kind == "method" && m.recv == e.name && path.Dir(m.file) == path.Dir(e.file) && u.outside(u.members[m.name], e.file) {
					return true
				}
			}
			for _, fn := range returns[ref{pkg, e.name}] {
				if fn.Recv == nil && u.outside(u.names[ref{pkg, fn.Name.Name}], e.file) ||
					fn.Recv != nil && u.outside(u.members[fn.Name.Name], e.file) {
					return true
				}
			}
			return false
		}
		return u.outside(u.names[ref{pkg, e.name}], e.file)
	}
	var out []string
	unused := map[string]bool{} // the keys, and the dirs, of what is unused
	declared := map[string]bool{}
	for _, e := range exports {
		dir, _, _ := strings.Cut(e.key, ".")
		declared[e.key], declared[dir] = true, true
		if used(e) {
			continue
		}
		unused[e.key], unused[dir] = true, true
		if _, ok := unusedExports[e.key]; ok {
			continue
		}
		if _, ok := unusedExports[dir]; ok {
			continue
		}
		out = append(out, fmt.Sprintf("%s: %s %s is exported, but no non-test code outside %s uses it: delete it, unexport it, move it to a test file, or give it a reason in unusedExports", e.at, e.kind, e.key, path.Base(e.file)))
	}
	var stale []string
	for key := range unusedExports {
		switch {
		case !declared[key]:
			stale = append(stale, fmt.Sprintf("%s: unusedExports keeps %s, which is not declared", allowlistAt(tr, key), key))
		case !unused[key]:
			stale = append(stale, fmt.Sprintf("%s: unusedExports keeps %s, which non-test code now uses", allowlistAt(tr, key), key))
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

// allowlistAt is the file:line of key's entry in unusedExports.
func allowlistAt(tr *tree, key string) string {
	const file = "internal/archtest/exported_test.go"
	for i, line := range strings.Split(string(tr.src[file]), "\n") {
		if strings.Contains(line, fmt.Sprintf("%q:", key)) {
			return fmt.Sprintf("%s:%d", file, i+1)
		}
	}
	return file + ":1"
}
