package gremlin_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptWithoutCaller lists the exported functions and methods under
// internal/ that no non-test code calls and that stay on purpose, each
// with the reason. A name is "pkg.Func" or "pkg.Type.Method".
var keptWithoutCaller = map[string]string{
	// Test seams: hooks the tests read or build with.
	"checker.StoreFeed":                "test seam: feeds a Monitor from an in-process Store",
	"checker.Monitor.Violations":       "test seam: the violations a Monitor raised, read by the live tests",
	"telemetry.Recorder.ActiveWindows": "test seam: the fault windows still open, read by the differ tests",
	"pattern.MustCompile":              "test seam: compiles literal patterns in table tests",
	"microservice.StatusHandler":       "test seam: a fixed-status handler for the microservice tests",
	"metrics.Lint":                     "test seam: checks an exposition's names and types in the metrics tests",
	"campaign.Scorecard.Covered":       "test seam: whether a scorecard covered every unit, read by the campaign tests",
	"eventlog.Store.Replayed":          "test seam: records replayed from the WAL, read by the WAL tests",
	"rules.Matcher.Rebuilds":           "test seam: the matcher's index rebuild count, read by the reconcile tests",
	"streamproxy.Stats.Faults":         "test seam: the relay's fault total, read by the relay tests",

	// Control loops no verb runs yet; the control-channel model decides
	// whether they are wired in or deleted.
	"orchestrator.Orchestrator.ClearAll":         "control loop not yet wired into a verb",
	"orchestrator.Orchestrator.StartAntiEntropy": "control loop not yet wired into a verb",
	"orchestrator.Orchestrator.Owners":           "control loop not yet wired into a verb",
	"orchestrator.Report.Repaired":               "control loop not yet wired into a verb",
	"orchestrator.WithRetry":                     "control loop not yet wired into a verb",

	// The paper's Table 3 base assertions (§4.2), the vocabulary custom
	// checks are written in.
	"checker.ReplyLatency":   "paper Table 3 base assertion",
	"checker.AtMostRequests": "paper Table 3 base assertion",
	"checker.CheckStatus":    "paper Table 3 base assertion",
	"checker.Combine":        "paper Table 3 base assertion",
}

// interfaceMethods are method names that satisfy a standard interface;
// their callers are the standard library, so no reference to them shows.
var interfaceMethods = map[string]bool{
	"ServeHTTP": true, "Error": true, "String": true, "Unwrap": true,
	"Close": true, "Read": true, "Write": true, "Log": true,
	"Len": true, "Less": true, "Swap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Flush": true,
}

// TestNoExportedFuncWithoutCaller finds the exported functions and
// methods declared under internal/ whose name appears in no non-test Go
// file apart from their own declaration, and holds them to
// keptWithoutCaller. The probe is by name: any identifier with the same
// name anywhere in non-test code counts as a caller.
func TestNoExportedFuncWithoutCaller(t *testing.T) {
	type decl struct {
		key  string
		name string
		node *ast.FuncDecl
	}
	var decls []decl
	uses := map[string]int{}
	eachNonTestFile(t, func(path string, f *ast.File) {
		declared := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !internal || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fd.Recv != nil {
				if interfaceMethods[fd.Name.Name] {
					continue
				}
				key += receiverType(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fd.Name.Name, fd.Name.Name, fd})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
	})

	// dead holds every declared key: whether no other identifier names it.
	dead := map[string]bool{}
	for _, d := range decls {
		self := 0
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == d.name && id != d.node.Name {
				self++
			}
			return true
		})
		dead[d.key] = uses[d.name] == self
	}

	var unlisted []string
	for k, isDead := range dead {
		if _, ok := keptWithoutCaller[k]; isDead && !ok {
			unlisted = append(unlisted, k)
		}
	}
	sort.Strings(unlisted)
	for _, k := range unlisted {
		t.Errorf("%s is exported but nothing outside tests calls it: delete it, or list it in keptWithoutCaller with the reason", k)
	}
	var listed []string
	for k := range keptWithoutCaller {
		listed = append(listed, k)
	}
	sort.Strings(listed)
	for _, k := range listed {
		switch isDead, ok := dead[k]; {
		case !ok:
			t.Errorf("keptWithoutCaller lists %s, which no longer exists: drop the entry", k)
		case !isDead:
			t.Errorf("keptWithoutCaller lists %s, which now has a non-test caller: drop the entry", k)
		}
	}
}

// keptWithoutSetter lists the exported fields of option structs under
// internal/ that no non-test code sets and that stay on purpose, each
// with the reason. A name is "pkg.Type.Field".
var keptWithoutSetter = map[string]string{
	"checker.CircuitBreakerOptions.SuccessThreshold": "paper Table 3: the breaker check's half-open successes",

	// Re-exported as gremlin.GenerateOptions; example_test.go documents
	// them as the knobs a Go recipe turns.
	"core.GenerateOptions.MaxRetries":       "root facade vocabulary",
	"core.GenerateOptions.BreakerThreshold": "root facade vocabulary",
	"core.GenerateOptions.BreakerQuiet":     "root facade vocabulary",

	// Test seams: without them a test would need thousands of records
	// or hundreds of sockets to reach the bound it checks.
	"eventlog.BufferOptions.Max":                "test seam: a small buffer bound",
	"eventlog.StoreOptions.CompactAfter":        "test seam: compaction after a few segments",
	"eventlog.StoreOptions.MaxSegmentBytes":     "test seam: small WAL segments",
	"eventlog.StoreOptions.FsyncInterval":       "test seam: group-commit timing",
	"loadgen.OpenLoopOptions.MaxInFlight":       "test seam: a shedding cap a test can reach",
	"registry.DynamicOptions.MaxEvents":         "test seam: a short change-event ring",
	"resilience.BreakerConfig.SuccessThreshold": "test seam: several half-open probes",

	// Clock seams for deterministic-time tests.
	"registry.DynamicOptions.Now":  "clock seam",
	"resilience.BreakerConfig.Now": "clock seam",
	"resilience.RetryPolicy.Sleep": "clock seam",
}

// defaultingMethods are the methods that fill an option struct's zero
// fields with defaults; nothing inside one counts as a setter.
var defaultingMethods = map[string]bool{"withDefaults": true, "defaults": true, "WithDefaults": true}

// TestNoOptionWithoutSetter finds the exported fields of exported struct
// types under internal/ named *Options, *Config or *Policy that no
// non-test Go file sets, and holds them to keptWithoutSetter. A field
// is set by a keyed composite literal of its type naming it, or by an
// assignment to .Field outside a defaulting method and outside the body
// of an if whose condition reads the same field (the "if o.X <= 0 {
// o.X = d }" idiom). Like TestNoExportedFuncWithoutCaller it matches by
// name: a literal of another package's same-named type, or an
// assignment to any same-named field, counts as a setter. So it cannot
// prove an option unused, and only keeps unused ones from growing back.
func TestNoOptionWithoutSetter(t *testing.T) {
	declared := map[string]string{} // "pkg.Type.Field" -> "Type.Field"
	literal := map[string]bool{}    // "Type.Field" named in a keyed literal
	assigned := map[string]bool{}   // "Field" assigned outside defaulting

	// visit records the setters under n. guarded holds the field names
	// an enclosing if compares.
	var visit func(n ast.Node, guarded map[string]bool)
	visit = func(n ast.Node, guarded map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && defaultingMethods[n.Name.Name] {
					return false
				}
			case *ast.IfStmt:
				inner := map[string]bool{}
				for k := range guarded {
					inner[k] = true
				}
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if sel, ok := c.(*ast.SelectorExpr); ok {
						inner[sel.Sel.Name] = true
					}
					return true
				})
				if n.Init != nil {
					visit(n.Init, guarded)
				}
				visit(n.Cond, guarded)
				visit(n.Body, inner)
				if n.Else != nil {
					visit(n.Else, guarded)
				}
				return false
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && !guarded[sel.Sel.Name] {
						assigned[sel.Sel.Name] = true
					}
				}
			case *ast.CompositeLit:
				typ := n.Type
				if sel, ok := typ.(*ast.SelectorExpr); ok {
					typ = sel.Sel
				}
				id, ok := typ.(*ast.Ident)
				if !ok {
					return true
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							literal[id.Name+"."+key.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	eachNonTestFile(t, func(path string, f *ast.File) {
		visit(f, nil)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return
		}
		for _, dd := range f.Decls {
			gd, ok := dd.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() ||
					!(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy")) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, fn := range field.Names {
						if fn.IsExported() {
							declared[f.Name.Name+"."+name+"."+fn.Name] = name + "." + fn.Name
						}
					}
				}
			}
		}
	})

	// unset holds every declared key: whether nothing sets it.
	unset := map[string]bool{}
	for key, tf := range declared {
		field := tf[strings.IndexByte(tf, '.')+1:]
		unset[key] = !literal[tf] && !assigned[field]
	}

	var unlisted []string
	for k, isUnset := range unset {
		if _, ok := keptWithoutSetter[k]; isUnset && !ok {
			unlisted = append(unlisted, k)
		}
	}
	sort.Strings(unlisted)
	for _, k := range unlisted {
		t.Errorf("%s is an option nothing outside tests sets: make its default a constant, or list it in keptWithoutSetter with the reason", k)
	}
	var listed []string
	for k := range keptWithoutSetter {
		listed = append(listed, k)
	}
	sort.Strings(listed)
	for _, k := range listed {
		switch isUnset, ok := unset[k]; {
		case !ok:
			t.Errorf("keptWithoutSetter lists %s, which no longer exists: drop the entry", k)
		case !isUnset:
			t.Errorf("keptWithoutSetter lists %s, which now has a non-test setter: drop the entry", k)
		}
	}
}

// eachNonTestFile parses every non-test Go file in the module, outside
// dot directories and testdata, and calls fn with each.
func eachNonTestFile(t *testing.T, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// receiverType names a method's receiver type without its pointer or
// type parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
