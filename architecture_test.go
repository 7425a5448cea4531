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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

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
