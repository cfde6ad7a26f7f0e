// Package shardaffinity enforces the engine's node-affinity contract on
// scheduled callbacks.
//
// When simnet.Network runs more than one shard, per-node protocol state
// (bitswap want maps, DHT routing tables, node block stores) is safe without
// locks only because every function that touches a node's state runs on the
// shard owning that node. The engine documents the rule: schedule such work
// with AfterOn(id, ...) or Post(id, ...); the plain After/At run with control
// affinity and must stick to global orchestration. A callback that violates
// this compiles and passes every one-shard test, then races (or silently
// diverges) at several shards — exactly the class of bug equivalence tests
// catch late and code review misses.
//
// The analyzer inspects every function literal passed to After/At/AfterOn/
// Post on an engine-shaped receiver (any type whose method set has AfterOn)
// and flags:
//
//   - After/At callbacks that call methods on, or write fields of, values
//     whose type lives in a per-node protocol package (bitswap, dht, node) —
//     node-owned state touched with control affinity;
//   - AfterOn/Post callbacks that touch node-owned state reached through a
//     different captured variable than the affinity argument — state of node
//     B mutated on node A's shard.
//
// Touching node state through a nested AfterOn/Post literal is the
// sanctioned marshalling pattern and is not flagged (the nested callback is
// checked on its own). Deliberate exceptions (e.g. nodes pinned to the
// control shard) are annotated //bsvet:shardaffinity.
package shardaffinity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bitswapmon/tools/analyzers/internal/bsvetutil"
	"golang.org/x/tools/go/analysis"
)

// Analyzer is the shardaffinity pass.
var Analyzer = &analysis.Analyzer{
	Name: "shardaffinity",
	Doc:  "flag node-owned state touched from callbacks without the owning node's affinity (suppress with //bsvet:shardaffinity)",
	URL:  "bitswapmon/tools/analyzers/shardaffinity",
	Run:  run,
}

// nodeStatePkgs are the per-node protocol packages: a value of a type
// declared in one of these is node-owned state.
var nodeStatePkgs = []string{"bitswap", "dht", "node"}

func run(pass *analysis.Pass) (any, error) {
	if !bsvetutil.SimFacing(pass.Pkg.Path()) {
		return nil, nil
	}
	suppressed := bsvetutil.Suppressor(pass, "shardaffinity")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, affinity, lit := schedulingCall(pass, call)
			if lit == nil {
				return true
			}
			switch kind {
			case "After", "At":
				checkControl(pass, kind, lit, suppressed)
			case "AfterOn", "Post":
				checkAffine(pass, kind, affinity, lit, suppressed)
			}
			return true
		})
	}
	return nil, nil
}

// schedulingCall recognizes engine scheduling calls whose final argument is
// a function literal. It returns the method name, the affinity argument
// (nil for control-affine After/At), and the literal.
func schedulingCall(pass *analysis.Pass, call *ast.CallExpr) (kind string, affinity ast.Expr, lit *ast.FuncLit) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil, nil
	}
	name := sel.Sel.Name
	var wantArgs int
	switch name {
	case "After", "At", "Post":
		wantArgs = 2
	case "AfterOn":
		wantArgs = 3
	default:
		return "", nil, nil
	}
	if len(call.Args) != wantArgs {
		return "", nil, nil
	}
	l, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
	if !ok {
		return "", nil, nil
	}
	// The receiver must be engine-shaped: its method set carries AfterOn.
	// This keeps the analyzer off unrelated After/Post methods.
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return "", nil, nil
	}
	if obj, _, _ := types.LookupFieldOrMethod(recv, true, pass.Pkg, "AfterOn"); obj == nil {
		return "", nil, nil
	}
	if name == "AfterOn" || name == "Post" {
		affinity = call.Args[0]
	}
	return name, affinity, l
}

// checkControl flags node-owned state touched inside a control-affine
// (After/At) callback. Nested AfterOn/Post literals are the sanctioned
// marshalling pattern and are skipped; they are verified independently.
func checkControl(pass *analysis.Pass, kind string, lit *ast.FuncLit, suppressed func(token.Pos) bool) {
	walkCallback(pass, lit, func(pos token.Pos, expr string) {
		if !suppressed(pos) {
			pass.Reportf(pos,
				"node-owned state (%s) touched from a control-affine %s callback; schedule it with AfterOn/Post on the owning node (//bsvet:shardaffinity to allow)",
				expr, kind)
		}
	}, nil)
}

// checkAffine flags node-owned state reached through a captured variable
// other than the affinity argument's root inside an AfterOn/Post callback.
func checkAffine(pass *analysis.Pass, kind string, affinity ast.Expr, lit *ast.FuncLit, suppressed func(token.Pos) bool) {
	owner := rootIdent(affinity)
	if owner == nil {
		// Affinity derived through an index or call: no sound way to match
		// roots, so stay silent rather than guess.
		return
	}
	ownerObj := identObj(pass, owner)
	walkCallback(pass, lit, nil, func(pos token.Pos, root *ast.Ident, expr string) {
		if root == nil {
			return
		}
		obj := identObj(pass, root)
		if obj == nil || obj == ownerObj {
			return
		}
		// Locals declared inside the literal resolve their node at run time
		// on the owning shard; only captures can smuggle in foreign state.
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return
		}
		if !suppressed(pos) {
			pass.Reportf(pos,
				"%s callback with affinity %s touches node state through %s; post it with that node's ID instead (//bsvet:shardaffinity to allow)",
				kind, owner.Name, expr)
		}
	})
}

// walkCallback walks a scheduling callback body and invokes onTouch for
// every method call on, or field write through, node-owned state.
// Exactly one of control/affine is non-nil and selects the reporting shape.
func walkCallback(pass *analysis.Pass, lit *ast.FuncLit, control func(token.Pos, string), affine func(token.Pos, *ast.Ident, string)) {
	report := func(pos token.Pos, e ast.Expr) {
		label := types.ExprString(e)
		if control != nil {
			control(pos, label)
		} else {
			affine(pos, rootIdent(e), label)
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// Skip nested scheduling literals: their body is checked as its
			// own callback with its own affinity.
			if _, _, nested := schedulingCall(pass, x); nested != nil {
				// Still look at the affinity/duration arguments normally.
				for _, arg := range x.Args[:len(x.Args)-1] {
					checkExprReads(pass, arg, report)
				}
				return false
			}
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pass.TypesInfo.Selections[sel] == nil {
				return true // package-qualified or conversion, not a method
			}
			if t := pass.TypesInfo.TypeOf(sel.X); isNodeState(t) {
				report(sel.Pos(), sel.X)
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkWriteTarget(pass, lhs, report)
			}
		case *ast.IncDecStmt:
			checkWriteTarget(pass, x.X, report)
		}
		return true
	})
}

// checkWriteTarget reports a write whose target is reached through a
// node-owned value: nd.Field = v, nd.Wants[k] = v, nd.Counter++.
func checkWriteTarget(pass *analysis.Pass, lhs ast.Expr, report func(token.Pos, ast.Expr)) {
	for {
		switch x := lhs.(type) {
		case *ast.SelectorExpr:
			if t := pass.TypesInfo.TypeOf(x.X); isNodeState(t) {
				report(x.Pos(), x.X)
				return
			}
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return
		}
	}
}

// checkExprReads applies the same node-state detection to a plain
// expression (used for nested scheduling call arguments).
func checkExprReads(pass *analysis.Pass, e ast.Expr, report func(token.Pos, ast.Expr)) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || pass.TypesInfo.Selections[sel] == nil {
			return true
		}
		if t := pass.TypesInfo.TypeOf(sel.X); isNodeState(t) {
			report(sel.Pos(), sel.X)
		}
		return true
	})
}

// isNodeState reports whether t is (a pointer to) a named type declared in
// one of the per-node protocol packages.
func isNodeState(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	for _, name := range nodeStatePkgs {
		if path == name || strings.HasSuffix(path, "internal/"+name) {
			return true
		}
	}
	return false
}

// rootIdent unwraps selector/index/paren chains to the base identifier, or
// nil when the base is not an identifier (calls, literals).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identObj resolves an identifier to its object.
func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}
