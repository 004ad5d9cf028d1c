package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// GoRecover enforces the panic-isolation contract on every goroutine
// launched from non-test internal/ code: a panic on a fresh goroutine cannot
// be recovered anywhere else, so the launch site itself must contain the
// isolation. A `go` statement is compliant when it
//
//   - invokes a *Safe-suffixed wrapper directly (go s.workerLoopSafe()),
//   - runs a function literal that defers a recover(), or
//   - runs a function literal whose body calls a *Safe-suffixed wrapper or
//     backend.Protect-style guard (the worker-pool shape: the literal only
//     loops and delegates each item to a wrapper, as bench.RunSuite's
//     workers do through runEngineSafe).
//
// Anything else is a goroutine that can crash the process.
var GoRecover = &analysis.Analyzer{
	Name: "gorecover",
	Doc: "every go statement in non-test internal/ code must isolate panics: " +
		"a deferred recover() in the literal or a *Safe-suffixed wrapper call",
	Run: runGoRecover,
}

func runGoRecover(pass *analysis.Pass) error {
	if !strings.Contains(pass.Pkg.Path+"/", "/internal/") {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if isSafeName(calleeName(g.Call)) {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				pass.Reportf(g.Pos(),
					"goroutine launched without panic isolation: call a *Safe-suffixed wrapper or use a literal with a deferred recover()")
				return true
			}
			if !literalIsolatesPanics(info, lit) {
				pass.Reportf(g.Pos(),
					"go func literal without panic isolation: defer a recover() or delegate the work to a *Safe-suffixed wrapper")
			}
			return true
		})
	}
	return nil
}

// literalIsolatesPanics reports whether the goroutine body contains a
// deferred recover() or a call to a *Safe wrapper. Nested function literals
// are not descended into for the recover check — a recover deferred on an
// inner goroutine or stored closure does not protect this one — but a
// deferred named function is accepted when its name advertises recovery.
func literalIsolatesPanics(info *types.Info, lit *ast.FuncLit) bool {
	isolated := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if isolated {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if inner, ok := n.Call.Fun.(*ast.FuncLit); ok {
				if callsRecover(info, inner.Body) {
					isolated = true
				}
				return false
			}
			name := calleeName(n.Call)
			if isSafeName(name) || strings.Contains(name, "Recover") {
				isolated = true
			}
		case *ast.CallExpr:
			if isSafeName(calleeName(n)) {
				isolated = true
			}
		case *ast.GoStmt:
			// A nested goroutine is its own launch site, checked separately.
			return false
		}
		return true
	})
	return isolated
}

// isSafeName reports whether name advertises panic isolation under the
// naming contract: a Safe prefix (backend.SafeSynthesize) or suffix
// (bench's runEngineSafe, the service's workerLoopSafe).
func isSafeName(name string) bool {
	return name != "" && (strings.HasPrefix(name, "Safe") || strings.HasSuffix(name, "Safe"))
}

// callsRecover reports whether body invokes the recover builtin directly.
func callsRecover(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
		}
		return true
	})
	return found
}
