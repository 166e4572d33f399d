// Package clockinject implements the gridlint analyzer that keeps
// wall-clock reads out of the packages that plumb an injected clock.
//
// gate, core, ticket, membership, peerlink and site all take a
// `func() time.Time` (or a Clock/Now config field) precisely so tests can
// drive expiry, sweeps, suspicion timers, breaker windows and redials
// deterministically; PR 7 showed the subtlest
// control-plane bugs are clock discipline. A stray `time.Now()` in such
// a package silently splits time in two: half the logic follows the fake
// clock, half the wall, and the test that would have caught an eviction
// bug can no longer reach it (the gate pool's idle sweep was exactly
// this). The analyzer flags *calls* to time.Now, time.Since and
// time.NewTimer in those packages. Referencing `time.Now` as a value —
// the `if clock == nil { clock = time.Now }` default wiring — is the
// sanctioned pattern and stays legal, as do tests. Genuine wall-clock
// uses (monotonic elapsed-time metrics, real-I/O timers the fake clock
// cannot drive, nonce seeding) are annotated
// `//lint:allow-wallclock <why>` — on the line, the comment block above,
// or the enclosing function's doc comment.
package clockinject

import (
	"go/ast"

	"gridproxy/internal/lint/analysis"
	"gridproxy/internal/lint/lintutil"
)

// Analyzer is the clockinject analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "clockinject",
	Doc:  "no direct time.Now/time.Since/time.NewTimer calls in clock-injected packages; use the injected clock",
	Run:  run,
}

// ClockedPackages names the packages (by package name) that plumb an
// injected clock and must use it.
var ClockedPackages = map[string]bool{
	"core":       true,
	"gate":       true,
	"membership": true,
	"peerlink":   true,
	"site":       true,
	"ticket":     true,
}

// wallClockFuncs are the forbidden direct reads of the wall clock.
var wallClockFuncs = map[string]bool{
	"Now":      true,
	"Since":    true,
	"NewTimer": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !ClockedPackages[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		if lintutil.InTestFile(pass, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lintutil.Callee(pass.TypesInfo, call)
			if fn == nil || lintutil.PkgPath(fn) != "time" || !wallClockFuncs[fn.Name()] {
				return true
			}
			if lintutil.Allowed(pass, call.Pos(), "allow-wallclock") {
				return true
			}
			pass.Reportf(call.Pos(),
				"time.%s in clock-injected package %s: use the injected clock so tests can drive this path (annotate //lint:allow-wallclock <why> for genuine wall-clock uses)",
				fn.Name(), pass.Pkg.Name())
			return true
		})
	}
	return nil, nil
}
