// Package nowalltime forbids wall-clock time sources and the global
// math/rand stream in simulation-facing packages.
//
// The reproduction's correctness anchor is byte-identical output across runs
// and across the serial/sharded engines. Any read of the host clock
// (time.Now, time.Since, timers that fire on wall time) or any draw from the
// process-global math/rand source breaks that: the result depends on when
// and where the binary ran, not on the scenario seed. Inside the packages
// that run under the simulation (engine, simnet, bitswap, dht, workload,
// replay, report, monitor) the only legal time source is the engine clock
// and the only legal randomness is a seeded stream (rand.New(rand.NewSource(
// seed)) or engine.Engine.NewRand).
//
// Deliberate wall-clock uses — self-timing instrumentation that feeds
// metrics, never simulation results — are annotated //bsvet:walltime.
package nowalltime

import (
	"go/ast"
	"go/types"

	"bitswapmon/tools/analyzers/internal/bsvetutil"
	"golang.org/x/tools/go/analysis"
)

// Analyzer is the nowalltime pass.
var Analyzer = &analysis.Analyzer{
	Name: "nowalltime",
	Doc:  "forbid wall-clock time and global math/rand in simulation-facing packages (suppress with //bsvet:walltime)",
	URL:  "bitswapmon/tools/analyzers/nowalltime",
	Run:  run,
}

// bannedTime is the wall-clock surface of package time. Pure conversions
// (time.Unix, time.Duration arithmetic, time.Date) are fine: they do not
// read the host clock.
var bannedTime = map[string]string{
	"Now":       "read of the host clock",
	"Since":     "read of the host clock",
	"Until":     "read of the host clock",
	"NewTimer":  "wall-clock timer",
	"NewTicker": "wall-clock timer",
	"After":     "wall-clock timer",
	"Tick":      "wall-clock timer",
	"AfterFunc": "wall-clock timer",
	"Sleep":     "wall-clock sleep",
}

// allowedRand lists the package-level functions of math/rand (and /v2) that
// construct explicitly seeded generators rather than drawing from the global
// source.
var allowedRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !bsvetutil.SimFacing(pass.Pkg.Path()) {
		return nil, nil
	}
	suppressed := bsvetutil.Suppressor(pass, "walltime")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := bsvetutil.PkgName(pass, sel.X)
			if pn == nil {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			if _, isFunc := obj.(*types.Func); !isFunc {
				// time.Time, rand.Rand, constants: all fine.
				return true
			}
			name := sel.Sel.Name
			switch pn.Imported().Path() {
			case "time":
				why, bad := bannedTime[name]
				if bad && !suppressed(sel.Pos()) {
					pass.Reportf(sel.Pos(),
						"time.%s is a %s; simulation-facing code must use the engine Clock (//bsvet:walltime to allow)",
						name, why)
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[name] && !suppressed(sel.Pos()) {
					pass.Reportf(sel.Pos(),
						"rand.%s draws from the process-global source; use a seeded stream (rand.New(rand.NewSource(seed)) or engine Rand) (//bsvet:walltime to allow)",
						name)
				}
			}
			return true
		})
	}
	return nil, nil
}
