package lint

import (
	"go/ast"
	"path/filepath"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// RawGoroutineAnalyzer flags `go` statements in the mining packages
// outside the sanctioned concurrency primitives. All parallelism in the
// miner is supposed to flow through the worker-pool helpers
// (internal/parallel's For, the Phase I lane pipeline in
// internal/core/parallel.go and the clique fan-out in internal/graph):
// those merge per-task results in task order, which is what makes the
// output bit-identical at any worker count. A goroutine spawned anywhere
// else has no such merge discipline and is exactly how ordering and data
// races sneak in. internal/parallel is a leaf package so that
// internal/relation, which internal/core imports, can fan out its
// chunked CSV scan through the same helper.
//
// internal/server is also sanctioned: a serving layer legitimately
// spawns goroutines that never touch mining results — singleflight
// executions raced against request deadlines — and its determinism is
// covered instead by the served-vs-CLI differential tests. So is
// internal/storage: the segment store's single-writer WAL goroutine
// and background compactor are the concurrency design (all mutation
// serialises through one owner), and the crash/differential suite
// covers their correctness.
//
// Sanctioned locations are configured with -sanction, a comma-separated
// list of package-path suffixes ("internal/graph") or file suffixes
// ("internal/core/parallel.go"). One-off intentional goroutines can be
// annotated `//lint:allow rawgoroutine`.
var RawGoroutineAnalyzer = &analysis.Analyzer{
	Name:     "rawgoroutine",
	Doc:      "flags goroutines spawned outside the sanctioned worker-pool helpers",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runRawGoroutine,
}

var (
	rawGoroutineScope    string
	rawGoroutineSanction string
)

func init() {
	RawGoroutineAnalyzer.Flags.StringVar(&rawGoroutineScope, "scope",
		`(^|/)internal/`,
		"regexp of package import paths the analyzer applies to")
	RawGoroutineAnalyzer.Flags.StringVar(&rawGoroutineSanction, "sanction",
		"internal/parallel,internal/core/parallel.go,internal/graph,internal/server,internal/storage,internal/cluster",
		"comma-separated package or file suffixes where goroutines are sanctioned")
}

func runRawGoroutine(pass *analysis.Pass) (interface{}, error) {
	if !compileScope(rawGoroutineScope)(pkgPath(pass)) {
		return nil, nil
	}
	sanctions := strings.Split(rawGoroutineSanction, ",")

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := newDirectives(pass)

	ins.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		gs := n.(*ast.GoStmt)
		if isTestFile(pass, gs.Pos()) || isSanctioned(pass, sanctions, gs) {
			return
		}
		report(pass, dirs, "rawgoroutine", gs.Pos(),
			"raw goroutine outside the sanctioned worker pools; route the fan-out through parallelFor (internal/core/parallel.go) so results merge in task order")
	})
	return nil, nil
}

// isSanctioned matches the goroutine's location against the sanction
// list: an entry ending in ".go" must suffix-match pkgpath/filename,
// any other entry must suffix-match the package path.
func isSanctioned(pass *analysis.Pass, sanctions []string, gs *ast.GoStmt) bool {
	pkg := pkgPath(pass)
	file := pkg + "/" + filepath.Base(pass.Fset.Position(gs.Pos()).Filename)
	for _, s := range sanctions {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if strings.HasSuffix(s, ".go") {
			if strings.HasSuffix(file, s) {
				return true
			}
		} else if pkg == s || strings.HasSuffix(pkg, "/"+s) || strings.HasSuffix(pkg, s) {
			return true
		}
	}
	return false
}
