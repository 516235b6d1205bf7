package suite_test

import (
	"path/filepath"
	"testing"

	"ssync/internal/analysis"
	"ssync/internal/analysis/suite"
)

// benchmarkEnv is the Go environment benchmark/run.sh builds under: the
// nested module resolves ssync through its `replace => ../` and nothing
// else, so it must load without a network, a toolchain download or a
// go.sum.
var benchmarkEnv = map[string]string{"GOFLAGS": "-mod=mod", "GOPROXY": "off", "GOTOOLCHAIN": "local"}

// TestLintClean runs the whole analyzer suite over the module, the same
// gate CI's lint leg applies: the tree must carry zero unblessed
// findings. A failure here means either a real invariant violation or
// an exception that needs an //ssync:ignore with its justification.
//
// The second root is the benchmark/ module, which `go build ./...` and
// `go test ./...` at the repository root never see. Loading compiles it
// against today's internal/ packages, so an API change that breaks the
// benchmark fails here and not at the next benchmark run. To see it
// bite: rename an exported symbol the benchmark uses (store.Driver,
// say) and run this test — it fails naming ssync/benchmark.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := analysis.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, dir string
		env       map[string]string
	}{
		{"module", root, nil},
		{"benchmark", filepath.Join(root, "benchmark"), benchmarkEnv},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for k, v := range tc.env {
				t.Setenv(k, v)
			}
			pkgs, err := analysis.Load(tc.dir, "./...")
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) == 0 {
				t.Fatalf("no packages loaded from %s", tc.dir)
			}
			diags, err := analysis.RunAnalyzers(pkgs, suite.Analyzers())
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				p := d.Position(pkgs[0].Fset)
				t.Errorf("%s:%d:%d: %s: %s", p.Filename, p.Line, p.Column, d.Analyzer, d.Message)
			}
		})
	}
}
