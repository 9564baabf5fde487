package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestStaticPathGolden pins the stdout of the static path: analyze (the
// staticvuln analysis) and protect (analysis, pipeline residency profile,
// ranking and budgeted placement) on one small program. Both are
// deterministic functions of the seed and scale, so any diff is either a
// deliberate change (rerun with -update) or a regression in the analysis,
// the pipeline or the ranking.
func TestStaticPathGolden(t *testing.T) {
	for _, exp := range []string{"analyze", "protect"} {
		t.Run(exp, func(t *testing.T) {
			got, err := captureStdout(t, func() error {
				return run([]string{"-seed", "7", "-scale", "0.25", "-bench", "gzip", exp})
			})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", exp+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output diverged from %s.\n--- got ---\n%s\n--- want ---\n%s", exp, path, got, want)
			}
		})
	}
}
