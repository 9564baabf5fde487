package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestStaticPathGolden pins the stdout of the static path — analyze (the
// staticvuln analysis) and protect (analysis, pipeline residency profile,
// ranking and budgeted placement) — of `all`, which runs every paper figure
// and table in order on tiny campaigns, and of trace on a small fixed
// program (commit trace, stop banner and statistics block). Each is a
// deterministic function of its flags, so any diff is either a deliberate
// change (rerun with -update) or a regression in the analysis, the pipeline,
// the campaigns or the ranking.
func TestStaticPathGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"analyze", []string{"-seed", "7", "-scale", "0.25", "-bench", "gzip", "analyze"}},
		{"protect", []string{"-seed", "7", "-scale", "0.25", "-bench", "gzip", "protect"}},
		{"all", []string{"-trials", "0.05", "-scale", "0.5", "-bench", "gzip", "all"}},
		{"countdown", []string{"-n", "30", "trace", filepath.Join("testdata", "countdown.s")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := captureStdout(t, func() error { return run(tc.args) })
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
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
				t.Errorf("%s output diverged from %s.\n--- got ---\n%s\n--- want ---\n%s", tc.name, path, got, want)
			}
		})
	}
}
