package main

import (
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaignio"
)

// The CLI's run() is exercised end-to-end with tiny campaigns; output goes
// to stdout, so these tests assert behaviour through error values and flag
// handling.

func tinyArgs(experiment string) []string {
	return []string{"-trials", "0.05", "-scale", "0.5", "-bench", "gzip", experiment}
}

func TestRunExperimentsSmoke(t *testing.T) {
	experiments := []string{
		"fig2", "fig4", "fig5", "fig6", "fig8", "summary", "compare",
		"ablate-ckpt", "vulnerability", "analyze",
		"protect", "protect-compare", "budget-sweep",
	}
	for _, exp := range experiments {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(tinyArgs(exp)); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
		})
	}
}

func TestRunFig7AndDemo(t *testing.T) {
	if err := run([]string{"-trials", "0.05", "-bench", "gzip", "fig7"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "gzip", "-interval", "200", "demo"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPerBenchAndCSV(t *testing.T) {
	if err := run([]string{"-trials", "0.05", "-scale", "0.5", "-bench", "gzip,mcf", "-perbench", "fig4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trials", "0.05", "-scale", "0.5", "-bench", "gzip", "-csv", "fig2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMetricsFlag(t *testing.T) {
	dir := t.TempDir()

	prom := filepath.Join(dir, "campaign.prom")
	args := append([]string{"-metrics", prom}, tinyArgs("fig4")...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE campaign_uarch_trials_total counter", "pipeline_rob_occupancy_bucket"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics file missing %q:\n%s", want, data)
		}
	}

	// The extension selects the format; .json must parse.
	jsonPath := filepath.Join(dir, "campaign.json")
	args = append([]string{"-metrics", jsonPath}, tinyArgs("fig4")...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if len(snap.Metrics) == 0 {
		t.Error("metrics JSON has no metrics")
	}

	// An unwritable path must surface as an error, not a silent run.
	args = append([]string{"-metrics", filepath.Join(dir, "no", "such", "dir.prom")}, tinyArgs("fig4")...)
	if err := run(args); err == nil || !strings.Contains(err.Error(), "metrics") {
		t.Errorf("unwritable metrics path: err = %v", err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything fn printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	collected := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		collected <- string(b)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-collected, ferr
}

// TestRunDurableResumeMatchesOneShot interrupts a durable CLI run with
// -stop-after, resumes it, and requires the resumed run to print exactly
// what a one-shot run prints, for a µarch (fig4) and a VM (fig2) campaign.
func TestRunDurableResumeMatchesOneShot(t *testing.T) {
	for _, exp := range []string{"fig4", "fig2"} {
		t.Run(exp, func(t *testing.T) {
			oneShot, err := captureStdout(t, func() error { return run(tinyArgs(exp)) })
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			durable := append([]string{"-out", dir, "-stop-after", "5"}, tinyArgs(exp)...)
			if _, err := captureStdout(t, func() error { return run(durable) }); err != nil {
				t.Fatalf("interrupted run must exit cleanly, got %v", err)
			}
			ids, err := campaignio.ListCampaigns(dir)
			if err != nil || len(ids) == 0 {
				t.Fatalf("interrupted run left no campaign directory (ids %v, err %v)", ids, err)
			}

			resumed, err := captureStdout(t, func() error {
				return run(append([]string{"-out", dir}, tinyArgs(exp)...))
			})
			if err != nil {
				t.Fatal(err)
			}
			if resumed != oneShot {
				t.Errorf("resumed output differs from one-shot:\n--- one-shot ---\n%s--- resumed ---\n%s", oneShot, resumed)
			}
		})
	}
}

// TestRunShardMergeRerun splits fig2 across two shard processes, merges their
// directories, and reruns from the merged directory: the rerun must print
// exactly what a one-shot run prints, without re-running any trial. -out
// works before and after the merge word, and both merges write the same
// bytes.
func TestRunShardMergeRerun(t *testing.T) {
	oneShot, err := captureStdout(t, func() error { return run(tinyArgs("fig2")) })
	if err != nil {
		t.Fatal(err)
	}

	s1, s2, merged, merged2 := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	for i, dir := range []string{s1, s2} {
		shard := []string{"-out", dir, "-shard", []string{"1/2", "2/2"}[i]}
		out, err := captureStdout(t, func() error { return run(append(shard, tinyArgs("fig2")...)) })
		if err != nil {
			t.Fatalf("shard %d: %v", i+1, err)
		}
		if !strings.Contains(out, "shard") {
			t.Errorf("shard run printed no completion notice:\n%s", out)
		}
	}
	if _, err := captureStdout(t, func() error {
		return run([]string{"-out", merged, "merge", s1, s2})
	}); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if _, err := captureStdout(t, func() error {
		return run([]string{"merge", "-out", merged2, s1, s2})
	}); err != nil {
		t.Fatalf("merge -out after the merge word: %v", err)
	}
	if a, b := readTree(t, merged), readTree(t, merged2); !reflect.DeepEqual(a, b) {
		t.Errorf("the two merge spellings wrote different trees: %d and %d files", len(a), len(b))
	}

	rerun, err := captureStdout(t, func() error {
		return run(append([]string{"-out", merged}, tinyArgs("fig2")...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rerun != oneShot {
		t.Errorf("merged rerun differs from one-shot:\n--- one-shot ---\n%s--- rerun ---\n%s", oneShot, rerun)
	}
}

// readTree returns every regular file under root, keyed by its path relative
// to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err == nil {
			files[rel], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestRunDurableFlagErrors(t *testing.T) {
	if err := run(append([]string{"-shard", "1/2"}, tinyArgs("fig2")...)); err == nil || !strings.Contains(err.Error(), "-out") {
		t.Errorf("-shard without -out: err = %v", err)
	}
	dir := t.TempDir()
	for _, bad := range []string{"0/2", "3/2", "2", "a/b", "1/2/3"} {
		if err := run(append([]string{"-out", dir, "-shard", bad}, tinyArgs("fig2")...)); err == nil {
			t.Errorf("-shard %q accepted", bad)
		}
	}
	args := append([]string{"-out", dir, "-shard", "1/2"}, tinyArgs("summary")...)
	if err := run(args); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Errorf("sharded summary: err = %v", err)
	}
	if err := run([]string{"merge", dir}); err == nil || !strings.Contains(err.Error(), "-out") {
		t.Errorf("merge without -out: err = %v", err)
	}
	if err := run([]string{"-out", t.TempDir(), "merge"}); err == nil {
		t.Error("merge without shard dirs accepted")
	}
	if err := run([]string{"-out", t.TempDir(), "merge", t.TempDir()}); err == nil || !strings.Contains(err.Error(), "no campaign directories") {
		t.Errorf("merge of empty root: err = %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing experiment accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment: %v", err)
	}
	if err := run([]string{"-bench", "quake", "fig2"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-badflag", "fig2"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-budgets", "12,x", "-bench", "gzip", "budget-sweep"}); err == nil ||
		!strings.Contains(err.Error(), "budgets") {
		t.Errorf("malformed -budgets: %v", err)
	}
	for _, name := range []string{"-trials", "-scale"} {
		if err := run([]string{name, "-1", "-bench", "gzip", "fig4"}); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("negative %s: %v", name, err)
		}
	}
	if err := run([]string{"fig2", "extra"}); err == nil {
		t.Error("operand after an experiment accepted")
	}
	// A tool runs no campaign: the flags that act on campaigns are refused,
	// before or after the tool's name, rather than ignored.
	dir := t.TempDir()
	for _, flags := range [][]string{
		{"-metrics", filepath.Join(dir, "m.prom")},
		{"-shard", "1/2"},
		{"-stop-after", "3"},
		{"-progress"},
		{"-pprof", "localhost:0"},
	} {
		for _, tool := range [][]string{
			{"-n", "5", "trace", "gzip"},
			{"-out", dir, "merge", dir},
			{"ckpt", "inspect", filepath.Join(dir, "none.golden")},
			{"-root", dir, "jobs"},
		} {
			args := append(append([]string{}, flags...), tool...)
			if err := run(args); err == nil || !strings.Contains(err.Error(), flags[0]) {
				t.Errorf("run(%q) = %v, want an error naming %s", args, err, flags[0])
			}
		}
		args := append(append([]string{"trace"}, flags...), "-n", "5", "gzip")
		if err := run(args); err == nil || !strings.Contains(err.Error(), flags[0]) {
			t.Errorf("run(%q) = %v, want an error naming %s", args, err, flags[0])
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "m.prom")); !os.IsNotExist(err) {
		t.Errorf("a refused -metrics wrote its file (stat: %v)", err)
	}
}

// TestRunGoldenImageAndInspect runs a tiny fig4 campaign with -golden-image,
// reruns it from the saved image (outputs must match byte-for-byte), and
// inspects the image with the ckpt subcommand. fig2 under -golden-image
// writes no image.
func TestRunGoldenImageAndInspect(t *testing.T) {
	root := t.TempDir()
	if _, err := captureStdout(t, func() error {
		return run(append([]string{"-golden-image", root}, tinyArgs("fig2")...))
	}); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
		t.Fatalf("fig2 left %d entries in the golden-image directory (err %v), want none", len(entries), err)
	}

	oneShot, err := captureStdout(t, func() error { return run(tinyArgs("fig4")) })
	if err != nil {
		t.Fatal(err)
	}
	warm, err := captureStdout(t, func() error {
		return run(append([]string{"-golden-image", root}, tinyArgs("fig4")...))
	})
	if err != nil {
		t.Fatal(err)
	}
	images, err := filepath.Glob(filepath.Join(root, "*.golden"))
	if err != nil || len(images) != 1 {
		t.Fatalf("golden images = %v (err %v), want exactly 1", images, err)
	}
	restored, err := captureStdout(t, func() error {
		return run(append([]string{"-golden-image", root}, tinyArgs("fig4")...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm != oneShot || restored != oneShot {
		t.Errorf("golden-image runs diverged from plain run:\n--- plain ---\n%s--- warm ---\n%s--- restored ---\n%s",
			oneShot, warm, restored)
	}

	out, err := captureStdout(t, func() error {
		return run([]string{"ckpt", "inspect", images[0]})
	})
	if err != nil {
		t.Fatalf("ckpt inspect: %v", err)
	}
	for _, want := range []string{"frames", "flate", "meta: uarch|bench=gzip"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}

	// Usage and open errors must surface.
	if err := run([]string{"ckpt", "inspect"}); err == nil {
		t.Error("ckpt inspect without a path accepted")
	}
	if err := run([]string{"ckpt", "frobnicate", images[0]}); err == nil {
		t.Error("unknown ckpt verb accepted")
	}
	if err := run([]string{"ckpt", "inspect", filepath.Join(root, "absent.golden")}); err == nil {
		t.Error("inspect of a missing file succeeded")
	}
}
