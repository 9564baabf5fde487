package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunBenchmarkTrace(t *testing.T) {
	if err := run([]string{"trace", "-n", "10", "gzip"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", "-n", "10", "-skip", "500", "-stats-only", "mcf"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAsmFileTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.s")
	src := `
		.imm r1 4
	loop:
		subq r1, #1, r1
		bgt  r1, loop
		halt
	`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", "-n", "20", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCorruptFlag(t *testing.T) {
	if err := run([]string{"trace", "-n", "5", "-skip", "2000", "-corrupt", "r9:3", "gzip"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceErrors(t *testing.T) {
	if err := run([]string{"trace"}); err == nil {
		t.Error("trace without a program accepted")
	}
	if err := run([]string{"trace", "nosuchbench"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"trace", "/does/not/exist.s"}); err == nil {
		t.Error("missing file accepted")
	}
	for _, bad := range []string{"r9", "x9:3", "r99:3", "r9:77"} {
		if err := run([]string{"trace", "-corrupt", bad, "gzip"}); err == nil {
			t.Errorf("bad corrupt spec %q accepted", bad)
		}
	}
}

func TestParseCorrupt(t *testing.T) {
	r, bit, err := parseCorrupt("r10:45")
	if err != nil || r != 10 || bit != 45 {
		t.Errorf("parseCorrupt = %v %v %v", r, bit, err)
	}
}
