package trace

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/pipeline"
)

func testPipeline(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	prog := asm.MustAssemble("t", `
		.data buf 128
		.base r10 buf
		.imm  r1 3
	loop:
		addq r2, r1, r2
		stq  r2, 0(r10)
		subq r1, #1, r1
		bgt  r1, loop
		halt
	`)
	m, err := prog.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWriterTracesCommits(t *testing.T) {
	p := testPipeline(t)
	var sb strings.Builder
	tw := NewWriter(&sb, 0)
	p.CommitHook = tw.Commit
	p.RunCycles(10_000)

	out := sb.String()
	if tw.Count() == 0 {
		t.Fatal("no events traced")
	}
	for _, want := range []string{"addq", "stq", "bgt", "halt", "taken", "r2="} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "[0x") {
		t.Errorf("store annotation missing:\n%s", out)
	}
}

func TestWriterRespectsBound(t *testing.T) {
	p := testPipeline(t)
	var sb strings.Builder
	tw := NewWriter(&sb, 3)
	p.CommitHook = tw.Commit
	p.RunCycles(10_000)
	if tw.Count() != 3 {
		t.Errorf("count = %d, want 3", tw.Count())
	}
	if !tw.Done() {
		t.Error("writer should report done")
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 3 {
		t.Errorf("lines = %d", lines)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestWriterSurfacesErrors(t *testing.T) {
	p := testPipeline(t)
	tw := NewWriter(&failWriter{}, 0)
	p.CommitHook = tw.Commit
	p.RunCycles(10_000)
	if tw.Err() == nil {
		t.Error("write error not surfaced")
	}
}

func TestSummary(t *testing.T) {
	p := testPipeline(t)
	p.RunCycles(10_000)
	var sb strings.Builder
	if err := Summary(&sb, p.Stats()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"cycles", "retired", "IPC", "mispredicts"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if err := Summary(&failWriter{n: 99}, p.Stats()); err == nil {
		t.Error("summary should surface write errors")
	}
}
