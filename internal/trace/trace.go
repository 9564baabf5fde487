// Package trace renders pipeline execution as human-readable commit traces
// and summary statistics. It backs `restore-sim trace` and is useful
// anywhere a run needs to be inspected instruction by instruction — for
// example when diagnosing how an injected fault propagated.
package trace

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/pipeline"
)

// Writer streams commit events as formatted trace lines.
type Writer struct {
	w     io.Writer
	limit uint64
	count uint64
	err   error
}

// NewWriter returns a trace writer that traces at most limit commits (0 = no
// bound).
func NewWriter(w io.Writer, limit uint64) *Writer {
	return &Writer{w: w, limit: limit}
}

// Count returns the number of events written.
func (t *Writer) Count() uint64 { return t.count }

// Err returns the first write error, if any.
func (t *Writer) Err() error { return t.err }

// Done reports whether the instruction bound has been reached.
func (t *Writer) Done() bool {
	return t.limit > 0 && t.count >= t.limit
}

// Commit formats one commit event. Wire it to pipeline.CommitHook.
func (t *Writer) Commit(ev pipeline.CommitEvent) {
	if t.err != nil || t.Done() {
		return
	}
	t.count++
	line := FormatEvent(ev)
	if _, err := io.WriteString(t.w, line+"\n"); err != nil {
		t.err = err
	}
}

// FormatEvent renders a single commit event as one line, annotating a
// register writeback with the destination value, a store with its address
// and value, and a branch with its direction and target.
func FormatEvent(ev pipeline.CommitEvent) string {
	line := fmt.Sprintf("%10d  %#010x  %-24s", ev.Index, ev.PC, ev.Inst)
	switch {
	case ev.Exception != arch.ExcNone:
		line += fmt.Sprintf("  !! %v at %#x", ev.Exception, ev.ExcAddr)
	case ev.Halted:
		line += "  << halt"
	default:
		if ev.HasDest {
			line += fmt.Sprintf("  %s=%#x", ev.DestArch, ev.DestVal)
		}
		if ev.IsStore {
			line += fmt.Sprintf("  [%#x]=%#x", ev.MemAddr, ev.StoreVal)
		}
		if ev.IsBranch {
			dir := "not-taken"
			if ev.Taken {
				dir = fmt.Sprintf("taken -> %#x", ev.Target)
			}
			line += "  " + dir
		}
	}
	return line
}

// Summary renders run statistics in a compact block.
func Summary(w io.Writer, s pipeline.Stats) error {
	rows := []struct {
		name  string
		value string
	}{
		{"cycles", fmt.Sprint(s.Cycles)},
		{"retired", fmt.Sprint(s.Retired)},
		{"IPC", fmt.Sprintf("%.3f", s.IPC())},
		{"branches", fmt.Sprint(s.Branches)},
		{"cond mispredicts", fmt.Sprintf("%d (%.2f%%)", s.CommittedCondMispredicts,
			pct(s.CommittedCondMispredicts, s.CondBranches))},
		{"HC mispredicts", fmt.Sprint(s.HCMispredicts)},
		{"flushes", fmt.Sprint(s.Flushes)},
		{"loads issued", fmt.Sprint(s.LoadsIssued)},
		{"stores retired", fmt.Sprint(s.StoresRetired)},
		{"I$/D$ misses", fmt.Sprintf("%d / %d", s.ICacheMisses, s.DCacheMisses)},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-18s %s\n", r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}
