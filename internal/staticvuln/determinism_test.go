package staticvuln

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/workload"
)

// diffAt reports the first byte offset where two serializations diverge,
// with a little context, so a determinism break points at the culprit
// section instead of dumping two multi-megabyte blobs.
func diffAt(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first divergence at byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d bytes", len(a), len(b))
}

// The serialized report must be byte-identical across repeated analyses.
// Each iteration re-generates the program and re-runs the full analysis, so
// fresh allocations reshuffle map iteration order and any map-order
// dependence in the analysis or the serializer shows up as a byte diff.
func TestReportSerializationDeterministic(t *testing.T) {
	for _, b := range workload.Benchmarks() {
		var first []byte
		var firstRender string
		for i := 0; i < 4; i++ {
			prog := workload.MustGenerate(b, workload.Config{Seed: 11, Scale: 0.25})
			rep, err := Analyze(prog)
			if err != nil {
				t.Fatalf("%s: %v", b, err)
			}
			got, err := rep.Serialize(false)
			if err != nil {
				t.Fatalf("%s: serialize: %v", b, err)
			}
			render := rep.Render(false)
			if i == 0 {
				first, firstRender = got, render
				continue
			}
			if !bytes.Equal(got, first) {
				t.Fatalf("%s: serialization differs on analysis %d: %s", b, i, diffAt(first, got))
			}
			if render != firstRender {
				t.Errorf("%s: rendered report differs on analysis %d", b, i)
			}
		}
	}
}

// Serialization of a synthetic report hits every field, so drift in the
// canonical format is a reviewed change instead of an accident.
func TestSerializeCanonicalForm(t *testing.T) {
	rep := &Report{
		Program: "synthetic",
		Insts: []InstReport{{
			Index: 3, PC: 0x40, Dest: 5, HasDest: true, Weight: 2,
			Exception: 1, CFV: 2, Mem: 4, Register: 8, Latency: 9,
		}},
	}
	got, err := rep.Serialize(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"program": "synthetic"`, `"masked_fraction"`, `"symptom_fractions"`,
		`"symptom": "exception"`, `"per_register_avf"`, `"insts"`,
		`"pc": 64`, `"exception_mask": 1`, `"latency": 9`,
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("canonical serialization missing %s\ngot: %s", want, got)
		}
	}
}
