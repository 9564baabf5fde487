package service

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// submitSeeds are the job specs the submission tests send: TestHTTPErrors'
// raw bodies and TestSubmitValidation's rejected specs, plus a valid one.
func submitSeeds(f *testing.F) []string {
	seeds := []string{
		`{"experiment":"fig2","trails":0.5}`,
		`{"experiment":"fig2","compress_journal":true}`,
		`{"experiment":"nope"}`,
	}
	for _, spec := range []JobSpec{
		tinySpec("gzip"),
		{Experiment: "fig8"},
		{Experiment: "fig2", Shards: 1000},
		{Experiment: "fig2", Benchmarks: []string{"spice"}},
		{Experiment: "fig2", Workers: -2},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(b))
	}
	return seeds
}

// FuzzDecodeSpec feeds arbitrary request bodies to the daemon's job-spec
// decoder. It must not panic, and a spec it accepts goes through normalize
// and Validate, as Submit runs them, which must return normally too.
func FuzzDecodeSpec(f *testing.F) {
	valid, err := json.Marshal(tinySpec("gzip"))
	if err != nil {
		f.Fatal(err)
	}
	v := string(valid)
	seeds := append(submitSeeds(f), v+v, v+" ", v[:len(v)-1])
	for _, seed := range seeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec.normalize()
		_ = spec.Validate()
	})
}

// FuzzLoadJob feeds arbitrary job.json bytes to the store's loader. It must
// not panic; a record it accepts names the job it was loaded for, and its
// spec goes through normalize and Validate, which must return normally too.
// The seeds are TestStoreLoadsRetiredSpecFields' record, a saved job for each
// submission seed, and damaged records.
func FuzzLoadJob(f *testing.F) {
	const id = "job-000001"
	f.Add([]byte(`{"id":"job-000001","spec":{"experiment":"fig2","shards":2,"compress_journal":true},"state":"queued"}`))
	f.Add([]byte(`{"id":"job-000002","spec":{"experiment":"fig2"},"state":"queued"}`))
	f.Add([]byte(`{"id":"job-000001","spec":`))
	for _, seed := range submitSeeds(f) {
		f.Add([]byte(`{"id":"job-000001","spec":` + seed + `,"state":"running","submitted":"2024-01-02T03:04:05Z"}`))
	}
	st, err := newStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := os.MkdirAll(st.jobDir(id), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(st.jobFile(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := st.loadJob(id)
		if err != nil {
			return
		}
		if j.ID != id {
			t.Fatalf("loaded job %q for %q", j.ID, id)
		}
		j.Spec.normalize()
		_ = j.Spec.Validate()
	})
}
