package inject

import (
	"testing"

	"repro/internal/workload"
)

// The decode cache and the early-exit trial loop are pure speedups: each is
// independently toggleable from in-package tests, and campaign results must
// be byte-identical whichever combination is enabled, at any worker count.
// These tests pin that contract across the whole benchmark suite — they are
// the reason the toggles exist.

func sameUArchTrials(t *testing.T, name string, base, got *UArchResult) {
	t.Helper()
	if len(base.Trials) != len(got.Trials) {
		t.Fatalf("%s: trial counts differ: base=%d got=%d", name, len(base.Trials), len(got.Trials))
	}
	for i := range base.Trials {
		if base.Trials[i] != got.Trials[i] {
			t.Fatalf("%s: trial %d differs:\nbase: %+v\ngot:  %+v",
				name, i, base.Trials[i], got.Trials[i])
		}
	}
	if base.TotalBits != got.TotalBits || base.LatchBits != got.LatchBits {
		t.Errorf("%s: state-space sizes differ", name)
	}
}

func sameVMTrials(t *testing.T, name string, base, got *VMResult) {
	t.Helper()
	if len(base.Trials) != len(got.Trials) {
		t.Fatalf("%s: trial counts differ: base=%d got=%d", name, len(base.Trials), len(got.Trials))
	}
	for i := range base.Trials {
		if base.Trials[i] != got.Trials[i] {
			t.Fatalf("%s: trial %d differs:\nbase: %+v\ngot:  %+v",
				name, i, base.Trials[i], got.Trials[i])
		}
	}
}

func TestUArchSpeedupTogglesAreInert(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			base, err := RunUArch(smallUArch(bench))
			if err != nil {
				t.Fatal(err)
			}
			variants := []struct {
				name string
				mut  func(*UArchConfig)
			}{
				{"no-decode-cache", func(c *UArchConfig) { c.noDecodeCache = true }},
				{"no-early-exit", func(c *UArchConfig) { c.noEarlyExit = true }},
				{"all-off-parallel4", func(c *UArchConfig) {
					c.noDecodeCache, c.noEarlyExit = true, true
					c.Workers = 4
				}},
			}
			for _, v := range variants {
				cfg := smallUArch(bench)
				v.mut(&cfg)
				got, err := RunUArch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameUArchTrials(t, v.name, base, got)
			}
		})
	}
}

func TestVMSpeedupTogglesAreInert(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			base, err := RunVM(smallVM(bench, false))
			if err != nil {
				t.Fatal(err)
			}
			variants := []struct {
				name string
				mut  func(*VMConfig)
			}{
				{"no-decode-cache", func(c *VMConfig) { c.noDecodeCache = true }},
				{"no-early-exit", func(c *VMConfig) { c.noEarlyExit = true }},
				{"all-off-parallel4", func(c *VMConfig) {
					c.noDecodeCache, c.noEarlyExit = true, true
					c.Workers = 4
				}},
			}
			for _, v := range variants {
				cfg := smallVM(bench, false)
				v.mut(&cfg)
				got, err := RunVM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameVMTrials(t, v.name, base, got)
			}
		})
	}
}
