package inject

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// The inertness contract: attaching an obs sink must not change campaign
// results in any way — same trials, bit for bit — while the registry ends up
// with accounting that matches the result exactly.

func TestCampaignMetricsInert(t *testing.T) {
	t.Run("uarch", func(t *testing.T) {
		bare, err := RunUArch(smallUArch(workload.Gzip))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		cfg := smallUArch(workload.Gzip)
		cfg.Obs = reg
		instrumented, err := RunUArch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare.Trials, instrumented.Trials) {
			t.Fatal("uarch trials differ with a sink attached")
		}
		assertCampaignAccounting(t, reg, "campaign_uarch", len(instrumented.Trials))
		if got := reg.Counter("campaign_uarch_points_total").Value(); got != int64(cfg.Points) {
			t.Errorf("points_total = %d, want %d", got, cfg.Points)
		}
		// Every point records its own golden window plus 25% slack.
		w := cfg.WindowCycles
		if got, want := reg.Counter("campaign_uarch_golden_cycles_total").Value(), int64(uint64(cfg.Points)*(w+w/4)); got != want {
			t.Errorf("golden_cycles_total = %d, want %d", got, want)
		}
		// The master pipeline carries the instrumentation through warm-up
		// and golden recording, so the occupancy histograms must be live.
		if m, ok := reg.Snapshot().Get("pipeline_rob_occupancy"); !ok || m.Count == 0 {
			t.Error("pipeline occupancy histogram empty on instrumented campaign")
		}
	})

	t.Run("vm", func(t *testing.T) {
		bare, err := RunVM(smallVM(workload.Gzip, false))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		cfg := smallVM(workload.Gzip, false)
		cfg.Obs = reg
		instrumented, err := RunVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare.Trials, instrumented.Trials) {
			t.Fatal("vm trials differ with a sink attached")
		}
		assertCampaignAccounting(t, reg, "campaign_vm", len(instrumented.Trials))
		if got := reg.Counter("campaign_vm_points_total").Value(); got != int64(cfg.Points) {
			t.Errorf("points_total = %d, want %d", got, cfg.Points)
		}
		// The points share one golden log: the recorder steps about
		// Spread + Window instructions, not a Window per point.
		limit := int64(uint64(cfg.Points) * cfg.Window / 4)
		if got := reg.Counter("campaign_vm_golden_insts_total").Value(); got <= 0 || got >= limit {
			t.Errorf("golden_insts_total = %d, want in (0, %d)", got, limit)
		}
	})
}

// assertCampaignAccounting checks the invariants every finished campaign's
// telemetry must satisfy: the trial counter matches the result, the
// per-outcome counters partition it, and the wall timer ran exactly once.
func assertCampaignAccounting(t *testing.T, reg *obs.Registry, prefix string, trials int) {
	t.Helper()
	if got := reg.Counter(prefix + "_trials_total").Value(); got != int64(trials) {
		t.Errorf("%s_trials_total = %d, want %d", prefix, got, trials)
	}
	var outcomes int64
	for _, m := range reg.Snapshot().Metrics {
		if strings.HasPrefix(m.Name, prefix+"_outcome_") {
			outcomes += int64(m.Value)
		}
	}
	if outcomes != int64(trials) {
		t.Errorf("%s outcome counters sum to %d, want %d", prefix, outcomes, trials)
	}
	if got := reg.Timer(prefix + "_wall").Count(); got != 1 {
		t.Errorf("%s_wall timer count = %d, want 1", prefix, got)
	}
	if reg.Gauge(prefix+"_trials_per_second").Value() <= 0 {
		t.Errorf("%s_trials_per_second not recorded", prefix)
	}
	if got := reg.Counter(prefix + "_truncated_total").Value(); got != 0 {
		t.Errorf("%s_truncated_total = %d on a complete campaign", prefix, got)
	}
}

// A parallel campaign additionally accounts for the clone pool and the task
// queue; the worker-busy timer must cover every trial.
func TestParallelCampaignPoolAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallUArch(workload.Gzip)
	cfg.Workers = 4
	cfg.Obs = reg
	r, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trials := int64(len(r.Trials))
	hits := reg.Counter("campaign_uarch_clone_pool_hits_total").Value()
	misses := reg.Counter("campaign_uarch_clone_pool_misses_total").Value()
	if hits+misses != trials {
		t.Errorf("pool hits(%d)+misses(%d) = %d, want %d trials", hits, misses, hits+misses, trials)
	}
	if misses == 0 {
		t.Error("a fresh pool cannot start with zero misses")
	}
	if got := reg.Timer("campaign_uarch_worker_busy").Count(); got != trials {
		t.Errorf("worker_busy count = %d, want %d", got, trials)
	}
	if reg.Hist("campaign_uarch_queue_depth").Count() != trials {
		t.Errorf("queue_depth observations = %d, want %d",
			reg.Hist("campaign_uarch_queue_depth").Count(), trials)
	}
}
