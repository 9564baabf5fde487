package inject

import (
	"reflect"
	"slices"
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
		// The points share one golden log: the recorder simulates each
		// cycle of the union of the points' spans (P, P + W + W/4] once.
		w := cfg.WindowCycles
		if got, want := reg.Counter("campaign_uarch_golden_cycles_total").Value(), spanUnion(instrumented.Trials, w+w/4); got != want {
			t.Errorf("golden_cycles_total = %d, want %d", got, want)
		}
		// It hashes only the cycles of the union of the windows [P, P + W],
		// the digests a view reads. [P, P + W] holds the same number of
		// cycles as (P - 1, P + W], so the union is spanUnion's at W + 1.
		if got, want := reg.Counter("campaign_uarch_golden_digests_total").Value(), spanUnion(instrumented.Trials, w+1); got != want {
			t.Errorf("golden_digests_total = %d, want %d", got, want)
		}
		// The master pipeline carries the instrumentation through warm-up
		// and the walk between points, so the occupancy histograms must be
		// live.
		if m, ok := reg.Snapshot().Get("pipeline_rob_occupancy"); !ok || m.Count == 0 {
			t.Error("pipeline occupancy histogram empty on instrumented campaign")
		}
		// The work counts are deterministic: a parallel run simulates the
		// same faulty cycles and resolves the same trials from the golden
		// log as a serial one.
		par := obs.NewRegistry()
		cfg.Obs, cfg.Workers = par, 4
		if _, err := RunUArch(cfg); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"campaign_uarch_trial_cycles_total", "campaign_uarch_resolved_trials_total"} {
			serial, parallel := reg.Counter(name).Value(), par.Counter(name).Value()
			if serial <= 0 || serial != parallel {
				t.Errorf("%s = %d serial, %d at 4 workers; want equal and above 0", name, serial, parallel)
			}
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

// spanUnion counts the cycles in the union of (P, P+span] over the distinct
// PointCycle values P of trials.
func spanUnion(trials []UArchTrial, span uint64) int64 {
	var points []uint64
	for _, t := range trials {
		points = append(points, t.PointCycle)
	}
	slices.Sort(points)
	points = slices.Compact(points)
	var n uint64
	for i, p := range points {
		if i+1 < len(points) {
			n += min(span, points[i+1]-p)
		} else {
			n += span
		}
	}
	return int64(n)
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

// A campaign additionally accounts for its fork pool and the task queue, at
// every worker count. Every trial either takes a fork from the pool (a
// pipeline clone, or a VM memory image) or is resolved from the golden log,
// the worker-busy timer covers exactly the simulated ones, and the queue
// sees those submitted to workers.
func TestParallelCampaignPoolAccounting(t *testing.T) {
	uarch := func(workers int, sink obs.Sink) (int, error) {
		cfg := smallUArch(workload.Gzip)
		cfg.Workers, cfg.Obs = workers, sink
		r, err := RunUArch(cfg)
		if err != nil {
			return 0, err
		}
		return len(r.Trials), nil
	}
	vm := func(workers int, sink obs.Sink) (int, error) {
		cfg := smallVM(workload.Gzip, false)
		cfg.Workers, cfg.Obs = workers, sink
		r, err := RunVM(cfg)
		if err != nil {
			return 0, err
		}
		return len(r.Trials), nil
	}
	for _, tc := range []struct {
		prefix, pool string
		workers      int
		run          func(int, obs.Sink) (int, error)
	}{
		{"campaign_uarch", "_clone_pool", 4, uarch},
		{"campaign_vm", "_mem_pool", 0, vm},
		{"campaign_vm", "_mem_pool", 2, vm},
	} {
		reg := obs.NewRegistry()
		n, err := tc.run(tc.workers, reg)
		if err != nil {
			t.Fatal(err)
		}
		trials := int64(n)
		hits := reg.Counter(tc.prefix + tc.pool + "_hits_total").Value()
		misses := reg.Counter(tc.prefix + tc.pool + "_misses_total").Value()
		resolved := reg.Counter(tc.prefix + "_resolved_trials_total").Value()
		if hits+misses+resolved != trials {
			t.Errorf("%s workers=%d: pool hits(%d)+misses(%d)+resolved(%d) = %d, want %d trials",
				tc.prefix, tc.workers, hits, misses, resolved, hits+misses+resolved, trials)
		}
		if misses == 0 {
			t.Errorf("%s workers=%d: a fresh pool cannot start with zero misses", tc.prefix, tc.workers)
		}
		simulated, queued := trials-resolved, int64(0)
		if tc.workers > 1 {
			queued = simulated
		}
		if got := reg.Timer(tc.prefix + "_worker_busy").Count(); got != simulated {
			t.Errorf("%s workers=%d: worker_busy count = %d, want %d simulated trials", tc.prefix, tc.workers, got, simulated)
		}
		if got := reg.Hist(tc.prefix + "_queue_depth").Count(); got != queued {
			t.Errorf("%s workers=%d: queue_depth observations = %d, want %d", tc.prefix, tc.workers, got, queued)
		}
	}
}
