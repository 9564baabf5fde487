package inject

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestProgressContract pins Exec.Progress for both campaigns: every trial
// slot the run owns ticks exactly once — slots recovered from the journal
// included — so the final tick reports done == total == the owned slot
// count, at any worker count, one-shot, as one shard of two, or resuming a
// journal that is already complete. Throughput meters (the campaign
// service, the benchmark's trials/s) count these ticks.
func TestProgressContract(t *testing.T) {
	campaigns := []struct {
		name  string
		slots int
		run   func(Exec) error
	}{
		{"uarch", 30, func(x Exec) error {
			cfg := resumeUArch(workload.Gzip)
			cfg.Exec = x
			_, err := RunUArch(cfg)
			return err
		}},
		{"vm", 60, func(x Exec) error {
			cfg := resumeVM(workload.Gzip)
			cfg.Exec = x
			_, err := RunVM(cfg)
			return err
		}},
	}
	for _, c := range campaigns {
		for _, workers := range []int{0, 4} {
			for _, mode := range []string{"one-shot", "shard-1-of-2", "resume-complete"} {
				c, workers, mode := c, workers, mode
				t.Run(fmt.Sprintf("%s/workers%d/%s", c.name, workers, mode), func(t *testing.T) {
					t.Parallel()
					x := Exec{Workers: workers}
					owned := c.slots
					switch mode {
					case "shard-1-of-2":
						x.ResumeFrom = t.TempDir()
						x.ShardIndex, x.ShardCount = 1, 2
						owned = c.slots / 2
					case "resume-complete":
						x.ResumeFrom = t.TempDir()
						if err := c.run(x); err != nil {
							t.Fatal(err)
						}
					}
					var mu sync.Mutex
					ticks := map[int]int{}   // done value -> times reported
					totals := map[int]bool{} // every total reported
					x.Progress = func(done, total int) {
						mu.Lock()
						ticks[done]++
						totals[total] = true
						mu.Unlock()
					}
					if err := c.run(x); err != nil {
						t.Fatal(err)
					}
					if len(ticks) != owned {
						t.Errorf("%d distinct ticks, want %d owned slots", len(ticks), owned)
					}
					for done := 1; done <= owned; done++ {
						if ticks[done] != 1 {
							t.Errorf("done=%d reported %d times, want once", done, ticks[done])
						}
					}
					if len(totals) != 1 || !totals[owned] {
						t.Errorf("totals reported %v, want only %d", totals, owned)
					}
				})
			}
		}
	}
}
