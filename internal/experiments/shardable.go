package experiments

import (
	"fmt"
	"strings"
)

// The shardable experiments are the raw injection campaigns: their trial
// plans are pre-drawn, so slots split across shards and the journals merge
// back into the one-shot result. Derived experiments (fig8, summary, ...)
// need the full trial set and are produced from the merged directory
// instead. This table is the single registry shared by the CLI's -shard
// mode and the campaign service's job runner.
var shardableRuns = []struct {
	name string
	run  func(Options) error
}{
	{"fig2", func(o Options) error { _, err := Fig2(o, false); return err }},
	{"fig2-low32", func(o Options) error { _, err := Fig2(o, true); return err }},
	// fig4, fig5 and fig5-perfect reclassify the same unhardened campaign,
	// so their journals are one and the same.
	{"fig4", uarchRun(CampaignConfig{})},
	{"fig5", uarchRun(CampaignConfig{})},
	{"fig5-perfect", uarchRun(CampaignConfig{})},
	{"fig4-latches", uarchRun(CampaignConfig{LatchesOnly: true})},
	{"fig6", uarchRun(CampaignConfig{Hardened: true})},
}

// uarchRun runs the microarchitectural campaign cc.
func uarchRun(cc CampaignConfig) func(Options) error {
	return func(o Options) error { _, err := Campaign(o, cc); return err }
}

// ShardableExperiments lists the experiment names RunShardable accepts, in
// display order.
func ShardableExperiments() []string {
	names := make([]string, len(shardableRuns))
	for i, e := range shardableRuns {
		names[i] = e.name
	}
	return names
}

// RunShardable runs one campaign experiment by name under the given options,
// discarding the rendered result — the caller wants the campaign journalled
// (opts.CampaignRoot), not printed. Results for a sharded or serviced run
// are produced later from the merged campaign directory. Experiments that
// cannot shard are refused by name.
func RunShardable(name string, opts Options) error {
	for _, e := range shardableRuns {
		if e.name == name {
			return e.run(opts)
		}
	}
	return fmt.Errorf("experiment %q cannot run sharded (shardable: %s)",
		name, strings.Join(ShardableExperiments(), " "))
}
