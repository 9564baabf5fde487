package inject

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// Campaign telemetry: write-only accounting recorded AFTER the trial fan-out
// completes, on the dispatching goroutine. Classifying outcomes post-hoc
// (rather than inside workers) keeps the hot path untouched and the metric
// updates trivially deterministic; and because nothing here is ever read
// back by campaign code, results with a sink attached are byte-identical to
// results without one (TestCampaignMetricsInert, and the restorelint
// determinism analyzer's obs-read check, hold that line).

// metricName lowercases a category label into a metric-name fragment:
// "DMR detect" -> "dmr_detect".
func metricName(category string) string {
	s := strings.ToLower(category)
	s = strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			return r
		}
		return '_'
	}, s)
	return s
}

// recordCampaign accounts one finished (possibly truncated) campaign.
// Outcomes are classified at the campaign's observation window — for the
// microarchitectural campaign under the perfect detector, the raw upset
// taxonomy before any checkpoint-interval policy is applied.
func recordCampaign[T trialRecord](sink obs.Sink, prefix string, trials []T, window uint64, points int, truncated bool, elapsed time.Duration) {
	if sink == nil {
		return
	}
	sink.Counter(prefix + "_trials_total").Add(int64(len(trials)))
	sink.Counter(prefix + "_points_total").Add(int64(points))
	if truncated {
		sink.Counter(prefix + "_truncated_total").Inc()
	}
	if secs := elapsed.Seconds(); secs > 0 {
		sink.Gauge(prefix + "_trials_per_second").Set(float64(len(trials)) / secs)
	}
	for _, t := range trials {
		sink.Counter(prefix + "_outcome_" + metricName(t.outcome(window)) + "_total").Inc()
	}
}
