package predictor

// ConfidenceEstimator assigns a high/low confidence label to each
// conditional-branch prediction. In the ReStore architecture a misprediction
// of a HIGH-confidence branch is treated as a soft-error symptom (paper
// Section 3.2.2): if the predictor was very sure and the "misprediction"
// still happened, perhaps the branch input was corrupted rather than the
// predictor wrong.
type ConfidenceEstimator interface {
	// Confident reports whether the current prediction for pc is high
	// confidence.
	Confident(pc uint64) bool
	// Update trains the estimator with whether the prediction was
	// correct.
	Update(pc uint64, correct bool)
}

// JRS is the Jacobsen-Rotenberg-Smith resetting-counter estimator [12]: a
// table of saturating "miss distance counters". The original design indexes
// it by PC XOR global history; this one is indexed by PC alone (a deviation
// recorded in DESIGN.md). A correct prediction increments the counter; a
// misprediction resets it to zero. A prediction is high confidence when the
// counter has saturated past the threshold, i.e. the branch has been
// predicted correctly many consecutive times. The paper selects JRS with a conservative
// threshold, prioritising performance (few false positives) over coverage.
type JRS struct {
	table     []uint8
	mask      uint64
	max       uint8
	threshold uint8
}

// JRSConfig parameterises the estimator.
type JRSConfig struct {
	// TableBits is log2 of the table size (default 12, 4096 entries).
	TableBits int
	// CounterMax is the saturation value (default 15, a 4-bit counter).
	CounterMax uint8
	// Threshold is the minimum counter value labelled high confidence
	// (default equal to CounterMax, the paper's conservative setting).
	Threshold uint8
}

func (c *JRSConfig) applyDefaults() {
	if c.TableBits == 0 {
		c.TableBits = 12
	}
	if c.CounterMax == 0 {
		c.CounterMax = 15
	}
	if c.Threshold == 0 {
		c.Threshold = c.CounterMax
	}
}

// NewJRS returns a JRS estimator.
func NewJRS(cfg JRSConfig) *JRS {
	cfg.applyDefaults()
	n := 1 << cfg.TableBits
	return &JRS{
		table:     make([]uint8, n),
		mask:      uint64(n - 1),
		max:       cfg.CounterMax,
		threshold: cfg.Threshold,
	}
}

func (j *JRS) index(pc uint64) uint64 { return (pc >> 2) & j.mask }

// Confident reports whether the counter for pc has saturated to the
// threshold.
func (j *JRS) Confident(pc uint64) bool {
	return j.table[j.index(pc)] >= j.threshold
}

// Update increments on a correct prediction and resets on a misprediction.
func (j *JRS) Update(pc uint64, correct bool) {
	i := j.index(pc)
	if !correct {
		j.table[i] = 0
		return
	}
	if j.table[i] < j.max {
		j.table[i]++
	}
}

// Perfect is the oracle estimator used for the Section 5.2.1 ablation: it
// labels every prediction high confidence, so every genuine misprediction
// and every fault-induced one is a symptom. Combined with campaign-side
// knowledge of which mispredictions were fault-induced, it bounds the
// coverage a better confidence predictor could reach ("a perfect confidence
// predictor would yield nearly twice the error coverage").
type Perfect struct{}

// Confident always reports high confidence.
func (Perfect) Confident(uint64) bool { return true }

// Update is a no-op.
func (Perfect) Update(uint64, bool) {}

// Compile-time interface checks.
var (
	_ ConfidenceEstimator = (*JRS)(nil)
	_ ConfidenceEstimator = Perfect{}
)
