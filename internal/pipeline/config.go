package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/predictor"
)

// Structure geometry. These mirror Section 4.1 and Figure 3 of the paper:
// 4-wide fetch/rename, 6-wide issue, a 32-entry scheduler, a 64-entry
// reorder buffer, and up to 132 instructions in flight across 12 stages.
// All sizes are powers of two so that corrupted index fields alias to valid
// entries instead of crashing the simulator — mirroring how real hardware
// mis-addresses a structure rather than "panicking".
const (
	FetchWidth  = 4
	IssueWidth  = 6
	CommitWidth = 6

	FQSize    = 32 // fetch queue entries
	ROBSize   = 64
	SchedSize = 32
	STQSize   = 16
	LDQSize   = 16
	PhysRegs  = 128

	// Issue ports per Figure 3: three ALUs (one handles multiplies), one
	// branch unit, two address-generation units.
	ALUPorts    = 3
	BranchPorts = 1
	AGENPorts   = 2
)

// ConfidenceKind selects the confidence estimator wired into the front end.
type ConfidenceKind uint8

// Confidence estimator choices.
const (
	// ConfidenceJRS is the paper's chosen estimator (Section 3.2.2).
	ConfidenceJRS ConfidenceKind = iota + 1
	// ConfidencePerfect labels every prediction high confidence; combined
	// with campaign-side filtering it bounds achievable coverage
	// (Section 5.2.1 ablation).
	ConfidencePerfect
)

// Config parameterises a pipeline instance.
type Config struct {
	// Branch prediction.
	PredictorBits int  // log2 entries in each direction-predictor table
	HistoryBits   uint // gshare global history length
	BTBSetBits    int
	BTBWays       int
	RASDepth      int

	// Confidence estimation.
	Confidence ConfidenceKind
	JRS        predictor.JRSConfig

	// Caches and TLBs. L2 is unified and backs both L1s; its miss
	// latency is the memory round trip.
	L1I, L1D, L2, ITLB, DTLB cache.Config

	// Execution latencies in cycles.
	ALULatency int
	MulLatency int

	// RedirectPenalty is the front-end refill delay after a pipeline
	// flush, approximating the 12-stage fetch-to-execute depth.
	RedirectPenalty int

	// Memory-dependence speculation (Figure 3's Mem Dep Pred): loads
	// issue past older stores with unresolved addresses unless their PC
	// is in the wait table; violations replay and train the table.
	MemDepSpeculation bool
	MemDepBits        int    // log2 wait-table entries
	MemDepDecayCycles uint64 // wait-table aging period

	// WatchdogCycles is the commit-to-commit cycle budget before the
	// watchdog timer declares the processor deadlocked (Section 4.2).
	WatchdogCycles uint64
}

// DefaultConfig returns the configuration used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		PredictorBits:   12,
		HistoryBits:     10,
		BTBSetBits:      9,
		BTBWays:         2,
		RASDepth:        16,
		Confidence:      ConfidenceJRS,
		JRS:             predictor.JRSConfig{TableBits: 12, CounterMax: 15, Threshold: 15},
		L1I:             cache.DefaultL1I(),
		L1D:             cache.DefaultL1D(),
		L2:              cache.DefaultL2(),
		ITLB:            cache.DefaultITLB(),
		DTLB:            cache.DefaultDTLB(),
		ALULatency:      1,
		MulLatency:      7,
		RedirectPenalty: 8,
		WatchdogCycles:  2048,

		MemDepSpeculation: true,
		MemDepBits:        10,
		MemDepDecayCycles: 16384,
	}
}

func (c *Config) validate() error {
	if c.PredictorBits <= 0 || c.BTBWays <= 0 || c.RASDepth <= 0 {
		return fmt.Errorf("pipeline: invalid predictor geometry %+v", c)
	}
	if c.ALULatency <= 0 || c.MulLatency <= 0 {
		return fmt.Errorf("pipeline: invalid latencies %+v", c)
	}
	if c.WatchdogCycles == 0 {
		return fmt.Errorf("pipeline: watchdog budget must be positive")
	}
	if c.MemDepSpeculation && (c.MemDepBits <= 0 || c.MemDepDecayCycles == 0) {
		return fmt.Errorf("pipeline: invalid memory-dependence predictor config %+v", c)
	}
	switch c.Confidence {
	case ConfidenceJRS, ConfidencePerfect:
	default:
		return fmt.Errorf("pipeline: unknown confidence kind %d", c.Confidence)
	}
	return nil
}
