package inject

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/ckptio"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/protect"
	"repro/internal/workload"
)

// consultProtection is the single sanctioned point where campaign code reads
// a protection map (the restorelint protectpolicy analyzer enforces this).
// Centralising the read keeps the fault-model semantics in one place: a flip
// landing in a parity domain is detected on read and recovered by flush, one
// landing in an ECC domain is corrected — either way it cannot fail.
func consultProtection(m *protect.Map, elem int) protect.Protection {
	return m.Protection(elem)
}

// UArchConfig parameterises a microarchitectural fault-injection campaign
// (Section 4.2): single bit flips into the pipeline's latches and SRAM
// cells, with caches and predictor tables excluded, at pre-selected
// injection points, each trial monitored for up to WindowCycles against a
// golden execution.
type UArchConfig struct {
	Bench workload.Benchmark
	Seed  int64
	Scale float64 // workload scale; 0 = 1.0

	// Points is the number of injection points (paper: 250-300 across
	// the campaign); TrialsPerPoint bits are flipped at each.
	Points         int
	TrialsPerPoint int

	// WarmupCycles runs the pipeline before the first point ("the model
	// was allowed to warm-up prior to each fault injection").
	WarmupCycles uint64
	// SpreadCycles is the range after warm-up that points are drawn
	// from.
	SpreadCycles uint64
	// WindowCycles is the per-trial observation window (paper: 10000).
	WindowCycles uint64

	// LatchesOnly restricts targeting to pipeline latches, excluding
	// SRAM arrays (the Section 5.1.2 campaign).
	LatchesOnly bool

	// BurstBits flips a run of adjacent bits per trial instead of one
	// (default 1). The paper's fault model is single-bit (Section 4.2);
	// this extension models the spatial multi-bit upsets that grow more
	// common as cells shrink.
	BurstBits int

	// Policy, if non-nil, protects state elements with parity or ECC;
	// flips landing in protected elements are corrected/flushed and cannot
	// fail. protect.LowHangingFruit() is the paper's hardened pipeline
	// (Figure 6); a policy derived by the budgeted optimizer from static
	// vulnerability analysis is another. Protection is consulted only after
	// each pre-drawn bit pick, so campaigns at the same seed visit identical
	// picks under every policy; the policy enters the durable-campaign plan
	// string (see planString).
	Policy *protect.Policy

	// Pipeline optionally overrides the processor configuration.
	Pipeline *pipeline.Config

	// Exec says how the campaign runs; none of its fields enter the plan.
	Exec
}

func (c *UArchConfig) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Points == 0 {
		c.Points = 25
	}
	if c.TrialsPerPoint == 0 {
		c.TrialsPerPoint = 50
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 10_000
	}
	if c.SpreadCycles == 0 {
		c.SpreadCycles = 40_000
	}
	if c.WindowCycles == 0 {
		c.WindowCycles = 10_000
	}
	if c.BurstBits == 0 {
		c.BurstBits = 1
	}
}

// pipelineConfig is the processor configuration the campaign simulates.
func (c *UArchConfig) pipelineConfig() pipeline.Config {
	if c.Pipeline != nil {
		return *c.Pipeline
	}
	return pipeline.DefaultConfig()
}

// spec describes the configuration to the campaign driver.
func (c UArchConfig) spec() campaignSpec {
	c.applyDefaults()
	return campaignSpec{
		kind: "uarch", plan: c.planString(), seed: c.Seed, bench: c.Bench,
		slots: c.Points * c.TrialsPerPoint, window: c.WindowCycles,
	}
}

// CampaignID names the campaign directory for this configuration: the
// campaign kind, the benchmark, and the plan fingerprint. Two configurations
// share an ID exactly when their journals are interchangeable.
func (c UArchConfig) CampaignID() string { return c.spec().id() }

// UArchResult is the outcome of one microarchitectural campaign.
type UArchResult struct {
	Config      UArchConfig
	Trials      []UArchTrial
	TotalBits   uint64
	LatchBits   uint64
	HardenStats protect.Stats
}

// Distribution bins the trials at a checkpoint interval under a detector.
func (r *UArchResult) Distribution(interval uint64, det Detector) map[string]float64 {
	return UArchDistribution(r.Trials, interval, det).Fraction
}

// goldenTrace is the recorded golden continuation at one injection point.
type goldenTrace struct {
	commits []pipeline.CommitEvent
	// hashAt maps a state digest to the first cycle (relative to the
	// point) it occurred at, enabling masked detection even when the
	// faulty run lags the golden by a few cycles of timing skew.
	hashAt map[uint64]uint64
	// mispredicts is the golden run's conditional-misprediction
	// resolution schedule. Faulty-run mispredictions matching this
	// schedule are natural, not fault-induced, and do not count as
	// control-flow symptoms (the paper classifies cfv as faults that
	// CAUSED incorrect control flow).
	mispredicts []mispRec
}

type mispRec struct {
	pc       uint64
	taken    bool
	highConf bool
}

// uarchPick is one pre-drawn (point, trial) bit selection.
type uarchPick struct {
	ref     pipeline.BitRef
	isLatch bool
}

// RunUArch executes the campaign: warm up, fork a golden pipeline at each
// injection point, record its continuation, then run TrialsPerPoint
// corrupted clones against it — serially, or fanned out across cfg.Workers
// goroutines with bit-identical results (all bit picks are pre-drawn on the
// dispatching goroutine; each trial fills a pre-assigned result slot).
//
// If the golden pipeline stops during warm-up or before an injection point
// (a short workload at small Scale ends before the spread is exhausted),
// the remaining points are truncated and the partial result is returned
// with TotalBits and the completed Trials populated.
//
// With ResumeFrom set the campaign is durable: completed trials are
// journalled and recovered on the next run (see the package comment in
// journal.go). With ShardCount > 1 only the owned slots run and the returned
// result is partial (other shards' slots are zero-valued); resuming from the
// merged shard directories returns the full one. When Interrupt fires,
// in-flight trials drain, the journal flushes, and RunUArch returns
// ErrInterrupted.
func RunUArch(cfg UArchConfig) (*UArchResult, error) {
	cfg.applyDefaults()
	m, err := newUArchModel(&cfg)
	if err != nil {
		return nil, err
	}
	res := &UArchResult{
		Config:      cfg,
		TotalBits:   m.space.TotalBits(false),
		LatchBits:   m.space.TotalBits(true),
		HardenStats: protect.Survey(m.space, m.protMap),
	}
	spec := cfg.spec()
	spec.aux, err = json.Marshal(uarchAux{
		TotalBits:   res.TotalBits,
		LatchBits:   res.LatchBits,
		HardenStats: hardenStatsJSON(res.HardenStats),
	})
	if err != nil {
		return nil, err
	}
	if res.Trials, err = run[UArchTrial](spec, cfg.Exec, m); err != nil {
		return nil, err
	}
	return res, nil
}

// uarchModel is the microarchitectural fault model: single (or burst) bit
// flips into pipeline latches and SRAM cells of a clone forked from the
// golden master at each injection point.
type uarchModel struct {
	cfg     *UArchConfig
	master  *pipeline.Pipeline
	space   *pipeline.StateSpace
	protMap *protect.Map
	offsets []uint64    // injection points, cycles past warm-up, ascending
	picks   []uarchPick // per slot
	base    uint64      // cycle the master has reached
	trace   *goldenTrace
	pool    *forkPool[*pipeline.Pipeline]

	goldenCycles *obs.Counter // cycles recordGolden simulated
}

func newUArchModel(cfg *UArchConfig) (*uarchModel, error) {
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	mem, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	m := &uarchModel{
		cfg:          cfg,
		base:         cfg.WarmupCycles,
		goldenCycles: cfg.Obs.Counter("campaign_uarch_golden_cycles_total"),
	}
	if m.master, err = pipeline.New(cfg.pipelineConfig(), mem, prog.Entry); err != nil {
		return nil, err
	}
	if !cfg.noDecodeCache {
		// Decode the code image once; every clone shares the cache
		// read-only (Clone/ResetFrom propagate the pointer).
		m.master.SetDecodeCache(isa.NewDecodeCache(prog.CodeBase, prog.Code))
	}
	// Per-stage counters and occupancy histograms track the master (warm-up
	// walk + golden recording); per-trial clones never inherit the
	// attachment (Clone/ResetFrom drop it).
	m.master.AttachObs(cfg.Obs, "pipeline")
	m.space = m.master.State()
	if m.protMap, err = cfg.Policy.Compile(m.space); err != nil {
		return nil, err
	}
	m.pool = newForkPool(cfg.Obs, "campaign_uarch_clone_pool", (*pipeline.Pipeline).Clone, (*pipeline.Pipeline).ResetFrom)
	return m, nil
}

func (m *uarchModel) plan() (int, error) {
	cfg := m.cfg
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0A12C4))
	// Injection points first, then every (point, trial) bit pick, in exactly
	// the order the serial engine always consumed the stream. The picks
	// depend only on the state space's fixed geometry, so drawing them up
	// front (and never handing the rand.Rand to a worker) is what makes the
	// parallel campaign bit-identical to the serial one.
	m.offsets = make([]uint64, cfg.Points)
	for i := range m.offsets {
		m.offsets[i] = uint64(rng.Int63n(int64(cfg.SpreadCycles)))
	}
	sort.Slice(m.offsets, func(i, j int) bool { return m.offsets[i] < m.offsets[j] })
	if cfg.LatchesOnly && m.space.TotalBits(true) == 0 {
		return 0, fmt.Errorf("latch-only campaign over 0 latch bits: %w", ErrNoEligibleBits)
	}
	m.picks = make([]uarchPick, cfg.Points*cfg.TrialsPerPoint)
	for i := range m.picks {
		ref, isLatch, err := pickBit(m.space, rng, cfg.LatchesOnly)
		if err != nil {
			return 0, err
		}
		m.picks[i] = uarchPick{ref: ref, isLatch: isLatch}
	}
	return cfg.Points, nil
}

func (m *uarchModel) warmUp() { m.master.RunCycles(m.cfg.WarmupCycles) }

func (m *uarchModel) loadImage(path string, workers int) error {
	return m.master.LoadGoldenImage(path, []byte(m.cfg.goldenKey()), workers)
}

func (m *uarchModel) saveImage(path string, workers int) (ckptio.Stats, error) {
	return m.master.WriteGoldenImage(path, []byte(m.cfg.goldenKey()), workers)
}

func (m *uarchModel) advance(i int) (bool, error) {
	if target := m.cfg.WarmupCycles + m.offsets[i]; target > m.base {
		m.master.RunCycles(target - m.base)
		m.base = target
	}
	return m.master.Status() == pipeline.StatusRunning, nil
}

// record runs on the dispatching goroutine; the master cannot be shared with
// in-flight trials.
func (m *uarchModel) record() (bool, error) {
	trace, err := recordGolden(m.master, m.cfg.WindowCycles, m.goldenCycles)
	m.trace = trace
	return trace != nil, err
}

func (m *uarchModel) prepare(slot int, out *UArchTrial, w *engine) bool {
	pick := m.picks[slot]
	*out = UArchTrial{
		PointCycle:  m.master.Cycles(),
		Elem:        m.space.Elements()[pick.ref.Elem].Name,
		Bit:         pick.ref.Bit,
		IsLatch:     pick.isLatch,
		DeadlockLat: Never,
		ExcLat:      Never,
		CFVLat:      Never,
		HCMispLat:   Never,
		AnyMispLat:  Never,
		DivergeLat:  Never,
	}
	if consultProtection(m.protMap, pick.ref.Elem) != protect.Unprotected {
		// Parity detects the flip on read (recovered by flush); ECC
		// corrects it. Either way it cannot cause failure.
		out.Protected = true
		return true
	}
	// Clone (or pool-reset) on the dispatching goroutine, while the master
	// still sits at this point.
	faulty := m.pool.acquire(m.master)
	pool, trace, cfg := m.pool, m.trace, m.cfg
	w.submit(slot, func() {
		runUArchTrial(faulty, pick.ref, cfg.BurstBits, trace, cfg.WindowCycles, out, cfg.noEarlyExit)
		pool.release(faulty)
	})
	return false
}

// endPoint lets the point's golden trace go before the next is recorded; any
// trials still in flight hold their own reference.
func (m *uarchModel) endPoint() { m.trace = nil }

func (t UArchTrial) outcome(window uint64) string {
	return t.CategoryAt(window, DetectorPerfect).String()
}

// pickBitAttempts bounds the rejection sampler. Latches are the majority of
// the state space, so honest configurations terminate in a couple of draws;
// the bound exists so a degenerate state space surfaces ErrNoEligibleBits
// instead of hanging the campaign.
const pickBitAttempts = 1 << 16

// pickBit samples a uniformly random eligible bit (rejection sampling for
// the latch-only campaign). It fails with ErrNoEligibleBits when the
// constraints leave nothing to sample.
func pickBit(space *pipeline.StateSpace, rng *rand.Rand, latchesOnly bool) (pipeline.BitRef, bool, error) {
	if space.TotalBits(false) == 0 || (latchesOnly && space.TotalBits(true) == 0) {
		return pipeline.BitRef{}, false, ErrNoEligibleBits
	}
	for attempt := 0; attempt < pickBitAttempts; attempt++ {
		n := uint64(rng.Int63n(int64(space.TotalBits(false))))
		ref, ok := space.NthBit(n)
		if !ok {
			continue
		}
		isLatch := space.Elements()[ref.Elem].Kind == pipeline.KindLatch
		if latchesOnly && !isLatch {
			continue
		}
		return ref, isLatch, nil
	}
	return pipeline.BitRef{}, false, ErrNoEligibleBits
}

// recordGolden forks the master and records its continuation: per-cycle
// state digests and the committed instruction stream. A (nil, nil) return
// means the golden continuation stopped inside the observation window — the
// program is ending — and the campaign should truncate at this point rather
// than fail. Every simulated cycle counts on cycles (nil without a sink).
func recordGolden(master *pipeline.Pipeline, window uint64, cycles *obs.Counter) (*goldenTrace, error) {
	g := master.Clone()
	trace := &goldenTrace{
		commits: make([]pipeline.CommitEvent, 0, window),
		hashAt:  make(map[uint64]uint64, window),
	}
	g.CommitHook = func(ev pipeline.CommitEvent) {
		trace.commits = append(trace.commits, ev)
	}
	g.BranchHook = func(ev pipeline.BranchEvent) {
		if ev.IsCond && ev.Mispredicted {
			trace.mispredicts = append(trace.mispredicts,
				mispRec{pc: ev.PC, taken: ev.ActualTaken, highConf: ev.HighConf})
		}
	}
	// Record with 25% slack so a faulty run that gets slightly ahead
	// still has golden events to compare against.
	total := window + window/4
	for c := uint64(0); c <= total; c++ {
		h := g.State().Hash()
		if _, seen := trace.hashAt[h]; !seen {
			trace.hashAt[h] = c
		}
		if c < total {
			g.Cycle()
			cycles.Inc()
			if g.Status() == pipeline.StatusHalted {
				return nil, nil // program ends inside the window: truncate
			}
			if g.Status() != pipeline.StatusRunning {
				return nil, fmt.Errorf("inject: golden continuation stopped: %v", g.Status())
			}
		}
	}
	return trace, nil
}

// runUArchTrial flips the bit and monitors the clone against the golden
// trace. The trial stops as soon as its classification is decided — a
// terminal pipeline status or a masked reconvergence — unless noEarlyExit
// asks for the proof mode, which freezes the decision (trialDecision), runs
// the window out, and returns the frozen record.
func runUArchTrial(f *pipeline.Pipeline, ref pipeline.BitRef, burst int, trace *goldenTrace, window uint64, trial *UArchTrial, noEarlyExit bool) {
	const hashEvery = 16

	// Flip a run of adjacent bits within the element (single-bit unless
	// the campaign models burst upsets). The run clips at the element's
	// width, as a physical strike clips at the array edge.
	width := f.State().Elements()[ref.Elem].Bits
	for b := 0; b < burst && ref.Bit+uint8(b) < width; b++ {
		f.State().Flip(pipeline.BitRef{Elem: ref.Elem, Bit: ref.Bit + uint8(b)})
	}
	flippedBit := f.State().Peek(ref)

	injRetired := f.Retired()
	var (
		commitIdx   int
		cfv         bool
		regs        regLedger
		divergedMem map[uint64]bool
	)
	latency := func() uint64 { return max(f.Retired()-injRetired, 1) }
	diverge := func() {
		trial.EverDiverged = true
		if trial.DivergeLat == Never {
			trial.DivergeLat = latency()
		}
	}

	f.CommitHook = func(ev pipeline.CommitEvent) {
		if cfv || commitIdx >= len(trace.commits) {
			commitIdx++
			return
		}
		g := trace.commits[commitIdx]
		commitIdx++

		if ev.Exception != arch.ExcNone {
			return // recorded via pipeline status
		}

		// Control-flow violation detection, Table 1's two varieties:
		// legal-but-incorrect (a branch resolving to the wrong outcome)
		// and illegal (branching behaviour appearing or disappearing,
		// or the committed stream walking a different path — PC and
		// instruction both differ). A corrupted PC latch under an
		// unchanged non-branch instruction is bookkeeping damage, not a
		// violation; its real effects (wrong branch targets, wrong link
		// values) surface through these checks.
		branchChanged := ev.IsBranch != g.IsBranch ||
			(ev.IsBranch && (ev.Taken != g.Taken || ev.Target != g.Target))
		wrongPath := ev.PC != g.PC && ev.Inst != g.Inst
		if branchChanged || wrongPath {
			if trial.CFVLat == Never {
				trial.CFVLat = latency()
			}
			cfv = true
			diverge()
			return
		}

		// Register effects. When the faulty run writes a different
		// destination than the golden run, both registers diverge: the
		// one that got a wrong value and the one that missed its write.
		switch {
		case ev.HasDest && g.HasDest && ev.DestArch == g.DestArch:
			if ev.DestVal != g.DestVal {
				diverge()
			}
			regs.mark(ev.DestArch, ev.DestVal != g.DestVal)
		case ev.HasDest || g.HasDest:
			diverge()
			if ev.HasDest {
				regs.mark(ev.DestArch, true)
			}
			if g.HasDest {
				regs.mark(g.DestArch, true)
			}
		}

		// Memory effects, including stores appearing or disappearing
		// under a corrupted control word: every address a mismatched
		// store touched (or should have touched) diverges.
		switch {
		case !ev.IsStore && !g.IsStore:
		case ev.IsStore && g.IsStore && ev.MemAddr == g.MemAddr && ev.StoreVal == g.StoreVal:
			delete(divergedMem, ev.MemAddr)
		default:
			diverge()
			if divergedMem == nil {
				divergedMem = make(map[uint64]bool)
			}
			if ev.IsStore {
				divergedMem[ev.MemAddr] = true
			}
			if g.IsStore && (!ev.IsStore || ev.MemAddr != g.MemAddr) {
				divergedMem[g.MemAddr] = true
			}
		}
	}
	mispIdx := 0
	f.BranchHook = func(ev pipeline.BranchEvent) {
		if !ev.Mispredicted || !ev.IsCond {
			return
		}
		// Match against the golden misprediction schedule: the k-th
		// faulty misprediction is natural iff it coincides with the
		// golden run's k-th. Any deviation — different branch, outcome
		// or confidence, or an extra event — is fault-induced.
		natural := mispIdx < len(trace.mispredicts) &&
			trace.mispredicts[mispIdx] == mispRec{pc: ev.PC, taken: ev.ActualTaken, highConf: ev.HighConf}
		mispIdx++
		if natural {
			return
		}
		if trial.AnyMispLat == Never {
			trial.AnyMispLat = latency()
		}
		if ev.HighConf && trial.HCMispLat == Never {
			trial.HCMispLat = latency()
		}
	}

	var dec trialDecision
	for c := uint64(1); c <= window && (noEarlyExit || !dec.decided); c++ {
		f.Step()
		if dec.decided {
			continue // proof mode: run the window out past the decision
		}
		switch f.Status() {
		case pipeline.StatusExcepted:
			trial.ExcKind, _, _ = f.Exception()
			trial.ExcLat = latency()
			dec.decide(trial)
		case pipeline.StatusDeadlocked:
			trial.DeadlockLat = latency()
			dec.decide(trial)
		case pipeline.StatusHalted:
			// Synthetic workloads never halt; a committed HALT means
			// corrupted control flow reached a halt encoding.
			if trial.CFVLat == Never {
				trial.CFVLat = latency()
			}
			trial.EverDiverged = true
			dec.decide(trial)
		}
		if !dec.decided && c%hashEvery == 0 && !cfv && regs.n == 0 && len(divergedMem) == 0 {
			if gc, ok := trace.hashAt[f.State().Hash()]; ok && gc <= c {
				// Microarchitectural state matches the golden run
				// (possibly lagged): the fault is gone.
				trial.Masked = true
				dec.decide(trial)
			}
		}
	}

	if dec.decided {
		// The decided classification is the result. Under noEarlyExit the
		// hooks kept running past the decision, so restore the frozen
		// record; final classification is skipped either way.
		*trial = dec.frozen
		return
	}
	trial.ArchCorrupt = cfv || regs.n > 0 || len(divergedMem) > 0
	// The fault is "stuck" when the flipped bit still holds its post-flip
	// value and nothing architectural ever diverged: it sits unread in
	// (very likely dead) state, the paper's "other" category. Bits that
	// self-heal (overwritten back) converge to the golden hash and are
	// classified masked before reaching here.
	trial.FaultStuck = f.State().Peek(ref) == flippedBit && !trial.EverDiverged
}
