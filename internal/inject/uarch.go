package inject

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/protect"
	"repro/internal/workload"
)

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

	// Hardened protects the pipeline with the paper's parity/ECC placement,
	// protect.LowHangingFruit (Figure 6): a flip landing in a protected
	// element is corrected or flushed and cannot fail. Protection is asked
	// only after each pre-drawn bit pick, so the hardened campaign visits
	// the plain one's picks at the same seed.
	Hardened bool

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

// validate rejects the counts applyDefaults leaves negative: a negative
// Points or TrialsPerPoint cannot size the plan, and a negative BurstBits
// would flip no bit.
func (c *UArchConfig) validate() error {
	switch {
	case c.Points < 0:
		return fmt.Errorf("inject: negative Points %d", c.Points)
	case c.TrialsPerPoint < 0:
		return fmt.Errorf("inject: negative TrialsPerPoint %d", c.TrialsPerPoint)
	case c.BurstBits < 0:
		return fmt.Errorf("inject: negative BurstBits %d", c.BurstBits)
	}
	return nil
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

// uarchGolden is one point's golden continuation, a view of the campaign's
// golden log: the commits and conditional mispredictions of the point's span,
// and an index of the state digests its trials can match.
type uarchGolden struct {
	commits []goldenCommit
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
	// touched holds every access unit the golden run reads or writes in the
	// window; a trial that flips bits of other units only is resolved
	// without simulation (see prepare).
	touched pipeline.AccessMask
}

// goldenCommit is what a trial compares of one golden commit: 64 bytes,
// against pipeline.CommitEvent's 112.
type goldenCommit struct {
	pc, target, destVal, memAddr, storeVal uint64
	inst                                   isa.Inst
	isBranch, taken, hasDest, isStore      bool
	destArch                               isa.Reg
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

// RunUArch executes the campaign: warm up, walk the golden pipeline from
// injection point to injection point, and at each run TrialsPerPoint
// corrupted clones against the golden continuation. A fork of the golden
// pipeline runs ahead of it and logs that continuation once for the whole
// campaign. Trials run serially, or fanned out across cfg.Workers goroutines
// with bit-identical results (all bit picks are pre-drawn on the dispatching
// goroutine; each trial fills a pre-assigned result slot).
//
// If the golden pipeline halts during warm-up, before an injection point or
// inside a point's golden span (a short workload at small Scale ends before
// the spread is exhausted), the remaining points are truncated and the
// partial result is returned with TotalBits and the completed Trials
// populated.
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	m, err := newUArchModel(&cfg, prog)
	if err != nil {
		return nil, err
	}
	res := &UArchResult{
		Config:      cfg,
		TotalBits:   m.space.TotalBits(false),
		LatchBits:   m.space.TotalBits(true),
		HardenStats: protect.Survey(m.space, m.policy),
	}
	spec := cfg.spec()
	spec.aux, err = json.Marshal(uarchAux{
		TotalBits:   res.TotalBits,
		LatchBits:   res.LatchBits,
		HardenStats: res.HardenStats,
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
	policy  *protect.Policy // nil unless Hardened
	offsets []uint64        // injection points, cycles past warm-up, ascending
	picks   []uarchPick     // per slot
	point   int             // index of the point the master is at
	base    uint64          // cycle the master has reached
	golden  *uarchGolden
	pool    *forkPool[*pipeline.Pipeline]

	// The recorder steps a fork of the master forward only and logs the
	// golden run once for the whole campaign. The dispatcher appends to the
	// log while workers read earlier views of it, so a log is never
	// truncated or reused, only replaced by a fresh one.
	rec           *pipeline.Pipeline
	log           *goldenLog
	goldenCycles  *obs.Counter // cycles the recorder simulated
	goldenDigests *obs.Counter // golden states the recorder hashed
	// digLo is the first point whose window [p, p+W] can still hold a
	// recorded cycle; see digest.
	digLo int

	// The recorder marks the access units it reads or writes into access
	// each cycle, and folds them into touched[i] for every point i whose
	// window, cycles (p, p+W], holds that cycle: those are points
	// winLo..winHi-1.
	access       pipeline.AccessMask
	touched      []pipeline.AccessMask // per point
	winLo, winHi int

	trialCycles *obs.Counter // faulty cycles simulated
	resolved    *obs.Counter // trials resolved from the golden log
}

// goldenLog is the golden run from cycle base on: per cycle, the state digest
// and the counts of commits and conditional mispredictions logged before it,
// and those two event streams.
type goldenLog struct {
	base    uint64
	cycles  []logCycle // cycles[k] is the state at cycle base+k
	commits []goldenCommit
	misps   []mispRec
}

// logCycle is one logged golden cycle: 16 bytes. digest is 0 for a cycle no
// point's window holds, which no view reads.
type logCycle struct {
	digest         uint64
	commits, misps uint32
}

func newUArchModel(cfg *UArchConfig, prog *workload.Program) (*uarchModel, error) {
	mem, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	m := &uarchModel{
		cfg:           cfg,
		base:          cfg.WarmupCycles,
		goldenCycles:  cfg.Obs.Counter("campaign_uarch_golden_cycles_total"),
		goldenDigests: cfg.Obs.Counter("campaign_uarch_golden_digests_total"),
		trialCycles:   cfg.Obs.Counter("campaign_uarch_trial_cycles_total"),
		resolved:      cfg.Obs.Counter("campaign_uarch_resolved_trials_total"),
	}
	if m.master, err = pipeline.New(cfg.pipelineConfig(), mem, prog.Entry); err != nil {
		return nil, err
	}
	if !cfg.noDecodeCache {
		// Decode the code image once; every clone shares the cache
		// read-only (Clone/ResetFrom propagate the pointer).
		m.master.SetDecodeCache(isa.NewDecodeCache(prog.CodeBase, prog.Code))
	}
	// Per-stage counters and occupancy histograms track the master (the
	// warm-up and the walk from point to point); the golden recorder and the
	// per-trial clones never inherit the attachment (Clone/ResetFrom drop it).
	m.master.AttachObs(cfg.Obs, "pipeline")
	m.space = m.master.State()
	if cfg.Hardened {
		m.policy = protect.LowHangingFruit()
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
	m.touched = make([]pipeline.AccessMask, cfg.Points)
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

// pointCycle is the cycle of point i.
func (m *uarchModel) pointCycle(i int) uint64 { return m.cfg.WarmupCycles + m.offsets[i] }

func (m *uarchModel) advance(i int) (bool, error) {
	m.point = i
	if target := m.pointCycle(i); target > m.base {
		m.master.RunCycles(target - m.base)
		m.base = target
	}
	return m.master.Status() == pipeline.StatusRunning, nil
}

// span is how far past its point a golden continuation is logged: the window
// with 25% slack, so a faulty run that gets slightly ahead still has golden
// events to compare against.
func (m *uarchModel) span() uint64 { return m.cfg.WindowCycles + m.cfg.WindowCycles/4 }

// record gives the point its view of the golden log, extending the log to the
// end of the point's span. record runs on the dispatching goroutine, while
// trials of earlier points may still read their views. The log only ever
// reaches the end of the current point's span, so a halt is first seen by the
// same point as if every span were recorded on its own.
func (m *uarchModel) record() (bool, error) {
	// Let the previous point's view go before the next is made; any trials
	// still in flight hold their own reference.
	m.golden = nil
	start := m.master.Cycles()
	switch {
	case m.rec == nil || m.rec.Cycles() < start:
		m.forkRecorder(start)
	case start-m.log.base > m.span():
		m.moveLog(start)
	}
	from := m.rec.Cycles()
	ok, err := m.extendLog(start + m.span())
	m.goldenCycles.Add(int64(m.rec.Cycles() - from))
	if !ok {
		return false, err
	}
	m.golden = m.log.view(start, m.cfg.WindowCycles, m.span())
	m.golden.touched = m.touched[m.point]
	return true, nil
}

// forkRecorder starts a recorder at the master's position — at the first
// recorded point, or at one that starts past the log's last cycle — with a
// fresh log. The old log is left to the trials still reading it.
func (m *uarchModel) forkRecorder(start uint64) {
	m.rec = m.master.Clone()
	m.rec.MarkAccess(&m.access)
	m.rec.CommitHook = func(ev pipeline.CommitEvent) {
		m.log.commits = append(m.log.commits, goldenCommit{
			pc: ev.PC, target: ev.Target, destVal: ev.DestVal, memAddr: ev.MemAddr, storeVal: ev.StoreVal,
			inst: ev.Inst, isBranch: ev.IsBranch, taken: ev.Taken, hasDest: ev.HasDest, isStore: ev.IsStore,
			destArch: ev.DestArch,
		})
	}
	m.rec.BranchHook = func(ev pipeline.BranchEvent) {
		if ev.IsCond && ev.Mispredicted {
			m.log.misps = append(m.log.misps, mispRec{pc: ev.PC, taken: ev.ActualTaken, highConf: ev.HighConf})
		}
	}
	m.log = m.newLog(start)
	m.log.cycles = append(m.log.cycles, logCycle{digest: m.digest(start)})
}

// moveLog copies the log's live suffix, from the point at start on, into a
// fresh log, where the recorder appends from now on. No later point reads
// before start, so the live log stays within about two spans; the old log is
// left to the trials still reading it.
func (m *uarchModel) moveLog(start uint64) {
	old := m.log
	s := start - old.base
	at := old.cycles[s]
	m.log = m.newLog(start)
	for _, c := range old.cycles[s:] {
		m.log.cycles = append(m.log.cycles, logCycle{digest: c.digest, commits: c.commits - at.commits, misps: c.misps - at.misps})
	}
	m.log.commits = append(m.log.commits, old.commits[at.commits:]...)
	m.log.misps = append(m.log.misps, old.misps[at.misps:]...)
}

// newLog returns an empty log based at start, sized from the plan. It holds
// every cycle up to the end of the span of the last point that starts within
// one span of start: a point after that forks or moves to a fresh log. Its
// event streams are sized at the master's commit and misprediction rates so
// far, with an eighth to spare; outgrowing them costs one reallocation and
// stays correct, since views keep the old arrays.
func (m *uarchModel) newLog(start uint64) *goldenLog {
	end := start + m.span()
	from, _ := slices.BinarySearch(m.offsets, start-m.cfg.WarmupCycles)
	for _, off := range m.offsets[from:] {
		p := m.cfg.WarmupCycles + off
		if p > start+m.span() {
			break
		}
		end = p + m.span()
	}
	n := end - start + 1
	st := m.master.Stats()
	events := func(k uint64) uint64 {
		e := n * k / max(st.Cycles, 1)
		return e + e/8
	}
	return &goldenLog{
		base:    start,
		cycles:  make([]logCycle, 0, n),
		commits: make([]goldenCommit, 0, events(st.Retired)),
		misps:   make([]mispRec, 0, events(st.CondMispredicts)),
	}
}

// extendLog steps the recorder up to cycle end, logging every cycle and the
// access units it touches. As at every golden point, a halt truncates the
// campaign and any other stop is an error.
func (m *uarchModel) extendLog(end uint64) (bool, error) {
	for m.rec.Cycles() < end {
		m.rec.Cycle()
		m.foldAccess(m.rec.Cycles())
		if m.rec.Status() == pipeline.StatusHalted {
			return false, nil // program ends inside the span: truncate
		}
		if m.rec.Status() != pipeline.StatusRunning {
			return false, fmt.Errorf("inject: golden continuation stopped: %v", m.rec.Status())
		}
		m.log.cycles = append(m.log.cycles, logCycle{
			digest:  m.digest(m.rec.Cycles()),
			commits: uint32(len(m.log.commits)),
			misps:   uint32(len(m.log.misps)),
		})
	}
	return true, nil
}

// digest hashes the recorder's state at cycle c if some point's window
// [p, p+W] holds c, and returns 0 otherwise: a view reads digests only in
// its point's window. The offsets are sorted, so the windows' ends are too,
// and the recorder only moves forward, so the first window that can still
// hold c only moves forward too.
func (m *uarchModel) digest(c uint64) uint64 {
	for m.digLo < len(m.offsets) && m.pointCycle(m.digLo)+m.cfg.WindowCycles < c {
		m.digLo++
	}
	if m.digLo == len(m.offsets) || m.pointCycle(m.digLo) > c {
		return 0
	}
	m.goldenDigests.Inc()
	return m.rec.State().Hash()
}

// foldAccess adds the access units the recorder touched in cycle c to the
// mask of every point whose window holds c, and clears them for the next cycle.
// The recorder only moves forward, so the windows that hold c only move
// forward too.
func (m *uarchModel) foldAccess(c uint64) {
	for m.winHi < len(m.offsets) && m.pointCycle(m.winHi) < c {
		m.winHi++
	}
	for m.winLo < m.winHi && m.pointCycle(m.winLo)+m.cfg.WindowCycles < c {
		m.winLo++
	}
	for i := m.winLo; i < m.winHi; i++ {
		for w := range m.access {
			m.touched[i][w] |= m.access[w]
		}
	}
	m.access = pipeline.AccessMask{}
}

// view returns the golden continuation of the point at start: the commits and
// mispredictions of (start, start+span], and the first offset of every
// digest in [start, start+window]. A trial looks a digest up only at an
// offset c <= window and accepts it only if it first occurred at or before c,
// so a digest that first occurs past window could never match.
func (l *goldenLog) view(start, window, span uint64) *uarchGolden {
	s := start - l.base
	from, to := l.cycles[s], l.cycles[s+span]
	g := &uarchGolden{
		commits:     l.commits[from.commits:to.commits:to.commits],
		mispredicts: l.misps[from.misps:to.misps:to.misps],
		hashAt:      make(map[uint64]uint64, window+1),
	}
	for k, c := range l.cycles[s : s+window+1] {
		if _, seen := g.hashAt[c.digest]; !seen {
			g.hashAt[c.digest] = uint64(k)
		}
	}
	return g
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
	if m.policy.ProtectionOf(out.Elem) != protect.Unprotected {
		// Parity detects the flip on read (recovered by flush); ECC
		// corrects it. Either way it cannot cause failure.
		out.Protected = true
		return true
	}
	if !m.cfg.noEarlyExit && m.untouched(pick.ref) {
		// The golden run never reads or writes the units of the flipped bits
		// in the window, and Cycle reaches a unit only through the methods
		// that mark it. So the faulty clone steps exactly as the golden run
		// does, and the flipped bits, which the golden run holds constant,
		// keep its state off every golden digest: simulation would run the
		// window out and find the fault stuck.
		out.FaultStuck = true
		m.resolved.Inc()
		return true
	}
	// Clone (or pool-reset) on the dispatching goroutine, while the master
	// still sits at this point.
	faulty := m.pool.acquire(m.master)
	pool, golden, cfg, cycles := m.pool, m.golden, m.cfg, m.trialCycles
	w.submit(slot, func() {
		cycles.Add(int64(runUArchTrial(faulty, pick.ref, cfg.BurstBits, golden, cfg.WindowCycles, out, cfg.noEarlyExit)))
		pool.release(faulty)
	})
	return false
}

// untouched reports whether every bit a trial at ref flips lies in an access
// unit the golden run leaves untouched in the point's window.
func (m *uarchModel) untouched(ref pipeline.BitRef) bool {
	for b := range burstLen(m.space, ref, m.cfg.BurstBits) {
		u, ok := m.master.AccessUnit(pipeline.BitRef{Elem: ref.Elem, Bit: ref.Bit + uint8(b)})
		if !ok || m.golden.touched.Has(u) {
			return false
		}
	}
	return true
}

// burstLen is how many adjacent bits a trial at ref flips: burst of them,
// clipped at the element's width as a physical strike clips at the array
// edge.
func burstLen(space *pipeline.StateSpace, ref pipeline.BitRef, burst int) int {
	return min(burst, int(space.Elements()[ref.Elem].Bits-ref.Bit))
}

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

// runUArchTrial flips the bit and monitors the clone against the golden
// continuation. The trial stops as soon as its classification is decided — a
// terminal pipeline status or a masked reconvergence — unless noEarlyExit
// asks for the proof mode, which freezes the decision (trialDecision), runs
// the window out, and returns the frozen record. It returns the number of
// cycles it simulated.
func runUArchTrial(f *pipeline.Pipeline, ref pipeline.BitRef, burst int, golden *uarchGolden, window uint64, trial *UArchTrial, noEarlyExit bool) uint64 {
	const hashEvery = 16

	// Flip a run of adjacent bits within the element (single-bit unless
	// the campaign models burst upsets).
	for b := range burstLen(f.State(), ref, burst) {
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
		if cfv || commitIdx >= len(golden.commits) {
			commitIdx++
			return
		}
		g := &golden.commits[commitIdx]
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
		branchChanged := ev.IsBranch != g.isBranch ||
			(ev.IsBranch && (ev.Taken != g.taken || ev.Target != g.target))
		wrongPath := ev.PC != g.pc && ev.Inst != g.inst
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
		case ev.HasDest && g.hasDest && ev.DestArch == g.destArch:
			if ev.DestVal != g.destVal {
				diverge()
			}
			regs.mark(ev.DestArch, ev.DestVal != g.destVal)
		case ev.HasDest || g.hasDest:
			diverge()
			if ev.HasDest {
				regs.mark(ev.DestArch, true)
			}
			if g.hasDest {
				regs.mark(g.destArch, true)
			}
		}

		// Memory effects, including stores appearing or disappearing
		// under a corrupted control word: every address a mismatched
		// store touched (or should have touched) diverges.
		switch {
		case !ev.IsStore && !g.isStore:
		case ev.IsStore && g.isStore && ev.MemAddr == g.memAddr && ev.StoreVal == g.storeVal:
			delete(divergedMem, ev.MemAddr)
		default:
			diverge()
			if divergedMem == nil {
				divergedMem = make(map[uint64]bool)
			}
			if ev.IsStore {
				divergedMem[ev.MemAddr] = true
			}
			if g.isStore && (!ev.IsStore || ev.MemAddr != g.memAddr) {
				divergedMem[g.memAddr] = true
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
		natural := mispIdx < len(golden.mispredicts) &&
			golden.mispredicts[mispIdx] == mispRec{pc: ev.PC, taken: ev.ActualTaken, highConf: ev.HighConf}
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
	c := uint64(1)
	for ; c <= window && (noEarlyExit || !dec.decided); c++ {
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
			if gc, ok := golden.hashAt[f.State().Hash()]; ok && gc <= c {
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
		return c - 1
	}
	trial.ArchCorrupt = cfv || regs.n > 0 || len(divergedMem) > 0
	// The fault is "stuck" when the flipped bit still holds its post-flip
	// value and nothing architectural ever diverged: it sits unread in
	// (very likely dead) state, the paper's "other" category. Bits that
	// self-heal (overwritten back) converge to the golden hash and are
	// classified masked before reaching here.
	trial.FaultStuck = f.State().Peek(ref) == flippedBit && !trial.EverDiverged
	return c - 1
}
