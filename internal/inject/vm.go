package inject

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// VMConfig parameterises the software-level campaign of Section 3.1: the
// fault model is a single bit flip in the result of a randomly chosen
// instruction, executed on the architectural simulator ("we abstract away
// the processor implementation ... focusing on the propagation of the
// incorrect architectural state into a soft error symptom").
type VMConfig struct {
	Bench workload.Benchmark
	Seed  int64
	Scale float64 // workload scale; 0 = 1.0

	// Trials is the number of injections (paper: ~1000 per benchmark).
	Trials int
	// Points is the number of distinct injection instructions; trials
	// are spread across them with different bit positions. 0 derives
	// Trials/8.
	Points int

	// Warmup is the instruction index where injection points begin.
	Warmup uint64
	// Spread is the range of instruction indices points are drawn from.
	Spread uint64
	// Window is how many instructions each trial observes after the
	// injection (the largest finite latency bin of Figure 2).
	Window uint64

	// Low32 restricts flips to result bits 0..31, reproducing the
	// Section 3.1 sensitivity study of virtual-address-space size.
	Low32 bool

	// Exec says how the campaign runs; none of its fields enter the plan.
	Exec
}

func (c *VMConfig) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Trials == 0 {
		c.Trials = 1000
	}
	if c.Points == 0 {
		c.Points = (c.Trials + 7) / 8
	}
	if c.Points > c.Trials {
		c.Points = c.Trials
	}
	if c.Warmup == 0 {
		c.Warmup = 5_000
	}
	if c.Spread == 0 {
		c.Spread = 200_000
	}
	if c.Window == 0 {
		c.Window = 100_000
	}
}

// spec describes the configuration to the campaign driver.
func (c VMConfig) spec() campaignSpec {
	c.applyDefaults()
	return campaignSpec{
		kind: "vm", plan: c.planString(), seed: c.Seed, bench: c.Bench,
		slots: c.Trials, window: c.Window,
	}
}

// CampaignID names the campaign directory for this configuration.
func (c VMConfig) CampaignID() string { return c.spec().id() }

// VMResult is the outcome of one software-level campaign.
type VMResult struct {
	Config VMConfig
	Trials []VMTrial
}

// MaskedFraction returns the fraction of trials whose faults were masked.
// A campaign truncated down to zero trials (golden program halts before the
// first injection point) has no evidence either way and reports 0, not NaN
// — the same convention as FailureRate/RawFailureRate.
func (r *VMResult) MaskedFraction() float64 {
	return fraction(r.Trials, func(t VMTrial) bool { return t.Masked })
}

// Distribution bins the trials at one detection latency.
func (r *VMResult) Distribution(latency uint64) map[string]float64 {
	return VMDistribution(r.Trials, latency).Fraction
}

// RunVM executes the campaign. The golden execution advances through the
// program once; a second golden simulator runs ahead of it and logs the
// golden continuation once for the whole campaign, and each trial replays
// its point's window of that log with one result bit flipped, comparing
// event-by-event — serially, or fanned out across cfg.Workers goroutines
// with bit-identical results (every bit pick is pre-drawn on the dispatching
// goroutine and every trial fills a pre-assigned result slot).
//
// If the golden program halts before an injection point or inside a golden
// observation window (a short workload at small Scale), the remaining
// points are truncated and the partial result is returned.
//
// With ResumeFrom set the campaign is durable: completed trials are
// journalled and recovered on the next run (see the package comment in
// journal.go). With ShardCount > 1 only the owned slots run and the returned
// result is partial; resuming from the merged shard directories returns the
// full one. When Interrupt fires, in-flight trials drain, the journal
// flushes, and RunVM returns ErrInterrupted.
func RunVM(cfg VMConfig) (*VMResult, error) {
	cfg.applyDefaults()
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	m, err := newVMModel(&cfg, prog)
	if err != nil {
		return nil, err
	}
	trials, err := run[VMTrial](cfg.spec(), cfg.Exec, m)
	if err != nil {
		return nil, err
	}
	return &VMResult{Config: cfg, Trials: trials}, nil
}

// vmModel is the software-level fault model: one flipped bit in the result
// of a register-writing instruction, replayed against the golden
// continuation on the architectural simulator. Two golden simulators run:
// the walker (sim) walks from point to point, and the recorder (rec) runs
// ahead of it and logs the golden run once for the whole campaign. Every
// trial runs on a fork of the walker: a pooled copy of its memory and a
// simulator restored to its registers, whatever the worker count.
type vmModel struct {
	cfg    *VMConfig
	entry  uint64
	mem    *mem.Memory
	sim    *arch.Sim
	dcache *isa.DecodeCache
	points []uint64 // injection instruction indices, ascending
	bits   []uint8  // per slot

	inj     arch.Event    // the injection instruction at the current point
	preRegs arch.Snapshot // golden registers just after inj, which forks restore
	golden  *vmGolden

	// The recorder steps a fork of the walker forward only; log[k] is the
	// golden instruction at index logBase+k. The dispatcher appends to the
	// log while workers read earlier windows of it, so a log is never
	// truncated or reused, only replaced by a fresh one.
	rec         *arch.Sim
	log         []goldenStep
	logBase     uint64
	goldenInsts *obs.Counter

	// memPool recycles per-trial memory images.
	memPool *forkPool[*mem.Memory]
}

// goldenStep is what a trial compares of one golden instruction: 32 bytes,
// against arch.Event's 104.
type goldenStep struct {
	pc, destVal, memAddr, storeVal uint64
}

// vmGolden is one point's golden continuation: its window of the shared log
// and the golden registers at the window's end.
type vmGolden struct {
	steps []goldenStep
	end   arch.Snapshot
}

// logSlack pads the log's planned size: a point's injection instruction lies
// a few instructions past its planned index (at most 4 on the suite's
// paper-scale campaigns). Outgrowing the pad costs one reallocation and
// stays correct, since in-flight trials keep reading the old array.
const logSlack = 1 << 10

func newVMModel(cfg *VMConfig, prog *workload.Program) (*vmModel, error) {
	memory, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	m := &vmModel{
		cfg:         cfg,
		entry:       prog.Entry,
		mem:         memory,
		sim:         arch.New(memory, prog.Entry),
		goldenInsts: cfg.Obs.Counter("campaign_vm_golden_insts_total"),
		memPool:     newForkPool(cfg.Obs, "campaign_vm_mem_pool", (*mem.Memory).Clone, (*mem.Memory).CopyFrom),
	}
	if !cfg.noDecodeCache {
		// Decode the code image once; the golden simulators and every
		// per-trial fork share the cache read-only.
		m.dcache = isa.NewDecodeCache(prog.CodeBase, prog.Code)
	}
	m.sim.DCache = m.dcache
	return m, nil
}

func (m *vmModel) plan() (int, error) {
	cfg := m.cfg
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5EED))
	// Injection points: sorted instruction indices. Points must land on
	// register-writing instructions; advance skips forward to the next one.
	m.points = make([]uint64, cfg.Points)
	for i := range m.points {
		m.points[i] = cfg.Warmup + uint64(rng.Int63n(int64(cfg.Spread)))
	}
	sort.Slice(m.points, func(i, j int) bool { return m.points[i] < m.points[j] })
	maxBit := 64
	if cfg.Low32 {
		maxBit = 32
	}
	m.bits = make([]uint8, cfg.Trials)
	for i := range m.bits {
		m.bits[i] = uint8(rng.Intn(maxBit))
	}
	return cfg.Points, nil
}

// warmUp walks the walker to the warm-up boundary. Injection points all lie
// at or past it, so pre-walking replays exactly the Steps advance would have
// taken.
func (m *vmModel) warmUp() error {
	m.walkTo(m.cfg.Warmup)
	return nil
}

func (m *vmModel) walkTo(inst uint64) {
	var ev arch.Event
	for m.sim.InstRet < inst && !m.sim.Stopped() {
		m.sim.StepInto(&ev)
	}
}

// advance walks the walker to point i, then finds the next register-writing
// instruction and executes it; its event carries the result to corrupt. A
// halt on the way truncates the campaign.
func (m *vmModel) advance(i int) (bool, error) {
	m.walkTo(m.points[i])
	sim := m.sim
	if sim.Excepted {
		return false, fmt.Errorf("inject: golden run excepted at %d: %v", sim.InstRet, sim.LastException)
	}
	if sim.Halted {
		return false, nil
	}
	ev := &m.inj
	for {
		sim.StepInto(ev)
		switch {
		case ev.Exception != arch.ExcNone:
			return false, fmt.Errorf("inject: golden exception at %#x", ev.PC)
		case ev.Halted:
			return false, nil
		case ev.DestValid && ev.Dest != isa.RegZero:
			return true, nil
		}
	}
}

// record gives the point its golden window, [start, start+Window) where
// start is the walker's position just after the injection, extending the
// campaign's golden log to the window's end. The walker stays at start. A
// halt inside the window truncates the campaign at this point; the log only
// ever reaches the end of the current point's window, so a halt is first
// seen by the same point as if every window were simulated on its own.
func (m *vmModel) record() (bool, error) {
	m.preRegs = m.sim.Snapshot()
	start := m.sim.InstRet
	end := start + m.cfg.Window
	if m.rec == nil || m.rec.InstRet < start {
		m.forkRecorder()
	}
	from := m.rec.InstRet
	ok, err := m.extendLog(end)
	m.goldenInsts.Add(int64(m.rec.InstRet - from))
	if !ok {
		return false, err
	}
	m.golden = &vmGolden{steps: m.log[start-m.logBase : end-m.logBase], end: m.rec.Snapshot()}
	return true, nil
}

// forkRecorder starts a recorder at the walker's position — at the first
// recorded point, or at one whose start lies beyond the recorder — with a
// fresh log, sized once to reach the last point's window. The old log is left
// to the trials still reading it.
func (m *vmModel) forkRecorder() {
	start := m.sim.InstRet
	m.rec = arch.New(m.mem.Clone(), m.entry)
	m.rec.DCache = m.dcache
	m.rec.Restore(m.sim.Snapshot())
	last := max(m.points[len(m.points)-1], start)
	m.log = make([]goldenStep, 0, last-start+m.cfg.Window+logSlack)
	m.logBase = start
}

// extendLog steps the recorder up to instruction index end under the
// walker's golden rules: an exception is an error, a halt truncates.
func (m *vmModel) extendLog(end uint64) (bool, error) {
	var ev arch.Event
	for m.rec.InstRet < end {
		m.rec.StepInto(&ev)
		switch {
		case ev.Exception != arch.ExcNone:
			return false, fmt.Errorf("inject: golden exception at %#x", ev.PC)
		case ev.Halted:
			return false, nil
		}
		m.log = append(m.log, goldenStep{pc: ev.PC, destVal: ev.DestVal, memAddr: ev.MemAddr, storeVal: ev.StoreVal})
	}
	return true, nil
}

func (m *vmModel) prepare(slot int, out *VMTrial, w *engine) bool {
	bit, dest, g, noEarlyExit := m.bits[slot], m.inj.Dest, m.golden, m.cfg.noEarlyExit
	*out = newVMTrial(m.inj.PC, bit)
	// Fork an independent memory image and simulator at the injection point
	// on the dispatching goroutine, while workers (if any) run behind it.
	fm := m.memPool.acquire(m.mem)
	fsim := arch.New(fm, m.entry)
	fsim.DCache = m.dcache
	fsim.Restore(m.preRegs)
	fsim.SetReg(dest, fsim.Reg(dest)^(1<<bit))
	pool := m.memPool
	w.submit(slot, func() {
		runVMTrial(fsim, dest, g, out, noEarlyExit)
		pool.release(fm)
	})
	return false
}

func (t VMTrial) outcome(window uint64) string { return t.CategoryAt(window).String() }

// newVMTrial starts the record of the trial at (point, bit) with no symptom
// observed.
func newVMTrial(point uint64, bit uint8) VMTrial {
	return VMTrial{Point: point, Bit: bit, ExcLat: Never, CFVLat: Never, MemAddrLat: Never, MemDataLat: Never}
}

// regLedger tracks which architectural registers currently hold a value that
// differs from the golden run.
type regLedger struct {
	diverged [32]bool
	n        int
}

func (l *regLedger) mark(r isa.Reg, diff bool) {
	if i := int(r) % 32; r != isa.RegZero && l.diverged[i] != diff {
		l.diverged[i] = diff
		if diff {
			l.n++
		} else {
			l.n--
		}
	}
}

// runVMTrial executes the faulty continuation against the golden window and
// classifies its outcome into trial. Once the faulty machine halts behind a
// control-flow divergence, every remaining Step is a stopped no-op that can
// no longer change the classification, so the replay stops early (unless
// noEarlyExit asks for the full-window proof mode).
func runVMTrial(sim *arch.Sim, injReg isa.Reg, golden *vmGolden, trial *VMTrial, noEarlyExit bool) {
	// Divergence ledgers: registers and memory addresses whose faulty
	// values currently differ from golden. The injected register starts
	// diverged.
	var regs regLedger
	regs.mark(injReg, true)
	divergedMem := make(map[uint64]bool)
	cfv := false
	var ev arch.Event
	for i := range golden.steps {
		lat := uint64(i) + 1
		g := &golden.steps[i]
		sim.StepInto(&ev)

		if ev.Exception != arch.ExcNone {
			trial.ExcLat = lat
			trial.ExcKind = ev.Exception
			return // execution cannot continue (Section 3.2.1)
		}
		if cfv {
			// After control-flow divergence only exceptions are
			// meaningful; keep running the faulty path. A halted faulty
			// machine, though, steps as a stopped no-op forever — the
			// same event every time, never an exception — so nothing in
			// the remaining window can change the classification.
			if ev.Halted && !noEarlyExit {
				break
			}
			continue
		}
		if ev.PC != g.pc {
			trial.CFVLat = lat
			cfv = true
			continue
		}
		if ev.DestValid {
			regs.mark(ev.Dest, ev.DestVal != g.destVal)
		}
		if ev.IsLoad || ev.IsStore {
			if ev.MemAddr != g.memAddr {
				if trial.MemAddrLat == Never {
					trial.MemAddrLat = lat
				}
				if ev.IsStore {
					divergedMem[ev.MemAddr] = true
					divergedMem[g.memAddr] = true
				}
			} else if ev.IsStore {
				if ev.StoreVal != g.storeVal {
					if trial.MemDataLat == Never {
						trial.MemDataLat = lat
					}
					divergedMem[ev.MemAddr] = true
				} else {
					delete(divergedMem, ev.MemAddr)
				}
			}
		}
		if regs.n == 0 && len(divergedMem) == 0 {
			// All architectural effects have washed out; determinism
			// guarantees the remainder of the run matches the golden
			// execution exactly.
			trial.Masked = true
			return
		}
	}
	if cfv {
		return
	}

	// Window complete without exception or control divergence: masked iff
	// all architectural effects washed out.
	if regs.n == 0 && len(divergedMem) == 0 {
		trial.Masked = true
		// Cross-check registers against the golden end state; the
		// ledger should never disagree, but memory aliasing through
		// differing addresses is approximated, so verify cheaply.
		for r := 0; r < 31; r++ {
			if sim.Regs[r] != golden.end.Regs[r] {
				trial.Masked = false
				break
			}
		}
	}
}
