package inject

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/ckptio"
	"repro/internal/harden"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/protect"
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

	// Policy, if non-nil, applies a protection policy (internal/protect)
	// at this campaign's architectural fault model: the flipped result bit
	// lives in the physical register file, so a policy covering "prf.val"
	// absorbs every trial (ECC corrects the flip before any consumer reads
	// it; parity detects it and a flush refetches). Bit picks stay
	// pre-drawn, so trial plans are identical under every policy; the
	// policy fingerprint enters the durable-campaign plan string.
	Policy *protect.Policy

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
// program once; at each injection point the post-injection continuation is
// simulated once to record a golden event trace, then each trial replays
// the continuation with one result bit flipped, comparing event-by-event —
// serially, or fanned out across cfg.Workers goroutines with bit-identical
// results (every bit pick is pre-drawn on the dispatching goroutine and
// every trial fills a pre-assigned result slot).
//
// If the golden program halts before an injection point or inside a golden
// observation window (a short workload at small Scale), the remaining
// points are truncated and the partial result is returned.
//
// With ResumeFrom set the campaign is durable: completed trials are
// journalled and recovered on the next run (see the package comment in
// journal.go). With ShardCount > 1 only the owned slots run — the returned
// result is partial and MergeVM reassembles the full one. When Interrupt
// fires, in-flight trials drain, the journal flushes, and RunVM returns
// ErrInterrupted.
func RunVM(cfg VMConfig) (*VMResult, error) {
	cfg.applyDefaults()
	m, err := newVMModel(&cfg)
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
// continuation on the architectural simulator. Serially, every trial rewinds
// the golden simulator and its write-journalled memory in place; with
// Workers > 1 each trial runs on a pooled fork instead. Both serve real
// campaigns and yield identical bytes.
type vmModel struct {
	cfg          *VMConfig
	entry        uint64
	mem          *mem.Memory
	sim          *arch.Sim
	dcache       *isa.DecodeCache
	parallel     bool
	prfProtected bool
	points       []uint64 // injection instruction indices, ascending
	bits         []uint8  // per slot

	inj     arch.Event    // the injection instruction at the current point
	preRegs arch.Snapshot // golden registers just after inj
	preMark mem.Mark      // memory write-journal mark just after inj
	golden  *vmGolden

	// memPool recycles per-trial memory images for the parallel path.
	memPool *forkPool[*mem.Memory]
}

// vmGolden is one point's recorded golden continuation. Workers hold it
// while the dispatcher records the next point's, so the parallel path
// allocates one per point; the serial path reuses one.
type vmGolden struct {
	events []arch.Event
	end    arch.Snapshot
}

func newVMModel(cfg *VMConfig) (*vmModel, error) {
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	memory, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	memory.EnableJournal()
	m := &vmModel{
		cfg:      cfg,
		entry:    prog.Entry,
		mem:      memory,
		sim:      arch.New(memory, prog.Entry),
		parallel: cfg.Workers > 1,
		// This campaign's fault model corrupts one register-file value, so
		// a policy covering the PRF absorbs every trial at the injection
		// site. Evaluated once, against the policy itself — campaign code
		// never reads a compiled protection map directly (see
		// consultProtection).
		prfProtected: cfg.Policy.ProtectionOf("prf.val") != harden.Unprotected,
		memPool:      newForkPool(cfg.Obs, "campaign_vm_mem_pool", (*mem.Memory).Clone, (*mem.Memory).CopyFrom),
	}
	if !cfg.noDecodeCache {
		// Decode the code image once; the golden simulator and every
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

// warmUp walks the golden simulator to the warm-up boundary. Injection points
// all lie at or past it, so pre-walking replays exactly the Steps advance
// would have taken; memory-journal records written before the first point's
// mark are never rewound, only discarded, so a run restored from an image is
// byte-identical (TestVMGoldenImageEquivalence).
func (m *vmModel) warmUp() { m.walkTo(m.cfg.Warmup) }

func (m *vmModel) walkTo(inst uint64) {
	for m.sim.InstRet < inst && !m.sim.Stopped() {
		m.sim.Step()
	}
}

func (m *vmModel) loadImage(path string, workers int) error {
	return loadVMGolden(path, []byte(m.cfg.goldenKey()), m.sim, m.mem, workers)
}

func (m *vmModel) saveImage(path string, workers int) (ckptio.Stats, error) {
	return writeVMGolden(path, []byte(m.cfg.goldenKey()), m.sim, m.mem, workers)
}

// advance walks the golden simulator to point i, then finds the next
// register-writing instruction and executes it; its event carries the result
// to corrupt. A halt on the way truncates the campaign.
func (m *vmModel) advance(i int) (bool, error) {
	m.walkTo(m.points[i])
	sim := m.sim
	if sim.Excepted {
		return false, fmt.Errorf("inject: golden run excepted at %d: %v", sim.InstRet, sim.LastException)
	}
	if sim.Halted {
		return false, nil
	}
	for {
		ev := sim.Step()
		switch {
		case ev.Exception != arch.ExcNone:
			return false, fmt.Errorf("inject: golden exception at %#x", ev.PC)
		case ev.Halted:
			return false, nil
		case ev.DestValid && ev.Dest != isa.RegZero:
			m.inj = ev
			return true, nil
		}
	}
}

// record simulates the golden continuation once; a halt inside the window
// truncates the campaign at this point.
func (m *vmModel) record() (bool, error) {
	m.preRegs, m.preMark = m.sim.Snapshot(), m.mem.Snapshot()
	if m.parallel || m.golden == nil {
		m.golden = &vmGolden{events: make([]arch.Event, 0, m.cfg.Window)}
	}
	g := m.golden
	g.events = g.events[:0]
	for i := uint64(0); i < m.cfg.Window; i++ {
		ev := m.sim.Step()
		if ev.Exception != arch.ExcNone {
			return false, fmt.Errorf("inject: golden exception at %#x", ev.PC)
		}
		if ev.Halted {
			return false, nil
		}
		g.events = append(g.events, ev)
	}
	g.end = m.sim.Snapshot()
	if m.parallel {
		m.rewind() // once: every trial forks from the injection point
	}
	return true, nil
}

func (m *vmModel) prepare(slot int, out *VMTrial, w *engine) bool {
	bit, dest, g, noEarlyExit := m.bits[slot], m.inj.Dest, m.golden, m.cfg.noEarlyExit
	*out = newVMTrial(m.inj.PC, bit)
	if m.prfProtected {
		// Absorbed at the injection site: no fault enters the machine, so
		// the trial is masked by construction.
		out.Protected, out.Masked = true, true
		return true
	}
	if !m.parallel {
		// Rewind to the injection point and corrupt the result in place.
		m.rewind()
		m.sim.SetReg(dest, m.sim.Reg(dest)^(1<<bit))
		runVMTrial(m.sim, dest, g.events, g.end, out, noEarlyExit)
		return true
	}
	// Fork an independent memory image and simulator on the dispatching
	// goroutine while workers run behind it.
	fm := m.memPool.acquire(m.mem)
	fsim := arch.New(fm, m.entry)
	fsim.DCache = m.dcache
	fsim.Restore(m.preRegs)
	fsim.SetReg(dest, fsim.Reg(dest)^(1<<bit))
	pool := m.memPool
	w.submit(slot, func() {
		runVMTrial(fsim, dest, g.events, g.end, out, noEarlyExit)
		pool.release(fm)
	})
	return false
}

// endPoint rewinds once more and makes the golden continuation permanent, so
// the walk to the next point starts clean.
func (m *vmModel) endPoint() {
	m.rewind()
	m.mem.DiscardTo(0)
}

func (m *vmModel) rewind() {
	m.mem.RestoreTo(m.preMark)
	m.sim.Restore(m.preRegs)
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

// runVMTrial executes the faulty continuation against the recorded golden
// events and classifies its outcome into trial. Once the faulty machine halts
// behind a control-flow divergence, every remaining Step is a stopped no-op
// that can no longer change the classification, so the replay stops early
// (unless noEarlyExit asks for the full-window proof mode).
func runVMTrial(sim *arch.Sim, injReg isa.Reg, golden []arch.Event, goldenEnd arch.Snapshot, trial *VMTrial, noEarlyExit bool) {
	// Divergence ledgers: registers and memory addresses whose faulty
	// values currently differ from golden. The injected register starts
	// diverged.
	var regs regLedger
	regs.mark(injReg, true)
	divergedMem := make(map[uint64]bool)
	cfv := false
	for i := range golden {
		lat := uint64(i) + 1
		g := golden[i]
		ev := sim.Step()

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
		if ev.PC != g.PC {
			trial.CFVLat = lat
			cfv = true
			continue
		}
		if ev.DestValid {
			regs.mark(ev.Dest, ev.DestVal != g.DestVal)
		}
		if ev.IsLoad || ev.IsStore {
			if ev.MemAddr != g.MemAddr {
				if trial.MemAddrLat == Never {
					trial.MemAddrLat = lat
				}
				if ev.IsStore {
					divergedMem[ev.MemAddr] = true
					divergedMem[g.MemAddr] = true
				}
			} else if ev.IsStore {
				if ev.StoreVal != g.StoreVal {
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
			if sim.Regs[r] != goldenEnd.Regs[r] {
				trial.Masked = false
				break
			}
		}
	}
}
