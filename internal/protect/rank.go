package protect

import (
	"fmt"
	"sort"

	"repro/internal/pipeline"
	"repro/internal/staticvuln"
	"repro/internal/workload"
)

// The optimizer predicts, per named state element, how much of a benchmark's
// failure mass a parity/ECC domain over that element would absorb, then
// spends a check-bit budget greedily by failure mass per check bit. The
// prediction factors as
//
//	density(e) = occ(e) × base(e) × dataScale        (failure prob / bit)
//	mass(e)    = density(e) × totalBits(e)
//
// where occ(e) is the benchmark's measured fault-free residency of the
// structure holding e (a mostly-empty store queue contributes few vulnerable
// bit-cycles regardless of how ACE its occupied entries are), base(e) is a
// per-element vulnerability coefficient calibrated once against the suite's
// dynamic campaigns (failure rate per occupied bit — control words that
// steer retirement fail far more often per bit than payload data), and
// dataScale adjusts ClassData elements by the benchmark's statically proven
// ACE potency from internal/staticvuln: programs whose result bits are
// mostly dead (high masked fraction, short symptom latency) leak little
// failure mass through data paths. The register file alone gets a dedicated
// two-factor model (see prfDensity) — its failure mass follows potency and
// load-queue turnover, not residency.

// Profile is a benchmark's fault-free residency: mean structure fills over a
// sampled window, each normalized to capacity.
type Profile struct {
	FetchQ   float64
	ROB      float64
	Sched    float64
	STQ      float64
	LDQ      float64
	Exec     float64
	LiveRegs float64
}

// MeasureProfile runs the benchmark fault-free and averages occupancy
// samples into a residency profile. Sampling every stride-th cycle keeps the
// cost negligible next to a campaign while covering program phases.
func MeasureProfile(prog *workload.Program, warmup, window uint64) (Profile, error) {
	mem, err := prog.NewMemory()
	if err != nil {
		return Profile{}, err
	}
	p, err := pipeline.New(pipeline.DefaultConfig(), mem, prog.Entry)
	if err != nil {
		return Profile{}, err
	}
	p.RunCycles(warmup)
	const stride = 16
	var sum pipeline.OccupancySample
	execCap := float64(p.Occupancy().ExecCap)
	for c := uint64(0); c < window && p.Status() == pipeline.StatusRunning; c += stride {
		p.RunCycles(stride)
		s := p.Occupancy()
		sum.FetchQ += s.FetchQ
		sum.ROB += s.ROB
		sum.Sched += s.Sched
		sum.STQ += s.STQ
		sum.LDQ += s.LDQ
		sum.Exec += s.Exec
		sum.LiveRegs += s.LiveRegs
	}
	n := window / stride
	if n == 0 {
		n = 1
	}
	mean := func(v uint64, cap float64) float64 { return float64(v) / float64(n) / cap }
	return Profile{
		FetchQ:   mean(sum.FetchQ, pipeline.FQSize),
		ROB:      mean(sum.ROB, pipeline.ROBSize),
		Sched:    mean(sum.Sched, pipeline.SchedSize),
		STQ:      mean(sum.STQ, pipeline.STQSize),
		LDQ:      mean(sum.LDQ, pipeline.LDQSize),
		Exec:     mean(sum.Exec, execCap),
		LiveRegs: mean(sum.LiveRegs, pipeline.PhysRegs),
	}, nil
}

// occSource selects which residency figure scales an element's density.
type occSource uint8

const (
	occOne   occSource = iota // always-live state (head pointers, RATs)
	occFQ                     // fetch-queue fill
	occROB                    // reorder-buffer fill
	occSched                  // scheduler fill
	occSTQ                    // store-queue fill
	occLDQ                    // load-queue fill
	occExec                   // execution-window fill
	occLive                   // allocated physical registers
)

func (p Profile) at(src occSource) float64 {
	switch src {
	case occOne:
		return 1
	case occFQ:
		return p.FetchQ
	case occROB:
		return p.ROB
	case occSched:
		return p.Sched
	case occSTQ:
		return p.STQ
	case occLDQ:
		return p.LDQ
	case occExec:
		return p.Exec
	case occLive:
		return p.LiveRegs
	}
	return 1
}

// coeff is one element's calibrated vulnerability model: which residency
// figure gates it and its base failure rate per occupied bit. Base values
// are calibrated against the suite-wide dynamic campaign at seed 42
// (per-element failure fraction divided by suite-mean residency); the
// ranking then re-weights them with the target benchmark's own residency
// and static ACE potency.
type coeff struct {
	src  occSource
	base float64
}

// model maps every registered state-element name to its coefficient. Rank
// fails loudly on a registered element missing here (and the unit tests
// compile the table against a real state space), so renaming or adding
// pipeline state forces this table to follow.
var model = map[string]coeff{
	"fq.pc":     {src: occFQ, base: 0.170},
	"fq.word":   {src: occFQ, base: 0.636},
	"fq.pred":   {src: occFQ, base: 0.042},
	"fq.head":   {src: occOne, base: 0.714},
	"fq.count":  {src: occOne, base: 0.200},
	"rob.ctl":   {src: occROB, base: 0.048},
	"rob.pc":    {src: occROB, base: 0.007},
	"rob.flags": {src: occROB, base: 0.183},
	// The register-renaming fields corrupt the architectural map when hit;
	// their per-bit failure rates rival the fetch path.
	"rob.physDest": {src: occROB, base: 0.366},
	"rob.oldPhys":  {src: occROB, base: 0.366},
	"rob.archDest": {src: occROB, base: 0.538},
	"rob.result":   {src: occROB, base: 0.134},
	"rob.aux":      {src: occROB, base: 0.005},
	"rob.head":     {src: occOne, base: 1.000},
	"rob.count":    {src: occOne, base: 0.700},
	"sched.flags":  {src: occSched, base: 0.574},
	"sched.robIdx": {src: occSched, base: 0.786},
	"sched.src1":   {src: occSched, base: 0.490},
	"sched.src2":   {src: occSched, base: 0.152},
	"sched.src3":   {src: occSched, base: 0.050},
	"stq.addr":     {src: occSTQ, base: 0.283},
	"stq.data":     {src: occSTQ, base: 0.142},
	"stq.flags":    {src: occSTQ, base: 0.319},
	"stq.robIdx":   {src: occSTQ, base: 0.050},
	"stq.head":     {src: occOne, base: 0.300},
	"stq.count":    {src: occOne, base: 0.300},
	"ldq.addr":     {src: occLDQ, base: 0.010},
	"ldq.robIdx":   {src: occLDQ, base: 0.050},
	"ldq.fwdRob":   {src: occLDQ, base: 0.050},
	"ldq.flags":    {src: occLDQ, base: 0.050},
	"ldq.head":     {src: occOne, base: 0.571},
	"ldq.count":    {src: occOne, base: 0.300},
	"prf.ready":    {src: occOne, base: 0.143},
	"specRAT":      {src: occOne, base: 0.204},
	"archRAT":      {src: occOne, base: 0.153},
	"freelist":     {src: occOne, base: 0.286},
	"exec.val":     {src: occExec, base: 0.214},
	"exec.tag":     {src: occExec, base: 0.549},
	"exec.rob":     {src: occExec, base: 1.000},
	"fetchPC":      {src: occOne, base: 1.000},
	"watchdog":     {src: occOne, base: 0.020},
	"specHist":     {src: occOne, base: 0.143},
	"retiredHist":  {src: occOne, base: 0.100},
}

// refPotency is the suite-mean static ACE potency (measured over the seven
// benchmarks at seed 42); a benchmark's dataScale is its own potency over
// this, so suite-average data elements keep their calibrated base rates.
const refPotency = 0.385

// The physical register file is the one structure the occupancy × base ×
// dataScale factorization cannot model: its failure mass does not track
// live-register residency (gcc parks the fewest live registers yet loses
// the largest failure share to the PRF). Its own two-factor fit against
// the suite campaigns at seed 42:
//
//	prfDensity = (prfBase + prfPotencyGain × potency) × (1 − prfLoadDiscount × ldq)
//
// The potency term captures how far a corrupted value propagates once
// read (compute-bound, long-dependency programs like gcc and gap sit
// high). The load-queue term captures turnover: a load-heavy program
// (mcf, vortex) rewrites destination registers from memory so quickly
// that a flipped value is usually dead before anything consumes it.
const (
	prfBase         = 0.053
	prfPotencyGain  = 0.170
	prfLoadDiscount = 0.61
)

// prfDensity is the register file's predicted failure probability per bit.
func prfDensity(rep *staticvuln.Report, prof Profile) float64 {
	d := (prfBase + prfPotencyGain*Potency(rep)) * (1 - prfLoadDiscount*prof.LDQ)
	if d < 0 {
		return 0
	}
	return d
}

// detectWindow is the symptom-detection window, in instructions, the
// latency factor assumes — matched to the campaigns' 10k-cycle windows.
const detectWindow = 10_000.0

// Potency condenses a static report into one scalar: the fraction of result
// bits whose corruption is statically proven to surface, with
// register-class bits (visible only through later reads) discounted by how
// much of the detection window their symptom latency consumes.
func Potency(rep *staticvuln.Report) float64 {
	fr := rep.SymptomFractions(false)
	lat := rep.MeanLatency(false)
	latFactor := detectWindow / (detectWindow + lat)
	return fr[staticvuln.SymException] + fr[staticvuln.SymCFV] + fr[staticvuln.SymMem] +
		fr[staticvuln.SymRegister]*latFactor
}

// ElemRank is one named element's predicted standing in the ranking.
type ElemRank struct {
	Name     string
	Kind     pipeline.Kind
	Prot     Protection // domain the kind rule assigns if selected
	Words    uint64
	Bits     uint64 // total data bits across all words
	CostBits uint64 // check bits protecting every word would cost
	Density  float64
	Mass     float64 // Density × Bits: predicted failure mass
}

// Ranking is the per-benchmark element ranking the optimizer consumes,
// sorted by failure mass per check bit, descending (ties by name).
type Ranking struct {
	Program   string
	Elems     []ElemRank
	TotalMass float64
}

// Rank scores every element of the state space for one benchmark. The
// protection domain per element follows the hardware kind — parity on
// latches (detect + flush), SEC-DED ECC on SRAM arrays. A registered
// element the model table does not cover is an error: the model must be
// recalibrated when pipeline state changes, never silently zeroed.
func Rank(space *pipeline.StateSpace, rep *staticvuln.Report, prof Profile) (*Ranking, error) {
	type group struct {
		kind      pipeline.Kind
		class     pipeline.Class
		words     uint64
		bits      uint64
		wordWidth uint64
	}
	groups := make(map[string]*group)
	var order []string
	for _, e := range space.Elements() {
		g := groups[e.Name]
		if g == nil {
			g = &group{kind: e.Kind, class: e.Class, wordWidth: uint64(e.Bits)}
			groups[e.Name] = g
			order = append(order, e.Name)
		}
		g.words++
		g.bits += uint64(e.Bits)
	}
	dataScale := Potency(rep) / refPotency
	rk := &Ranking{Program: rep.Program}
	for _, name := range order {
		g := groups[name]
		prot := Parity
		if g.kind == pipeline.KindSRAM {
			prot = ECC
		}
		var density float64
		if name == "prf.val" {
			density = prfDensity(rep, prof)
		} else {
			c, ok := model[name]
			if !ok {
				return nil, fmt.Errorf("protect: element %q registered but missing from ranking model — recalibrate", name)
			}
			density = prof.at(c.src) * c.base
			if g.class == pipeline.ClassData {
				density *= dataScale
			}
		}
		er := ElemRank{
			Name:     name,
			Kind:     g.kind,
			Prot:     prot,
			Words:    g.words,
			Bits:     g.bits,
			CostBits: g.words * ProtectionCost(prot, g.wordWidth),
			Density:  density,
			Mass:     density * float64(g.bits),
		}
		rk.Elems = append(rk.Elems, er)
		rk.TotalMass += er.Mass
	}
	sort.Slice(rk.Elems, func(i, j int) bool {
		vi := rk.Elems[i].Mass / float64(rk.Elems[i].CostBits)
		vj := rk.Elems[j].Mass / float64(rk.Elems[j].CostBits)
		if vi != vj {
			return vi > vj
		}
		return rk.Elems[i].Name < rk.Elems[j].Name
	})
	return rk, nil
}

// Optimize spends a check-bit budget greedily down the ranking: each
// element is taken whole (all words, at its kind's domain) when its cost
// still fits the remaining budget, skipped otherwise — later, cheaper
// elements may still fit. The result is deterministic for a given ranking.
func Optimize(name string, rk *Ranking, budgetBits uint64) *Policy {
	p := &Policy{Name: name, Kind: KindStaticBudget, BudgetBits: budgetBits}
	remaining := budgetBits
	for _, er := range rk.Elems {
		if er.CostBits == 0 || er.CostBits > remaining {
			continue
		}
		remaining -= er.CostBits
		p.Assign = append(p.Assign, Assignment{Elem: er.Name, Prot: er.Prot})
	}
	sort.Slice(p.Assign, func(i, j int) bool { return p.Assign[i].Elem < p.Assign[j].Elem })
	p.Predicted = PredictCoverage(rk, p)
	return p
}

// CostOf returns the check bits a policy spends over this ranking's
// elements (the budget actually consumed, as opposed to the budget given).
func (rk *Ranking) CostOf(p *Policy) uint64 {
	var spent uint64
	for _, er := range rk.Elems {
		if prot := p.ProtectionOf(er.Name); prot != Unprotected {
			spent += er.Words * ProtectionCost(prot, er.Bits/er.Words)
		}
	}
	return spent
}

// PredictCoverage returns the share of the ranking's failure mass the
// policy's protected elements account for — the static prediction of the
// dynamically measured coverage (absorbed fraction of baseline failures).
func PredictCoverage(rk *Ranking, p *Policy) float64 {
	if rk.TotalMass == 0 {
		return 0
	}
	var covered float64
	for _, er := range rk.Elems {
		if p.ProtectionOf(er.Name) != Unprotected {
			covered += er.Mass
		}
	}
	return covered / rk.TotalMass
}

// DeriveOptions parameterizes Derive.
type DeriveOptions struct {
	Seed  int64
	Scale float64
	// BudgetBits is the check-bit budget; zero means "equal budget": the
	// overhead of the paper's hand-picked placement over the same space.
	BudgetBits uint64
}

// The fault-free residency run Derive profiles: a warm-up, then a sampled
// window, in cycles.
const (
	profileWarmup = 10_000
	profileWindow = 40_000
)

// Derive closes the static→hardening loop for one benchmark: analyze the
// program statically, profile its fault-free residency, rank the state
// space, and optimize a protection policy under the budget. The returned
// ranking lets callers inspect or re-budget without re-analyzing.
func Derive(bench workload.Benchmark, opt DeriveOptions) (*Policy, *Ranking, error) {
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	if opt.Scale == 0 {
		opt.Scale = 1.0
	}
	prog, err := workload.Generate(bench, workload.Config{Seed: opt.Seed, Scale: opt.Scale})
	if err != nil {
		return nil, nil, err
	}
	rep, err := staticvuln.Analyze(prog)
	if err != nil {
		return nil, nil, err
	}
	prof, err := MeasureProfile(prog, profileWarmup, profileWindow)
	if err != nil {
		return nil, nil, err
	}
	mem, err := prog.NewMemory()
	if err != nil {
		return nil, nil, err
	}
	pl, err := pipeline.New(pipeline.DefaultConfig(), mem, prog.Entry)
	if err != nil {
		return nil, nil, err
	}
	space := pl.State()
	rk, err := Rank(space, rep, prof)
	if err != nil {
		return nil, nil, err
	}
	budget := opt.BudgetBits
	if budget == 0 {
		budget = EqualBudget(space)
	}
	pol := Optimize(fmt.Sprintf("static-budget/%s", bench), rk, budget)
	return pol, rk, nil
}
