package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

// trace runs a program on the detailed pipeline model and prints its commit
// trace and run statistics — a debugging lens over the simulator. The
// operand is one of the seven benchmarks, generated at -seed and -scale, or a
// path to an assembly file (.s or .asm) in the internal/asm syntax:
//
//	restore-sim -n 40 trace gzip
//	restore-sim -n 100 -corrupt r10:45 trace myprog.s
func (c *cli) trace() error {
	prog, err := loadProgram(c.operands[0], c.opts.Seed, c.opts.Scale)
	if err != nil {
		return err
	}
	m, err := prog.NewMemory()
	if err != nil {
		return err
	}
	pipe, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		return err
	}

	if c.skip > 0 {
		pipe.RunRetired(c.skip, c.skip*100+10_000)
	}
	if c.corrupt != "" {
		reg, bit, err := parseCorrupt(c.corrupt)
		if err != nil {
			return err
		}
		pipe.CorruptArchReg(reg, bit)
		fmt.Printf("injected: bit %d of %s flipped\n", bit, reg)
	}

	tw := trace.NewWriter(os.Stdout, c.n)
	if !c.statsOnly {
		pipe.CommitHook = tw.Commit
		fmt.Printf("%10s  %-12s  %-24s\n", "index", "pc", "instruction")
	}
	for !tw.Done() && pipe.Status() == pipeline.StatusRunning {
		pipe.Cycle()
		if c.statsOnly && pipe.Retired() >= c.skip+c.n {
			break
		}
	}
	if err := tw.Err(); err != nil {
		return err
	}
	if pipe.Status() != pipeline.StatusRunning {
		kind, pc, addr := pipe.Exception()
		fmt.Printf("\npipeline stopped: %v", pipe.Status())
		if pipe.Status() == pipeline.StatusExcepted {
			fmt.Printf(" (%v at pc=%#x addr=%#x)", kind, pc, addr)
		}
		fmt.Println()
	}

	fmt.Println()
	return trace.Summary(os.Stdout, pipe.Stats())
}

func loadProgram(name string, seed int64, scale float64) (*workload.Program, error) {
	if strings.HasSuffix(name, ".s") || strings.HasSuffix(name, ".asm") {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		return asm.Assemble(name, string(src))
	}
	return workload.Generate(workload.Benchmark(name), workload.Config{Seed: seed, Scale: scale})
}

// parseCorrupt parses "rN:bit".
func parseCorrupt(s string) (isa.Reg, uint, error) {
	reg, bitStr, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -corrupt %q (want rN:bit)", s)
	}
	num, ok := strings.CutPrefix(strings.ToLower(reg), "r")
	if !ok {
		return 0, 0, fmt.Errorf("bad register %q", reg)
	}
	r, err := strconv.ParseUint(num, 10, 8)
	if err != nil || r > 31 {
		return 0, 0, fmt.Errorf("bad register %q", reg)
	}
	bit, err := strconv.ParseUint(bitStr, 10, 8)
	if err != nil || bit > 63 {
		return 0, 0, fmt.Errorf("bad bit %q", bitStr)
	}
	return isa.Reg(r), uint(bit), nil
}
