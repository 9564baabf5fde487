// Command restore-trace runs a program on the detailed pipeline model and
// prints its commit trace and run statistics — a debugging lens over the
// simulator used throughout the ReStore reproduction.
//
// Usage:
//
//	restore-trace [flags] <bench-name | asm-file.s>
//
// The argument is either one of the seven synthetic benchmarks (bzip2, gap,
// gcc, gzip, mcf, parser, vortex) or a path to an assembly file in the
// internal/asm syntax.
//
// Examples:
//
//	restore-trace -n 40 gzip
//	restore-trace -n 100 -corrupt r10:45 myprog.s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "restore-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("restore-trace", flag.ContinueOnError)
	var (
		n       = fs.Uint64("n", 50, "instructions to trace")
		skip    = fs.Uint64("skip", 0, "instructions to run before tracing")
		seed    = fs.Int64("seed", 42, "workload seed (benchmarks only)")
		scale   = fs.Float64("scale", 1.0, "workload data-structure scale (benchmarks only)")
		corrupt = fs.String("corrupt", "", "flip a bit before tracing, e.g. r10:45")
		quiet   = fs.Bool("stats-only", false, "suppress the trace; print statistics only")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: restore-trace [flags] <bench-name | asm-file.s>\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one program argument required")
	}

	prog, err := loadProgram(fs.Arg(0), *seed, *scale)
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

	if *skip > 0 {
		pipe.RunRetired(*skip, *skip*100+10_000)
	}
	if *corrupt != "" {
		reg, bit, err := parseCorrupt(*corrupt)
		if err != nil {
			return err
		}
		pipe.CorruptArchReg(reg, bit)
		fmt.Fprintf(stdout, "injected: bit %d of %s flipped\n", bit, reg)
	}

	tw := trace.NewWriter(stdout, *n)
	if !*quiet {
		pipe.CommitHook = tw.Commit
		fmt.Fprintf(stdout, "%10s  %-12s  %-24s\n", "index", "pc", "instruction")
	}
	for !tw.Done() && pipe.Status() == pipeline.StatusRunning {
		pipe.Cycle()
		if *quiet && pipe.Retired() >= *skip+*n {
			break
		}
	}
	if err := tw.Err(); err != nil {
		return err
	}
	if pipe.Status() != pipeline.StatusRunning {
		kind, pc, addr := pipe.Exception()
		fmt.Fprintf(stdout, "\npipeline stopped: %v", pipe.Status())
		if pipe.Status() == pipeline.StatusExcepted {
			fmt.Fprintf(stdout, " (%v at pc=%#x addr=%#x)", kind, pc, addr)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout)
	return trace.Summary(stdout, pipe.Stats())
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
