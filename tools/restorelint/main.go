// Command restorelint is the repository's static-analysis gate: a
// multichecker over the simulator packages enforcing the invariants the
// fault-injection methodology depends on.
//
//	determinism    simulator output must be a pure function of its seeds
//	opcodeswitch   switches over isa.Op are exhaustive or carry a default
//	statemut       registered state is written only by its declared owners;
//	               private fields are used only by their struct's methods
//	bitwidth       shifts, masks, and sign extensions respect field widths
//	stateregister  every uint64 state-struct field reaches the StateSpace
//	protectpolicy  switches over protection domains and policy kinds are
//	               exhaustive or carry a default
//	hotpathalloc   //restorelint:hotpath functions are transitively
//	               allocation-free in steady state
//	goroutineshare goroutines share mutable state only through sync
//	               primitives or the pre-assigned indexed-slot idiom
//	durableio      campaignio and atomicfile fsync before publishing;
//	               campaignio CRC-checks before trusting records
//
// Usage:
//
//	go run ./tools/restorelint [package-dir ...]
//
// With no arguments it scans every package under internal/. Exit status is
// nonzero iff any diagnostic survives //restorelint:ignore suppression.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/tools/restorelint/analyzers"
	"repro/tools/restorelint/lint"
)

// scopes maps each analyzer to the package directories (relative to the
// module root, slash-separated) it gates. A nil list means every scanned
// package. The narrow scopes are deliberate: determinism heuristics would
// drown tools/ in noise, and statemut's ownership matrix only exists for
// the pipeline package.
var scopes = map[*lint.Analyzer][]string{
	analyzers.Determinism: {
		"internal/pipeline", "internal/inject", "internal/staticvuln",
		"internal/stats", "internal/experiments", "internal/restore",
	},
	analyzers.OpcodeSwitch: {
		"internal/pipeline", "internal/staticvuln", "internal/asm", "internal/trace",
	},
	analyzers.StateMut:      {"internal/pipeline"},
	analyzers.StateRegister: {"internal/pipeline"},
	analyzers.BitWidth:      nil,
	analyzers.ProtectPolicy: {
		"internal/protect", "internal/inject", "internal/experiments",
		"internal/restore",
	},
	analyzers.HotPathAlloc: {
		"internal/pipeline", "internal/mem", "internal/arch", "internal/inject",
		"internal/cache", "internal/predictor",
	},
	analyzers.GoroutineShare: {
		"internal/inject", "internal/campaignio", "internal/experiments",
		"internal/obs", "internal/restore",
	},
	analyzers.DurableIO: {"internal/campaignio", "internal/atomicfile"},
}

// order fixes the reporting order of analyzers within a package.
var order = []*lint.Analyzer{
	analyzers.Determinism,
	analyzers.OpcodeSwitch,
	analyzers.StateMut,
	analyzers.BitWidth,
	analyzers.StateRegister,
	analyzers.ProtectPolicy,
	analyzers.HotPathAlloc,
	analyzers.GoroutineShare,
	analyzers.DurableIO,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "restorelint:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	loader, err := lint.NewLoader(".")
	if err != nil {
		return err
	}

	dirs := args
	if len(dirs) == 0 {
		dirs, err = packageDirs(filepath.Join(loader.ModuleRoot, "internal"))
		if err != nil {
			return err
		}
	}

	bad := 0
	for _, dir := range dirs {
		diags, err := checkDir(loader, dir)
		if err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
		for _, d := range diags {
			fmt.Println(d)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "restorelint: %d diagnostic(s)\n", bad)
		os.Exit(1)
	}
	return nil
}

func checkDir(loader *lint.Loader, dir string) ([]lint.Diagnostic, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(loader.ModuleRoot, abs)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)

	var active []*lint.Analyzer
	for _, a := range order {
		scope := scopes[a]
		if scope == nil {
			active = append(active, a)
			continue
		}
		for _, s := range scope {
			if rel == s {
				active = append(active, a)
				break
			}
		}
	}
	if len(active) == 0 {
		return nil, nil
	}
	pkg, err := loader.Load(abs)
	if err != nil {
		return nil, err
	}
	return lint.RunAnalyzers(pkg, active...), nil
}

// packageDirs finds every directory under root with at least one non-test
// Go file, skipping testdata trees.
func packageDirs(root string) ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}
