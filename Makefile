# Reproduction of ReStore (Wang & Patel, DSN 2005). Plain Go, no
# dependencies; every target below is what CI runs.

GO ?= go

.PHONY: all build test race engine proof bench-module lint vet staticcheck restorelint fuzz bench bench-baseline bench-check telemetry resume serve serve-smoke protect clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full suite under the race detector (what CI gates on).
race:
	$(GO) test -race ./...

# The campaign engine's own gate: injection + experiment packages under the
# race detector, where the parallel engine's disjoint-slot writes and the
# clone pool are checked hardest.
engine:
	$(GO) test -race ./internal/inject/... ./internal/experiments/...

# The paper-scale proof run: fig4, fig4-latches and fig6 at seed 42, every
# slot with the µarch campaign's shortcuts against full simulation. Minutes,
# not seconds, so it sits behind a build tag outside `test`.
proof:
	$(GO) test -tags proof -run TestPaperScaleProof -timeout 30m ./internal/inject

# The campaign benchmark (bench/, run by bench/run.sh) is a separate module
# that the root build and test skip. Vet and test it so an inject or
# experiments API change cannot break the benchmark unnoticed.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# lint = vet + staticcheck (when installed) + restorelint. staticcheck is
# optional locally — CI installs it — so the target degrades gracefully on
# machines without it.
lint: vet staticcheck restorelint

vet:
	$(GO) vet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# restorelint is the repo's own multichecker (tools/restorelint): simulator
# determinism, isa.Op switch exhaustiveness, StateSpace mutation ownership,
# bit-width hygiene, and state-registration completeness. It subsumes the
# former tools/statecheck.
restorelint:
	$(GO) run ./tools/restorelint

# Short fuzz passes over the assembler, the decoder, the journal scan, the
# manifest reader, the checkpoint container, the golden-image loader, the
# daemon's job-spec decoder and its job.json loader (regression corpus plus
# 10s of new inputs each).
fuzz:
	$(GO) test ./internal/asm -run '^$$' -fuzz FuzzAssemble -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/isa -run '^$$' -fuzz FuzzDecode -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/campaignio -run '^$$' -fuzz FuzzScanJournal -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/campaignio -run '^$$' -fuzz FuzzReadManifest -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/ckptio -run '^$$' -fuzz FuzzReadImage -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/pipeline -run '^$$' -fuzz FuzzLoadGoldenImage -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzDecodeSpec -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzLoadJob -fuzztime 10s -fuzzminimizetime 1s

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Benchmark baseline. bench-baseline regenerates the committed
# BENCH_pipeline.json from a fresh run; bench-check is what CI's bench job
# runs — the same sweep diffed against the committed baseline, failing on a
# >25% ns/op regression, a >40% campaign trials/s drop, or any allocs/op
# growth in a hot-path benchmark.
BENCHTIME ?= 0.2s

bench-baseline:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -run '^$$' . | $(GO) run ./tools/benchdiff -write BENCH_pipeline.json

bench-check:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -run '^$$' . | $(GO) run ./tools/benchdiff -baseline BENCH_pipeline.json

# Runs a small instrumented campaign plus a traced ReStore run and prints
# the telemetry (internal/obs); the program itself re-proves the inertness
# contract before printing anything.
telemetry:
	$(GO) run ./examples/telemetry

# Durable-campaign smoke test: interrupt/resume, SIGTERM recovery, and
# shard+merge on the built CLI, each diffed byte-for-byte against a
# one-shot run (tools/resume_smoke.sh; CI's durable-campaigns job).
resume:
	sh ./tools/resume_smoke.sh

# The campaign service daemon on a local root. Submit jobs from another
# shell: restore-sim -root $(SERVE_ROOT) submit fig2; see README.md
# ("service mode") for the HTTP API.
SERVE_ROOT ?= service-root

serve:
	$(GO) run ./cmd/restore-sim -root $(SERVE_ROOT) serve

# Campaign-service smoke test: daemon SIGKILLed mid-job, restarted, job
# auto-resumes to merged output byte-identical to a one-shot run; graceful
# and forced shutdown paths too (tools/service_smoke.sh; CI's
# campaign-service job).
serve-smoke:
	sh ./tools/service_smoke.sh

# The static→hardening loop: derive budgeted protection policies from the
# bit-level static analysis (JSON + predicted coverage, no injection), then
# measure them against the hand-picked parity/ECC placement and sweep the
# check-bit budget on small campaigns. Paper-scale measurement is the
# TestProtectAcceptance gate under `make test`.
protect:
	$(GO) run ./cmd/restore-sim protect
	$(GO) run ./cmd/restore-sim -trials 0.1 protect-compare
	$(GO) run ./cmd/restore-sim -trials 0.1 budget-sweep

clean:
	$(GO) clean ./...
