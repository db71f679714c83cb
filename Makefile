# Fex build/test/bench entry points.
GO ?= go

.PHONY: build test race bench-smoke chaos gate gate-baseline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# chaos runs the cluster tier under randomized seeded fault schedules
# (outages, latency, load skew, hangs on the non-pristine hosts) plus
# the fixed fault-schedule determinism matrix (flap, slow host with and
# without speculation, hang, load skew, slow majority) and asserts the
# merged log and CSV stay byte-identical to serial every round. The seed is printed
# on failure; reproduce with `make chaos FEX_CHAOS_SEED=<seed>`.
FEX_CHAOS_SEED ?=
FEX_CHAOS_ROUNDS ?= 5
chaos:
	FEX_CHAOS_SEED=$(FEX_CHAOS_SEED) FEX_CHAOS_ROUNDS=$(FEX_CHAOS_ROUNDS) \
		$(GO) test -race -count=1 \
		-run 'TestClusterChaosSeededFaults|TestClusterDeterminismUnderFaultSchedules' \
		./internal/core/ -v

# bench-smoke runs every benchmark in the module exactly once — the CI
# guard that keeps the bench suite compiling and passing its internal
# shape assertions without paying for statistically meaningful timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The quickstart configuration gated in CI: every metric, wall time
# included, is modeled and machine-independent, so the committed baseline
# run set compares byte-for-byte-equal on any host.
GATE_ARGS := run -n phoenix -t gcc_native gcc_asan -b histogram word_count \
	-i test -r 2 --state .gate.state

# gate re-runs the quickstart configuration and fails on any significant
# regression against the committed baseline (fex self-hosting in CI).
# The state file is removed up front too: a stale store left by a failed
# prior run would mix old-fingerprint cells into the fresh one and turn
# the verdict into a confusing ambiguous-cell error.
gate:
	@rm -f .gate.state
	$(GO) run ./cmd/fex $(GATE_ARGS)
	$(GO) run ./cmd/fex gate -baseline testdata/quickstart_baseline --state .gate.state
	@rm -f .gate.state

# gate-baseline regenerates the committed baseline run set from a fresh
# quickstart run. Commit the result after an intentional metrics change.
gate-baseline:
	@rm -f .gate.state
	rm -rf testdata/quickstart_baseline
	$(GO) run ./cmd/fex $(GATE_ARGS)
	$(GO) run ./cmd/fex export -o testdata/quickstart_baseline --state .gate.state
	@rm -f .gate.state
