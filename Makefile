GO ?= go

.PHONY: build test check lint cover bench bench-paper bench-selftest gate gate-update chaos fuzz mdcheck loc serve-smoke quant-smoke span-smoke ps-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: static analysis over everything, plus the
# race detector on the concurrency-heavy packages (the Hogwild engines race
# goroutines on a shared model by design; the observability recorders must
# stay safe under that).
check:
	$(GO) vet ./...
	$(GO) test -race ./internal/core ./internal/obs ./internal/serve ./internal/span

# lint runs the static analyzers beyond vet. staticcheck and govulncheck
# are optional locally (this module is stdlib-only and builds offline); CI
# installs both. The guards keep the target usable on a hermetic machine.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# cover produces the coverage profile. The floor is soft: the number is
# reported (and warned about in CI below 60%), never failed on.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1

# gate is the convergence regression gate: re-run the full 14-config matrix
# (the paper's 8-way cube, the ps tiers, the Local-SGD tiers, the
# heterogeneous CPU+GPU tiers) at seeded gate scale and compare against the
# committed goldens/envelopes.
# After an intentional behaviour change, regenerate with gate-update and
# commit the new testdata.
gate:
	$(GO) run ./cmd/sgdgate compare -report gate-report.json

gate-update:
	$(GO) run ./cmd/sgdgate compare -update

# bench runs the system benchmark behind BENCHMARK.json: every workload once
# at seed 1, end-to-end metrics only (~25 s each; the last stdout line of
# each run is its JSON result). It builds under .bench_build/ and writes
# nothing else. See benchmark/README.md for --trace 1 and the A/A study.
bench:
	@for w in sync-kernels async-hogwild replica-merge ps-cluster serve-hotswap; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 22 --trace 0 || exit 1; \
	done

# bench-paper regenerates the paper's tables at a small scale with a trace.
bench-paper:
	$(GO) run ./cmd/sgdbench -experiment table2,table3 -maxn 1000 -trace run.jsonl -obs

# bench-selftest vets and tests benchmark/, the system benchmark behind
# BENCHMARK.json. It is a module of its own (repro/benchmark), so `build`,
# `test` and `check` at the root never compile it; this does, in under a
# second (its tests cover the benchmark's arithmetic, not the workloads).
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# chaos runs the 12-config ladder (the paper's 8 engines plus the Local-SGD
# and heterogeneous CPU+GPU tiers) under the storm fault plan on the
# virtual-time scheduler and writes the degradation report: the paper's
# sync-fragile/async-robust contrast as a JSON artifact. Pick other plans
# with CHAOS_PLAN (see `go run ./cmd/sgdchaos -list`).
CHAOS_PLAN ?= storm
chaos:
	$(GO) run ./cmd/sgdchaos -plan $(CHAOS_PLAN) -out chaos-report.json

# mdcheck verifies every relative link, heading anchor and code-span
# repository path in the repo's markdown docs (offline; external URLs are
# not fetched). Non-blocking in
# CI's lint job, but cheap enough to run before any docs commit.
mdcheck:
	$(GO) run ./cmd/mdcheck .

# loc prints non-test Go lines per package (cat | wc -l, comments and blanks
# included) — the count every ROADMAP acceptance line quotes.
loc:
	@for d in $$(find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) $$d; done

# serve-smoke is the serving A/B gate: train a small LR in-process, drive
# the production serving stack batched (MaxBatch=64) and unbatched
# (MaxBatch=1) at equal worker count, and fail unless micro-batching buys
# at least 2x throughput. The report goes to a temp path so the run never
# dirties the working tree.
serve-smoke:
	$(GO) run ./cmd/sgdload -inproc -duration 2s -conc 64 -check -min-speedup 2 \
		-out $${SERVE_TMP:-$$(mktemp -t serve-smoke.XXXXXX.json)}

# quant-smoke is the int8 serving gate: drive the same serving stack float
# then quantised, probe every row's score against the analytic error bound,
# and fail if the quantised path costs throughput (serving requests are
# dispatch-dominated, so the floor is "no slower than ~0.8x float"; the
# kernels themselves are timed by benchmark/'s linalg.*_score_ms probes).
quant-smoke:
	$(GO) run ./cmd/sgdload -quant-ab -duration 2s -conc 64 -check -expect-speedup 0.8 \
		-out $${QUANT_TMP:-$$(mktemp -t quant-smoke.XXXXXX.json)}

# span-smoke is the tracing/SLO gate: a healthy sgdserve must keep its SLO
# quiet with >= 95% of the p99 tail attributed to named spans, and the same
# server under the storm fault plan must fire the multi-window burn-rate
# alert. See scripts/span_smoke.sh; artifacts land in SPAN_SMOKE_DIR (or a
# temp dir) so the tree stays clean.
span-smoke:
	GO=$(GO) sh scripts/span_smoke.sh

# ps-smoke is the parameter-server degradation gate: run the sharded tier
# (ps-sync and ps-async) under the storm fault plan on the virtual-time
# scheduler and fail unless the barriered tier degrades at least 2x more
# than apply-on-arrival — the paper's cluster contrast as a CI assertion.
# The report goes to a temp path so the run never dirties the tree.
ps-smoke:
	$(GO) run ./cmd/sgdps -plan storm -assert-contrast 2 \
		-out $${PS_TMP:-$$(mktemp -t ps-report.XXXXXX.json)}

# fuzz exercises the input-boundary fuzz targets for a bounded time each.
# The minimize budget is capped: on a small box, minimizing a multi-KB
# interesting input can otherwise consume the entire fuzz budget.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzReadLIBSVM -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/data
	$(GO) test -fuzz FuzzCSRBuilder -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/sparse
	$(GO) test -fuzz FuzzPSFrame -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/ps
	$(GO) test -fuzz FuzzReadJSONL -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/obs
	$(GO) test -fuzz FuzzParseObjectives -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/span
