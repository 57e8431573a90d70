# Log-based coherency reproduction — build/test/experiment entry points.

GO ?= go

.PHONY: all build vet lint cover test race chaos crashpoints lbcload-smoke bench bench-commit bench-check bench-recover bench-recover-check bench-scale bench-scale-check bench-wire bench-wire-check table2 table3 figures examples clean

# Total coverage floor enforced by `make cover` (CI's coverage job).
COVER_MIN ?= 70

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Uses staticcheck and golangci-lint when
# installed; CI installs both, locally they are optional.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v golangci-lint >/dev/null 2>&1; then golangci-lint run; \
	else echo "lint: golangci-lint not installed, skipping"; fi

# Per-package coverage summary plus a hard floor on total coverage.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -20
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk "BEGIN{exit !($$total >= $(COVER_MIN))}" || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Deterministic fault-injection suite: every named scenario across a
# spread of seeds (failures print the seed; replay with -seed N).
chaos:
	$(GO) test -race -count=1 ./internal/chaos/
	$(GO) run ./cmd/chaosrun -runs 10

# Disk crash-point sweep: a simulated power cut at every write/sync
# boundary of the scripted workload, recovery + invariants checked at
# each point. A failing line is a (seed, crashpoint) replay recipe.
CRASHPOINT_SEED  ?= 42
CRASHPOINT_RUNS  ?= 3
crashpoints:
	$(GO) run ./cmd/chaosrun -crashpoints -seed $(CRASHPOINT_SEED) -runs $(CRASHPOINT_RUNS)

# cmd/lbcload is a module of its own, so `go test ./...` here never
# reaches it. Its tests run every benchmark workload for a second with
# all correctness checks on: a program change that breaks one fails here
# rather than in the benchmark gate.
lbcload-smoke:
	$(GO) vet -C cmd/lbcload ./... && $(GO) test -C cmd/lbcload ./...

# Full benchmark sweep (every table and figure + ablations).
bench:
	$(GO) test -bench=. -benchmem ./...

# Group-commit throughput sweep: per-tx fsync vs shared Append+Sync.
bench-commit:
	$(GO) run ./cmd/commitbench -o BENCH_commit.json

# Regression gate: re-run the sweep and fail if the best group-commit
# speedup drops below 80% of the committed baseline.
bench-check:
	$(GO) run ./cmd/commitbench -check -baseline BENCH_commit.json

# Recovery-time sweep: cold log vs checkpoint-marker log over one
# committed history.
bench-recover:
	$(GO) run ./cmd/recoverbench -o BENCH_recover.json

# Regression gate: the checkpoint's tail-only-replay benefit must hold
# at 60% of the committed baseline.
bench-recover-check:
	$(GO) run ./cmd/recoverbench -check -baseline BENCH_recover.json

# Sharded-coherency scale sweep: 2..16-node clusters under skewed lock
# ownership, consistent-hash homes + migration + interest routing vs
# the flat broadcast baseline.
bench-scale:
	$(GO) run ./cmd/scalebench -o BENCH_scale.json

# Regression gate: the largest/smallest-cluster throughput ratio must
# clear the 3x structural floor and hold 80% of the committed baseline,
# and interest routing must still cut the per-node frame load.
bench-scale-check:
	$(GO) run ./cmd/scalebench -check -baseline BENCH_scale.json

# Wire-efficiency sweep: OO7 T2 update broadcasts at 2/8/16 nodes,
# compressed batch frames vs the NoCompress baseline — bytes/frames
# per transaction, compression ratio, send-stall quantiles.
bench-wire:
	$(GO) run ./cmd/wirebench -o BENCH_wire.json

# Regression gate: compression must cut wire bytes at least 3x at
# every size and hold 80% of the committed baseline's ratio.
bench-wire-check:
	$(GO) run ./cmd/wirebench -check -baseline BENCH_wire.json

# Individual experiments.
table2:
	$(GO) run ./cmd/microbench

table3:
	$(GO) run ./cmd/oo7bench -table3

figures:
	$(GO) run ./cmd/oo7bench -fig 1
	$(GO) run ./cmd/oo7bench -fig 2
	$(GO) run ./cmd/oo7bench -fig 3
	$(GO) run ./cmd/figures -fig 4
	$(GO) run ./cmd/figures -fig 5
	$(GO) run ./cmd/figures -fig 7
	$(GO) run ./cmd/oo7bench -fig 8

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/collabdesign
	$(GO) run ./examples/hotstandby
	$(GO) run ./examples/versionedread

clean:
	$(GO) clean ./...
