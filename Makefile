# Taming the Killer Microsecond — reproduction workflows.

GO ?= go

.PHONY: all test race bench bench-engine bench-baseline bench-cluster bench-cluster-baseline figures fleet fleet-shards extensions examples cover clean serve sweep-par chaos

all: test

test:
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Engine, access-path and sweep benchmarks, gated against the committed
# baseline (fails on a >25% rate regression or allocs/op >5% above the
# baseline; see cmd/benchgate).
bench-engine:
	$(GO) test -bench . -benchtime=0.2s -count=3 -run '^$$' ./internal/sim/ ./internal/core/ ./internal/experiments/ | tee bench_engine.txt
	$(GO) run ./cmd/benchgate -baseline BENCH_engine.json -input bench_engine.txt

# Refresh BENCH_engine.json from a fresh run on this machine (old floors
# and allocs/op ceilings are never loosened).
bench-baseline:
	$(GO) test -bench . -benchtime=0.2s -count=3 -run '^$$' ./internal/sim/ ./internal/core/ ./internal/experiments/ | tee bench_engine.txt
	$(GO) run ./cmd/benchgate -baseline BENCH_engine.json -update -input bench_engine.txt

# Regenerate every paper figure + ablation (text) and per-figure CSVs.
figures:
	$(GO) run ./cmd/killerusec -all -outdir figures_csv

# Full paper sweep across all cores with an on-disk cell cache —
# byte-identical output to the serial `figures` target.
sweep-par:
	$(GO) run ./cmd/killerusec -all -parallel $(shell nproc 2>/dev/null || sysctl -n hw.ncpu) -cachedir .kucache -outdir figures_csv

# Cluster-scale fleet sweep: routing policies, arrival shapes, and
# backend mechanisms vs fleet-merged tail latency, rendered with the
# per-instance saturation view. Fleet cells run a lookahead policy's
# whole arrival phase across the cores -parallel leaves free; window
# advances are serial.
fleet:
	$(GO) run ./cmd/killerusec -fleet -json fleet_run.json
	$(GO) run ./cmd/kurec fleet fleet_run.json -instances

# Determinism gate for the sharded fleet executor: the quick fleet
# sweep must be byte-identical at 1 and 4 shards. At -parallel 1 each
# fleet cell gets GOMAXPROCS shards.
fleet-shards:
	GOMAXPROCS=1 $(GO) run ./cmd/killerusec -fleet -quick -parallel 1 -json fleet_s1.json > fleet_s1.txt
	GOMAXPROCS=4 $(GO) run ./cmd/killerusec -fleet -quick -parallel 1 -json fleet_s4.json > fleet_s4.txt
	cmp fleet_s1.json fleet_s4.json
	cmp fleet_s1.txt fleet_s4.txt
	@echo "fleet reports byte-identical at 1 and 4 shards"

# Fleet benchmarks, gated against the committed baseline (rate floors
# everywhere; on >=4-proc machines also a >=2x shards=4 speedup on the
# prerouted configuration).
bench-cluster:
	$(GO) test -bench BenchmarkFleet -benchtime=0.3s -count=3 -run '^$$' ./internal/cluster/ | tee bench_cluster.txt
	$(GO) run ./cmd/benchgate -baseline BENCH_cluster.json -input bench_cluster.txt

# Refresh BENCH_cluster.json's measured rates from this machine (old
# floors and allocs/op ceilings are never loosened, and hand-pinned
# speedup gates survive the update).
bench-cluster-baseline:
	$(GO) test -bench BenchmarkFleet -benchtime=0.3s -count=3 -run '^$$' ./internal/cluster/ | tee bench_cluster.txt
	$(GO) run ./cmd/benchgate -baseline BENCH_cluster.json -update -input bench_cluster.txt

# Run the sweep service daemon on :8080 with crash recovery.
serve:
	$(GO) run ./cmd/kurecd -addr :8080 -journal kurecd.wal -cachedir .kucache

# Crash-recovery end-to-end: SIGKILL a real kurecd mid-sweep at seeded
# points, restart it over the same journal + cache dir, and require a
# byte-identical recovered report (see internal/chaos).
chaos:
	$(GO) test -race -v -count=1 ./internal/chaos/

extensions:
	$(GO) run ./cmd/killerusec -ext

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mechanisms
	$(GO) run ./examples/graphsearch
	$(GO) run ./examples/kvcache
	$(GO) run ./examples/queuesizing

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -rf figures_csv cover.out .kucache bench_engine.txt bench_cluster.txt kurecd.wal kurecd.wal.reports fleet_run.json fleet_s1.json fleet_s1.txt fleet_s4.json fleet_s4.txt
