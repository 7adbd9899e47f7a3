GO ?= go

.PHONY: all build test test-portable race vet lint lint-concurrency fuzz-short bench bench-datapath bench-smoke bench-e2e telemetry-smoke tensorbench-smoke chaos-smoke chaos-smoke-race soak-smoke check loc clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The same suite with the kernel batch datapath (DESIGN.md §4.9) forced off
# process-wide: proves sendmmsg/recvmmsg + GSO/GRO degrade to the portable
# one-syscall-per-datagram loop with no behaviour change, on a kernel that
# supports everything.
test-portable:
	DIWARP_UDP_BATCH=portable $(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Custom invariants compiled into one vettool: the datapath analyzers
# (DESIGN.md §4.5: poolcheck, hotpath, wirecheck, errflow) and the
# concurrency-invariant suite (DESIGN.md §4.10: lockorder, atomiccheck,
# unlockcheck).
bin/diwarp-vet: $(shell find cmd/diwarp-vet internal/analysis -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o bin/diwarp-vet ./cmd/diwarp-vet

lint: bin/diwarp-vet
	$(GO) vet -vettool=bin/diwarp-vet ./...

# Just the concurrency invariants (lock-order, atomic-consistency,
# unlock-path) — each analyzer name is also a selection flag on the vettool.
lint-concurrency: bin/diwarp-vet
	$(GO) vet -vettool=bin/diwarp-vet -lockorder -atomiccheck -unlockcheck ./...

# Wire-format fuzzers, 10s each (separate invocations: go test allows only
# one -fuzz target per run).
fuzz-short:
	$(GO) test ./internal/mpa -run='^$$' -fuzz=FuzzMPAHeader -fuzztime=10s
	$(GO) test ./internal/ddp -run='^$$' -fuzz=FuzzDDPSegment -fuzztime=10s
	$(GO) test ./internal/rdmap -run='^$$' -fuzz=FuzzRDMAPHeader -fuzztime=10s
	$(GO) test ./internal/msg -run='^$$' -fuzz=FuzzMsgHeader -fuzztime=10s

# Full benchmark sweep: one benchmark per paper figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Just the UD send datapath (pooled segmentation + batch submit + CRC32C).
bench-datapath:
	$(GO) test -bench='BenchmarkUDSendPath|BenchmarkChecksum' -benchmem -run=^$$ ./internal/ddp/ ./internal/crcx/

# One fast pass over both datapath benchmarks (send + batched receive):
# not for numbers — it proves the benchmarks still build, run, and hold
# the 0 allocs/op receive bar (TestRecvPathAllocFree runs alongside).
# The transport pass covers the kernel batch tiers: its alloc tests skip
# cleanly when the kernel lacks sendmmsg or the UDP_SEGMENT/UDP_GRO
# offloads (the capability probe decides at runtime).
bench-smoke:
	$(GO) test -bench='BenchmarkUDSendPath|BenchmarkUDRecvPath' -benchtime=0.2s -benchmem \
		-run='TestRecvPathAllocFree|TestSendPathAllocFree' ./internal/ddp/
	$(GO) test -bench='BenchmarkUDPSendBatch|BenchmarkUDPRecvBatch' -benchtime=0.2s -benchmem \
		-run='TestUDPSendBatchAllocFree|TestUDPRecvBatchAllocFreeKernel' ./internal/transport/

# The repository benchmark (perfbench/, BENCHMARK.json) on its three gated
# workloads, 30 s each: every run prints its JSON result as the last line.
# Not part of check — it takes minutes and measures, it does not gate.
bench-e2e:
	python3 perfbench/run.py --workload tensor-udp --seconds 30
	python3 perfbench/run.py --workload sip-churn --seconds 30
	python3 perfbench/run.py --workload rc-stream --seconds 30

# Boot the daemon over a 1%-lossy simnet, scrape its own /metrics, and
# fail unless the datapath counters show traffic, loss, and rudp recovery
# (DESIGN.md §4.6). Exits non-zero if any asserted counter is missing or 0.
# Then, under the race detector: telemetry.Scope lifetimes, the socket
# open/close churn that must leave no handle or heap behind, and the
# telemetry-imports-nothing leaf check.
telemetry-smoke:
	$(GO) run ./cmd/iwarpd -sim -loss 0.01 -duration 2s -metrics 127.0.0.1:0 -smoke-scrape
	$(GO) test -race -count=1 -run 'Scope|Churn|Leaf' ./internal/telemetry ./internal/sockif

# Message-layer workload gate (DESIGN.md §4.11): a small simnet tensor mix
# through cmd/tensorbench that must deliver every tensor with nonzero
# goodput and shut down cleanly. Exits non-zero otherwise.
tensorbench-smoke:
	$(GO) run ./cmd/tensorbench -smoke

# Fault-injection suite (DESIGN.md §4.8): the faultnet determinism tests
# plus every chaos schedule with its committed seed. A failure prints the
# seed and fault-log tail; replay with
#   go test ./internal/faultnet/chaos -run Chaos -faultnet.seed=N
chaos-smoke:
	$(GO) test -count=1 ./internal/faultnet/ ./internal/faultnet/chaos/

# The chaos schedules under the race detector, plus the sockif
# connection-establishment race regressions: the dynamic complement to the
# static lint-concurrency gate.
chaos-smoke-race:
	$(GO) test -race -count=1 ./internal/faultnet/ ./internal/faultnet/chaos/ ./internal/sockif/

# A truncated many-peer soak (DESIGN.md §4.12): 1k live reliable-datagram
# conversations on one simnet hub, exiting non-zero unless occupancy,
# delivery, and the retransmit-wheel quiescence invariant all hold. The
# full 100k run is the same command with -soak-peers 100000.
soak-smoke:
	$(GO) run ./cmd/iwarpd -soak-peers 1000 -duration 2s

# What CI should run.
check: build vet test test-portable race lint lint-concurrency telemetry-smoke tensorbench-smoke chaos-smoke chaos-smoke-race soak-smoke

# Non-test Go source size (testdata fixtures and build output excluded):
# total lines, and code lines without blanks and whole-line comments.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './.bench_build/*' \
		-exec cat {} + | awk '{n++} !/^[ \t]*(\/\/|$$)/ {c++} END {printf "non-test Go: %d lines, %d code lines\n", n, c}'

clean:
	rm -rf bin
