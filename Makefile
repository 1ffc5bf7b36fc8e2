# MPI4Spark (Go reproduction) — common targets.

.PHONY: all build vet fmt-check test deadcode waits durable bench-test bench-smoke race-all fuzz-smoke flake bench experiments examples clean

all: build vet fmt-check test

build:
	go build ./...

vet:
	go vet ./...

fmt-check:
	test -z "$$(gofmt -l .)"

test: bench-test
	go test ./... 2>&1 | tee test_output.txt

# Every declaration under internal/ must be reached from a program, a
# benchmark or another package's test (internal/deadcode). make test runs it
# too, through ./...; this target runs it alone and verbosely, so a failure
# prints each unreached declaration and the current allowlist.
deadcode:
	go test -count=1 -run TestNoUnreachableCode -v ./internal/deadcode/

# Hand-rolled waits outside internal/vtime must match internal/vtime/waits.txt,
# one line per file and kind with a reason. None is left, so any make(chan,
# select, go, sync.Cond or sync.WaitGroup fails (a wake-up is a vtime.Signal,
# a queue a vtime.Mailbox, a joined thread or fan-out a vtime.Group; that
# every owner joins its threads is harness.TestClosedClusterLeavesNoGoroutine,
# in make flake). make test runs it too; this target runs it alone and
# verbosely, so the totals and waits.txt are printed.
waits:
	go test -count=1 -run 'TestWaitCensus|TestWaitSitesOnFixture' -v ./internal/vtime/

# internal/vtime's waits (Mailbox.Recv, Reply.Wait, Signal.Park and
# Group.Wait) are durable under testing/synctest: a goroutine blocked in one
# lets synctest.Wait return, and the primitive's own signal wakes it. go1.24
# ships synctest behind GOEXPERIMENT=synctest, so a plain go test does not
# build this test.
durable:
	GOEXPERIMENT=synctest go test -count=1 -run Durable -v ./internal/vtime/

# bench/ is a Go module of its own (the repository benchmark); the root
# module's ./... does not reach its tests.
bench-test:
	cd bench && go vet ./... && go test ./...

# Four short benchmark runs: the clean data path in bulk, the same job as
# small blocks (the fixed cost of a message), the faulted path (shuffle
# service, ranged reads, refetches) and the short back-to-back jobs whose
# wall_ms a perf claim rests on. Each fails unless its last line (the JSON
# summary) reports every job's output correct, then prints its allocation
# metrics and its modelled times (vt_ms, vt_read_ms) from that line, so a CI
# log shows their trajectory.
bench-smoke:
	for w in groupby-bulk groupby-small groupby-faulty stream-microbatch; do \
		bash bench/run.sh --workload $$w --seconds 3 --trace 0 > bench_output.txt && \
		tail -n 1 bench_output.txt | grep -q '"correct":true' || exit 1; \
		echo "$$w:" $$(tail -n 1 bench_output.txt | grep -oE '"(alloc[a-z_]*|vt_ms|vt_read_ms)":\{"value":[0-9.e+-]*' | sed 's/"//g; s/:{value:/=/'); \
	done

# The whole suite, twice in one process, under the race detector: packages,
# not test names, so a renamed test cannot drop out of it, and -count=2 so a
# test that leans on process-global state (the metrics registry, a pool)
# shows it. Allocation budgets run here too, with the slack their comments
# give for the detector; the one that cannot (harness) skips on a race build
# tag.
race-all:
	go test -race -count=2 ./...

# Every committed fuzz target for five seconds each, from its committed seed
# corpus (testdata/fuzz/): go test -fuzz takes one target per invocation. New
# inputs the fuzzer keeps go to the build cache, not the checkout; a failing
# input is written under testdata/fuzz/ to be committed with its fix.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/spark/rpc/
	go test -run '^$$' -fuzz '^FuzzDecodeMergedRun$$' -fuzztime 5s ./internal/spark/shuffle/
	go test -run '^$$' -fuzz '^FuzzDeserializeOutputs$$' -fuzztime 5s ./internal/spark/shuffle/
	go test -run '^$$' -fuzz '^FuzzParseBlockID$$' -fuzztime 5s ./internal/spark/shuffle/
	go test -run '^$$' -fuzz '^FuzzResolveBlockID$$' -fuzztime 5s ./internal/spark/storage/
	go test -run '^$$' -fuzz '^FuzzDecodePairs$$' -fuzztime 5s ./internal/spark/
	go test -run '^$$' -fuzz '^FuzzReassembly$$' -fuzztime 5s ./internal/bytebuf/
	go test -run '^$$' -fuzz '^FuzzChunkFold$$' -fuzztime 5s ./internal/bytebuf/
	go test -run '^$$' -fuzz '^FuzzDecodeChunk$$' -fuzztime 5s ./internal/ucr/
	go test -run '^$$' -fuzz '^FuzzDecodeRegistration$$' -fuzztime 5s ./internal/streaming/

# Tests that were order-dependent once (the MPI launcher's executor order),
# the calibration pins (TestCalibrationPinned*), whose exact stamps must
# repeat, and the shutdown join (TestClosedClusterLeavesNoGoroutine: a closed
# cluster leaves no goroutine behind): thirty consecutive passes each. The duplicated-push test raced the
# fault plane's count under -race once: forty passes there. The executor-loss
# ordering tests (a superseded attempt's late report, the replacement's first
# tasks, the loss's failure order): thirty passes, and twenty under -race. The
# read-overlap tests (a join's and a zip's two shuffle reads in flight
# together): thirty passes on one P, each printing the same fetch waits for
# each of the eight backend cases.
flake:
	out="$$(GOMAXPROCS=1 go test -count=30 -v -run 'TestJoinReadsOverlap|TestZipReadsOverlap' ./internal/spark/)" || { echo "$$out"; exit 1; }; \
	test "$$(echo "$$out" | grep -o 'Test[A-Za-z/-]* fetch wait: .*' | sort | uniq -c | awk '$$1 == 30' | wc -l)" -eq 8
	go test -count=30 -run 'TestReceiverLinkFlapHealsWithoutLossOrDuplication|TestMPIExecutorOrderIsSeatOrder|TestCalibrationPinned|TestWindowInverseMatchesRecompute|TestWindowedResultsIdenticalAcrossTransports|TestClosedClusterLeavesNoGoroutine' ./internal/streaming/ ./internal/harness/
	go test -count=30 -run 'TestSupersededAttemptReportIsDropped|TestReplacementReceivesTasksOverItsRegistration|TestLostExecutorFailsTasksInIDOrder' ./internal/spark/
	go test -race -count=20 -run 'TestSupersededAttemptReportIsDropped|TestReplacementReceivesTasksOverItsRegistration|TestLostExecutorFailsTasksInIDOrder' ./internal/spark/
	go test -race -count=40 -run TestFaultConformanceDupPushIdempotent ./internal/spark/shuffleservice/
	go test -race -count=60 -run 'TestIsendGather$$' ./internal/mpi/

bench:
	go test -bench=. -benchmem -benchtime=3x ./... 2>&1 | tee bench_output.txt

# Regenerate every figure and table of the evaluation: every -exp but the
# single runs (ohb, hibench), each failing on its own checks, and Table III.
experiments:
	go run ./cmd/experiments -exp all -md
	go run ./cmd/experiments -list-systems

# Every example, and both launch flows' command-line driver (the Fig. 3
# wrapper flow under each MPI design).
examples:
	go run ./examples/quickstart
	go run ./examples/terasort
	go run ./examples/nweight
	go run ./examples/mlpipeline
	go run ./examples/faulttolerance
	go run ./cmd/mpirun -np 4
	go run ./cmd/mpirun -np 4 -design basic

clean:
	rm -f test_output.txt bench_output.txt
