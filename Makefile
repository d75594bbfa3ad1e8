# Repo verification pipeline. `make check` is the full gate every
# change must pass; the individual targets exist for quick iteration.

GO ?= go

.PHONY: check vet build test race fuzz docs crash bench-smoke obs-smoke wire-smoke

check: vet build test race docs bench-smoke wire-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive layers run under the race detector:
# the distributed evaluation substrate (pooled client, breakers,
# chaos failover), the snapshot-swap core (lock-free reads during
# copy-on-write updates, internal/core/swap_test.go), the shared-Disk
# pager and per-query arenas, the engine's concurrent sessions,
# the durable checkpoint store (checkpoint-during-swap chaos), the
# metrics/tracing subsystem, and the vector index plus its store-level
# knn paths (concurrent searches against copy-on-write swaps). The
# dirserver package includes the cross-process trace-merge chaos tests
# (trace_chaos_test.go), so the merged-tree conservation invariant
# runs under the race detector here. The store package also
# carries the overlay generation test: readers of each published store
# against a chain of Fork()+ApplyOps generations mutating its children;
# the B+tree those trees are made of rides along. The result cache's
# single-flight fill, which every concurrent search for one query waits
# on, and the list layer every query writes its arena through run
# here too. CI additionally runs `go test -race ./...` over the whole
# module.
race:
	$(GO) test -race ./internal/dirserver/ ./internal/faultnet/ ./internal/core/ ./internal/pager/ ./internal/obs/ ./internal/engine/ ./internal/extsort/ ./internal/durable/ ./internal/faultfs/ ./internal/vindex/ ./internal/store/ ./internal/planner/ ./internal/btree/ ./internal/qcache/ ./internal/plist/

# Short-budget fuzzing of the parser/matcher surfaces that each carry a
# differential oracle: the wildcard matcher vs a reference matcher and
# a regexp, the filter parser's print/parse fixpoint, the query
# canonicalizer's cache-key invariance, the durable-store decode
# paths (checksum envelopes, a hostile log file through Open, Recover
# and Load, the full snapshot open path and the list-record decoder
# must never panic or overallocate on hostile bytes, the log must never
# serve a payload failing its CRC, and an accepted record re-encodes to
# a fixpoint and answers from its bytes what its materialized entry
# answers), the B+tree page codec (every reader, Insert and Delete on a
# hostile page return a result or a typed error, never a panic or a
# write past the page; a run of splices on a loaded tree keeps step
# with a map), the client's reply-frame reader (hostile bytes give
# entries or a typed ErrGarbled, never a panic or an allocation beyond
# a small multiple of the input, and the entries and records paths
# refuse alike), and the LDIF binary-vector round trip (base64 and
# textual forms must both be bit-lossless). CI runs this on every push; longer local
# runs just raise FUZZTIME.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/filter/ -run=^$$ -fuzz=FuzzWildcardMatch -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/filter/ -run=^$$ -fuzz=FuzzParseFilter -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/query/ -run=^$$ -fuzz=FuzzCanonical -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/durable/ -run=^$$ -fuzz=FuzzOpenEnvelope -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/durable/ -run=^$$ -fuzz=FuzzOpenLog -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run=^$$ -fuzz=FuzzOpenSnapshot -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/btree/ -run=^$$ -fuzz=FuzzPage -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/plist/ -run=^$$ -fuzz=FuzzDecodeRecord -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dirserver/ -run=^$$ -fuzz=FuzzReply -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ldif/ -run=^$$ -fuzz=FuzzVectorRoundTrip -fuzztime=$(FUZZTIME)

# The kill -9 soak: a child dirserve under a live write stream is
# SIGKILLed at random points and must recover to at least the last
# durably acknowledged generation, answering queries byte-identically
# to a reference reconstruction. Rounds cycle through full-image and
# incremental page-delta checkpointing, with and without storage fault
# injection, so recovery routinely replays logs of mixed full-image and
# page-delta frames. CRASH_ITERS crash cycles per run.
CRASH_ITERS ?= 30
crash:
	DIRKIT_CRASH_ITERS=$(CRASH_ITERS) $(GO) test ./internal/durable/crashtest/ -count=1 -v

# Documentation gate: intra-repo markdown links must resolve, a
# dirserve/dirq/dirgen/dirbench command line in markdown may pass only
# flags its main.go declares, and the packages docslint lists must
# document every exported identifier.
docs:
	$(GO) run ./tools/docslint

# Benchmark smoke: the scoped-knn experiment runs end to end at the
# quick preset. E22 self-checks — scoped recall != 1.0 against the
# brute-force oracle panics the run — so this doubles as an exactness
# gate on the vector index. The write benchmark (one leaf add at 500
# and at 2000 subscribers) runs 20 writes per size, enough to see that
# it still runs and what it reports, B/op and allocs/op included (a
# per-write copy of anything directory-sized shows there first). The
# read operators print beside it
# — a boolean merge, a stack pass, a sort-merge join and a whole L2
# query — so that every check shows their ns/op, allocs/op and
# pageIO/op: the last must not move unless the change says why. The
# analytic mix (dirload's twelve forest queries, in process) follows
# them, with its page I/O split into store reads and scratch traffic. Below
# them the build (core.Open at both sizes, with the device's pages and
# each structure's) and the B+tree's point read, leaf scan, pull walk
# and insert, the reads on a sealed disk as a served snapshot holds it:
# reads view pages where they lie, so Get allocates only its value and
# Scan and Iter nothing, and an insert splices each page it changes in
# a pooled scratch image, so its B/op is the write path's garbage per
# key. Last
# the distributed path: E14's three queries through a coordinator over
# two loopback servers, from parallel goroutines.
bench-smoke:
	$(GO) run ./cmd/dirbench -quick -only E22 >/dev/null
	$(GO) test -run='^$$' -bench=BenchmarkUpdateEntries -benchtime=20x -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkOp(BooleanAnd|HSPCChildren|ERDV)$$|BenchmarkFullQueryL2|BenchmarkAnalytic' -benchtime=20x -benchmem .
	$(GO) test -run='^$$' -bench=BenchmarkOpen -benchtime=3x -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkGet|BenchmarkScan|BenchmarkIter|BenchmarkInsert' -benchtime=2000x -benchmem ./internal/btree/
	$(GO) test -run='^$$' -bench=BenchmarkCoordinatorSearch -benchtime=200x -benchmem ./internal/dirserver/

# Wire smoke: benchmark/dirload's four workloads (lookup, analytic,
# policy, provision) each against a real dirserve child, every reply
# checked against the in-process oracle and, on provision, the kill -9
# durability check — about ten seconds.
wire-smoke:
	bash benchmark/run.sh -smoke

# Observability smoke: boot a real dirserve child with the flight
# recorder and admin listener on, run 50 traced queries against it,
# and assert the flight recorder, /metrics, and the slow-query log all
# agree on what happened (counts, trace IDs, span trees).
obs-smoke:
	$(GO) run ./tools/obssmoke
