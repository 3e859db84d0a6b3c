# Targets mirror the CI jobs in .github/workflows/ci.yml: a change that
# passes `make ci` locally passes the pipeline.

GO ?= go

.PHONY: build test race bench-smoke benchmark-check deps-check timing-guard fuzz-smoke kv-crash replica-crash load-smoke examples fmt fmt-check vet loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the concurrent serving path and everything that
# drives it concurrently (workload generator, whose workers share one
# wallet per user, so the wallet's purse and pseudonym ledger are hit
# concurrently; revocation list, sharded bank property tests, the
# kvstore commit sets batch workers note into, root integration tests,
# the crypto precompute layer's shared table and the nonce pool a client
# may enable, the group table a schnorr group builds under concurrent
# callers and the card whose provers cross that build, and the KEM
# sender every serving goroutine wraps through, with the license package
# that calls it and that signs a batch call's roots from several workers
# at once), and the daemon, whose boot runs key generation, the
# generator table and the WAL replays side by side: its subprocess
# tests, and the wallet CLI's, build it with -race when they run under
# it. CI's race job runs this target: the list lives here.
race:
	$(GO) test -race ./cmd/p2drmd ./cmd/p2drm ./internal/provider ./internal/httpapi ./internal/kvstore ./internal/payment ./internal/replica ./internal/revocation ./internal/workload ./internal/wallet ./internal/obs ./internal/cryptox/precomp ./internal/cryptox/schnorr ./internal/cryptox/rsablind ./internal/cryptox/dlkem ./internal/license ./internal/smartcard .

# One iteration per benchmark: proves they compile and run. The T1_
# pattern reaches the per-package micro-benchmarks docs/crypto.md quotes
# (internal/cryptox/dlkem: T1_KEMShare; internal/cryptox/schnorr:
# T1_ExpG, T1_VerifyBatch16; internal/license: T1_LicenseSignBatch16,
# T1_LicenseVerifyPath; internal/revocation: T1_RevocationOpen,
# T1_VerifyFilter).
bench-smoke:
	$(GO) test -run=NONE -bench=BenchmarkT1_ -benchtime=1x ./...
	$(GO) test -run=NONE -bench=BenchmarkT3_ReplicaCatchup -benchtime=1x ./internal/replica

# The live-topology benchmark (BENCHMARK.json, benchmark/) is its own
# module, so `go test ./...` does not reach it: vet it and run its short
# tests here. This is the compile-time proof that httpapi.Client's
# surface still fits the benchmark the driver gates every PR with.
benchmark-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark -short ./...

# The daemon serves the provider, bank and replica; the card and the
# play device are client code. Fails if cmd/p2drmd links either.
deps-check:
	@out="$$($(GO) list -deps ./cmd/p2drmd | grep -E '^p2drm/internal/(device|smartcard)$$')"; if [ -n "$$out" ]; then \
		echo "cmd/p2drmd links client-side packages:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Statistical timing guard over the blinded crypto ops, the KEM sender's
# long-lived exponent included (dudect-style Welch t-test, see
# docs/crypto.md): fails only on a leak confirmed in two independent
# rounds, skips on boxes too noisy for a verdict.
timing-guard:
	$(GO) test -count=1 -v ./internal/cryptox/ctcheck/

# Short-deadline go-native fuzzing (one -fuzz target per package run):
# corrupted WAL tails, license encodings and downloaded revocation
# filters must error, never panic or silently drop committed state, and
# a fuse filter that decodes never reads past its encoding; a
# presented nonce is accepted once at most and only under this provider's
# beacon; a withdraw body debits exactly what it gets signed or nothing;
# a Schnorr proof or signature off the wire errors or is judged, never
# panics, and a commitment outside [1, p) is refused; rights text that
# Parse accepts renders to canonical text that parses back to itself;
# a response envelope off the wire decodes or errors, never panics, and
# an error envelope never reaches the caller's destination.
# CI's fuzz job runs this target on every PR: the list lives here.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=10s ./internal/kvstore
	$(GO) test -run=NONE -fuzz=FuzzLicenseCodec -fuzztime=10s ./internal/license
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/rel
	$(GO) test -run=NONE -fuzz=FuzzParseSignedFilter -fuzztime=10s ./internal/revocation
	$(GO) test -run=NONE -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/fuse
	$(GO) test -run=NONE -fuzz=FuzzConsumeNonce -fuzztime=10s ./internal/provider
	$(GO) test -run=NONE -fuzz=FuzzWithdrawRequest -fuzztime=10s ./internal/httpapi
	$(GO) test -run=NONE -fuzz=FuzzDecodeEnvelope -fuzztime=10s ./internal/httpapi
	$(GO) test -run=NONE -fuzz=FuzzParseProof -fuzztime=10s ./internal/cryptox/schnorr

# Subprocess crash/compaction suite: SIGKILL mid-group-commit, mid-
# segment-roll and mid-incremental-compaction; -count=2 reruns each
# scenario so the kill lands at different log positions.
kv-crash:
	$(GO) test -run 'TestCrashRecovery' -count=2 ./internal/kvstore

# Replication crash suite: SIGKILL the follower mid-apply and the
# primary mid-stream (with compaction racing the segment streams); the
# follower's recovered state must be a consistent prefix and converge
# to the primary's durable prefix. -count=2 varies the kill position.
replica-crash:
	$(GO) test -run 'TestReplicaCrash' -count=2 ./internal/replica

# End-to-end load smoke: boots a real primary + one replica, drives a
# 5-second mixed scenario at low RPS through cmd/p2drm-load, and fails
# on any non-2xx response or an empty latency histogram in the report.
# Also scrapes /v2/metrics on both roles before and after the run,
# failing on a missing core metric family or a counter that moved
# backwards.
load-smoke:
	$(GO) test -run 'TestLoadSmoke' -count=1 ./cmd/p2drm-load

# Compile check over examples/ so doc-facing code cannot rot; `go vet`
# also runs them for free via ./... but this keeps the failure isolated.
examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The line counts ROADMAP and BENCH.md quote: every *.go file outside
# benchmark/ (its own module), split on the _test.go suffix.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l | xargs echo "non-test Go lines:"
	@find . -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l | xargs echo "test Go lines:    "

ci: build vet fmt-check test race bench-smoke benchmark-check deps-check timing-guard fuzz-smoke examples kv-crash replica-crash load-smoke
