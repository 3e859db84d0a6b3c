// Package p2drm is a from-scratch Go reproduction of "Privacy-Preserving
// Digital Rights Management" (VLDB 2004 / SDM workshop): a DRM system in
// which users buy, play and transfer protected content anonymously and
// unlinkably, while the content provider keeps full rights enforcement.
//
// The implementation lives under internal/: start at internal/wallet for
// the client half of every protocol and internal/provider for the
// server half (internal/core assembles both in one process), and see
// README.md for the architecture map. The protocols are the paper's
// three: pseudonymous purchase, unlinkable transfer through blind-signed
// anonymous licenses, and compliant playback on a device.
// The benchmark/ module (BENCHMARK.json) is the live-topology benchmark
// that gates every PR; BENCH.md tracks its trajectory across PRs.
//
// Deployment shape: cmd/p2drmd serves the provider + demo bank over
// HTTP on one API tree, /v2/ (snapd-style response envelope,
// guest/user/admin auth tiers, every action answered in its own
// request; see docs/rest.md for the full reference and internal/httpapi
// for the machinery). A second daemon started with
// -replica-of=<primary-url> runs as a read replica (snapshot +
// WAL-segment shipping, promotion/resync on failover) — see
// internal/replica for the replication protocol.
//
// Development workflow: the Makefile mirrors the CI pipeline
// (.github/workflows/ci.yml) — `make ci` runs build, vet, gofmt check,
// tests, the -race suite over the concurrent serving path, a benchmark
// smoke pass, an examples compile check, and the kvstore + replication
// SIGKILL crash suites.
package p2drm
