package httpapi

// The primary daemon's route table: endpoint cores wrapped in the
// snapd-style envelope, tiered auth, and the unbounded maintenance
// actions (compaction, revocation rebuild) run as 202 background
// operations pollable at /v2/operations/{id}.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"p2drm/internal/kvstore"
	"p2drm/internal/ops"
)

// registerV2 mounts the enveloped surface. Tier rationale: reads and
// protocol-key fetches are guest (the protocol's own crypto guards
// purchase/exchange/redeem, so they are user-tier like snapd's
// state-changing endpoints); store maintenance and account minting are
// admin.
func (s *Server) registerV2() {
	s.v2("GET", "/v2/catalog", TierGuest, s.epCatalog)
	s.v2raw("GET", "/v2/content", TierGuest, KindStream, s.serveContent)
	s.v2("GET", "/v2/denomination", TierGuest, s.epDenomination)
	s.v2("GET", "/v2/challenge", TierGuest, s.epChallenge)
	s.v2("POST", "/v2/register", TierUser, s.epRegister)
	s.v2("POST", "/v2/purchase", TierUser, s.epPurchase)
	s.v2("POST", "/v2/purchase/batch", TierUser, s.epPurchaseBatch)
	s.v2("POST", "/v2/exchange", TierUser, s.epExchange)
	s.v2("POST", "/v2/exchange/batch", TierUser, s.epExchangeBatch)
	s.v2("POST", "/v2/redeem", TierUser, s.epRedeem)
	s.v2("POST", "/v2/redeem/batch", TierUser, s.epRedeemBatch)
	s.v2raw("GET", "/v2/revocation/filter", TierGuest, KindStream, s.serveRevocationFilter)
	s.v2("GET", "/v2/revocation/contains", TierGuest, s.epRevocationContains)
	s.v2("GET", "/v2/stats", TierGuest, s.epStats)
	s.v2("GET", "/v2/kv/get", TierGuest, s.epKVGet)
	s.v2("GET", "/v2/kv/has", TierGuest, s.epKVHas)
	s.v2("GET", "/v2/replica/manifest", TierGuest, s.epReplicaManifest)
	s.v2raw("GET", "/v2/replica/segment/{id}", TierGuest, KindStream, s.serveReplicaSegment)
	s.v2("POST", "/v2/replica/release", TierUser, s.epReplicaRelease)
	s.v2("GET", "/v2/replica/status", TierGuest, s.epReplicaStatus)
	s.v2("GET", "/v2/provider/key", TierGuest, s.epProviderKey)
	s.v2("GET", "/v2/bank/coinkey", TierGuest, s.epCoinKey)
	s.v2("POST", "/v2/bank/account", TierAdmin, s.epBankAccount)
	s.v2("POST", "/v2/bank/withdraw", TierUser, s.epWithdraw)

	s.v2raw("POST", "/v2/compact", TierAdmin, KindAsync, s.handleCompactV2)
	s.v2raw("POST", "/v2/revocation/rebuild", TierAdmin, KindAsync, s.handleRevocationRebuildV2)
	s.registerOpsRoutes()
	s.registerObsRoutes()
}

// Operation kinds started by the primary server. Both are idempotent
// and get Resumers in ResumeOps.
const (
	opKindCompact           = "compact"
	opKindRevocationRebuild = "revocation-rebuild"
)

// compactParams names the store an async compaction targets; persisted
// as operation params so a restarted daemon can re-run it.
type compactParams struct {
	Store string `json:"store"`
}

// CompactResult is the terminal result of a compact operation.
type CompactResult struct {
	Store string        `json:"store"`
	Stats kvstore.Stats `json:"stats"`
}

// RebuildResult is the terminal result of a revocation-rebuild
// operation.
type RebuildResult struct {
	Generation uint64 `json:"generation"`
}

func (s *Server) compactTask(name string, st *kvstore.Store) ops.Task {
	return func(ctx context.Context, h *ops.Handle) (any, error) {
		h.Progress(0, 1, "compacting "+name)
		if err := st.Compact(); err != nil {
			return nil, err
		}
		h.Progress(1, 1, "compacted "+name)
		return CompactResult{Store: name, Stats: st.Stats()}, nil
	}
}

func (s *Server) handleCompactV2(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("store")
	st := s.stores[name]
	if st == nil {
		writeEnvErr(w, errNotFound(fmt.Errorf("httpapi: unknown store %q", name)))
		return
	}
	s.startOperation(w, opKindCompact, "full compaction of store "+name,
		compactParams{Store: name}, s.compactTask(name, st))
}

func (s *Server) rebuildTask() ops.Task {
	return func(ctx context.Context, h *ops.Handle) (any, error) {
		h.Progress(0, 1, "rebuilding revocation filter")
		gen := s.Provider.RebuildRevocationFilter()
		h.Progress(1, 1, "rebuilt revocation filter")
		return RebuildResult{Generation: gen}, nil
	}
}

func (s *Server) handleRevocationRebuildV2(w http.ResponseWriter, r *http.Request) {
	s.startOperation(w, opKindRevocationRebuild, "rebuild revocation bloom filter", nil, s.rebuildTask())
}

// ResumeOps registers resumers for the idempotent operation kinds
// (compaction, revocation rebuild) and adopts whatever the durable
// registry holds from the previous process: matching kinds re-run under
// their original IDs, everything else is marked aborted. Call once,
// after WithOps/WithStoreStats and before serving starts.
func (s *Server) ResumeOps() (resumed, aborted int) {
	s.ops.Define(opKindCompact, func(params json.RawMessage) (ops.Task, error) {
		var p compactParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
		st := s.stores[p.Store]
		if st == nil {
			return nil, fmt.Errorf("httpapi: unknown store %q", p.Store)
		}
		return s.compactTask(p.Store, st), nil
	})
	s.ops.Define(opKindRevocationRebuild, func(params json.RawMessage) (ops.Task, error) {
		return s.rebuildTask(), nil
	})
	return s.ops.Resume()
}
