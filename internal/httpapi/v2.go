package httpapi

// The primary daemon's route table: endpoint cores wrapped in the
// snapd-style envelope and tiered auth. The maintenance actions
// (compaction, revocation rebuild) answer in their own request like
// every other route.

import (
	"fmt"
	"net/http"

	"p2drm/internal/kvstore"
)

// registerV2 mounts the enveloped surface. Tier rationale: reads and
// protocol-key fetches are guest (the protocol's own crypto guards
// purchase/exchange/redeem, so they are user-tier like snapd's
// state-changing endpoints); store maintenance, account minting and
// replication are admin — the log a follower reads holds every record
// (registrations, issued licences, spent coins).
func (s *Server) registerV2() {
	s.v2("GET", "/v2/catalog", TierGuest, s.epCatalog)
	s.v2raw("GET", "/v2/content", TierGuest, s.serveContent)
	s.v2("GET", "/v2/denomination", TierGuest, s.epDenomination)
	s.v2("GET", "/v2/challenge", TierGuest, s.epChallenge)
	s.v2("POST", "/v2/register", TierUser, s.epRegister)
	s.v2("POST", "/v2/purchase", TierUser, s.epPurchase)
	s.v2("POST", "/v2/purchase/batch", TierUser, s.epPurchaseBatch)
	s.v2("POST", "/v2/exchange", TierUser, s.epExchange)
	s.v2("POST", "/v2/exchange/batch", TierUser, s.epExchangeBatch)
	s.v2("POST", "/v2/redeem", TierUser, s.epRedeem)
	s.v2("POST", "/v2/redeem/batch", TierUser, s.epRedeemBatch)
	s.v2raw("GET", "/v2/revocation/filter", TierGuest, s.serveRevocationFilter)
	s.v2("GET", "/v2/revocation/contains", TierGuest, s.epRevocationContains)
	s.v2("GET", "/v2/stats", TierGuest, s.epStats)
	s.v2("GET", "/v2/replica/manifest", TierAdmin, s.epReplicaManifest)
	s.v2raw("GET", "/v2/replica/segment/{id}", TierAdmin, s.serveReplicaSegment)
	s.v2("POST", "/v2/replica/release", TierAdmin, s.epReplicaRelease)
	s.v2("GET", "/v2/replica/status", TierGuest, s.epReplicaStatus)
	s.v2("GET", "/v2/provider/key", TierGuest, s.epProviderKey)
	s.v2("GET", "/v2/bank/coinkey", TierGuest, s.epCoinKey)
	s.v2("POST", "/v2/bank/account", TierAdmin, s.epBankAccount)
	s.v2("POST", "/v2/bank/withdraw", TierUser, s.epWithdraw)

	s.v2("POST", "/v2/compact", TierAdmin, s.epCompact)
	s.v2("POST", "/v2/revocation/rebuild", TierAdmin, s.epRevocationRebuild)
	s.registerObsRoutes()
}

// CompactResult answers POST /v2/compact: the store's engine statistics
// after the full compaction.
type CompactResult struct {
	Store string        `json:"store"`
	Stats kvstore.Stats `json:"stats"`
}

// RebuildResult answers POST /v2/revocation/rebuild.
type RebuildResult struct {
	Generation uint64 `json:"generation"`
}

// epCompact runs a full compaction of one registered store. It is
// idempotent, so a request cut off mid-way is simply sent again.
func (s *Server) epCompact(r *http.Request) (any, *apiError) {
	name := r.URL.Query().Get("store")
	st := s.stores[name]
	if st == nil {
		return nil, errNotFound(fmt.Errorf("httpapi: unknown store %q", name))
	}
	if err := st.Compact(); err != nil {
		return nil, errInternal(err)
	}
	return CompactResult{Store: name, Stats: st.Stats()}, nil
}

func (s *Server) epRevocationRebuild(r *http.Request) (any, *apiError) {
	return RebuildResult{Generation: s.Provider.RebuildRevocationFilter()}, nil
}
