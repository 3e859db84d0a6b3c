// Package linkage implements the honest-but-curious provider's linking
// attack against its own transaction journal, plus the metrics the
// privacy experiments (F1, A1) report.
//
// The adversary model is exactly the 2004 paper's: the provider keeps
// every observation and tries to reconstruct which transactions belong to
// the same person. Two linking rules are available to it:
//
//  1. Pseudonym reuse — events presenting the same pseudonym fingerprint
//     trivially belong to one card.
//  2. Exchange↔redeem hash matching — the provider hashes every blinded
//     blob it signs; at redemption it recomputes the full-domain hash of
//     the revealed serial and compares. With blinding enabled the
//     comparison NEVER matches (the blinding factor randomises the blob);
//     with the A1 ablation it ALWAYS matches.
//
// Metrics are pairwise: recall = fraction of truly-same-user transaction
// pairs the attack links; precision = fraction of linked pairs that are
// truly same-user. Anonymity sets quantify the residual uncertainty for
// each redemption.
package linkage

import (
	"crypto/rsa"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/license"
	"p2drm/internal/provider"
)

// Truth maps provider journal sequence numbers to the acting user's local
// name. Built by the workload driver, never visible to the provider.
type Truth map[int]string

// DenomResolver lets the adversary recompute candidate hashes; it is
// public information (any client can fetch denomination keys).
type DenomResolver func(license.ContentID) (*rsa.PublicKey, license.DenominationID, error)

// Clustering is a partition of event sequence numbers into
// believed-same-user groups (union-find).
type Clustering struct {
	parent map[int]int
}

func newClustering() *Clustering { return &Clustering{parent: make(map[int]int)} }

func (c *Clustering) add(x int) {
	if _, ok := c.parent[x]; !ok {
		c.parent[x] = x
	}
}

func (c *Clustering) find(x int) int {
	c.add(x)
	root := x
	for c.parent[root] != root {
		root = c.parent[root]
	}
	for c.parent[x] != root {
		c.parent[x], x = root, c.parent[x]
	}
	return root
}

func (c *Clustering) union(a, b int) {
	ra, rb := c.find(a), c.find(b)
	if ra != rb {
		c.parent[ra] = rb
	}
}

// SameCluster reports whether the attack links two events.
func (c *Clustering) SameCluster(a, b int) bool {
	return c.find(a) == c.find(b)
}

// Clusters materialises the partition.
func (c *Clustering) Clusters() [][]int {
	groups := make(map[int][]int)
	for x := range c.parent {
		r := c.find(x)
		groups[r] = append(groups[r], x)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	return out
}

// Attack runs both linking rules over a journal.
func Attack(events []provider.Event, resolve DenomResolver) *Clustering {
	c := newClustering()
	// Rule 1: pseudonym fingerprint reuse.
	byFP := make(map[string]int)
	for _, e := range events {
		c.add(e.Seq)
		if e.PseudonymFP == "" {
			continue
		}
		if prev, ok := byFP[e.PseudonymFP]; ok {
			c.union(prev, e.Seq)
		}
		byFP[e.PseudonymFP] = e.Seq
	}
	// Rule 2: blinded-hash matching (effective only without blinding).
	if resolve != nil {
		byBlind := make(map[string]int)
		for _, e := range events {
			if e.Type == provider.EvExchange && e.BlindedHash != "" {
				byBlind[e.BlindedHash] = e.Seq
			}
		}
		for _, e := range events {
			if e.Type != provider.EvRedeem || e.AnonSerial == "" {
				continue
			}
			serial, err := license.ParseSerial(e.AnonSerial)
			if err != nil {
				continue
			}
			pub, denom, err := resolve(e.ContentID)
			if err != nil {
				continue
			}
			msg := license.AnonymousSigningBytes(serial, denom)
			candidate := provider.BlindedHashForTest(rsablind.Prehash(pub, msg))
			if ex, ok := byBlind[candidate]; ok {
				c.union(ex, e.Seq)
			}
		}
	}
	return c
}

// transactionEvent filters to the events metrics are computed over:
// register events are protocol overhead paired 1:1 with a purchase or
// redeem and would inflate scores.
func transactionEvent(t provider.EventType) bool {
	return t == provider.EvPurchase || t == provider.EvExchange || t == provider.EvRedeem
}

// Metrics are the pairwise attack scores.
type Metrics struct {
	// Recall: linked same-user pairs / all same-user pairs.
	Recall float64
	// Precision: truly-same-user linked pairs / all linked pairs.
	Precision float64
	// Pairs counts the same-user pairs in truth (the denominator).
	Pairs int
}

// Evaluate scores a clustering against ground truth over transaction
// events only.
func Evaluate(events []provider.Event, c *Clustering, truth Truth) Metrics {
	var seqs []int
	for _, e := range events {
		if transactionEvent(e.Type) {
			if _, known := truth[e.Seq]; known {
				seqs = append(seqs, e.Seq)
			}
		}
	}
	var samePairs, linkedSame, linkedTotal int
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			same := truth[seqs[i]] == truth[seqs[j]]
			linked := c.SameCluster(seqs[i], seqs[j])
			if same {
				samePairs++
				if linked {
					linkedSame++
				}
			}
			if linked {
				linkedTotal++
			}
		}
	}
	m := Metrics{Pairs: samePairs}
	if samePairs > 0 {
		m.Recall = float64(linkedSame) / float64(samePairs)
	}
	if linkedTotal > 0 {
		m.Precision = float64(linkedSame) / float64(linkedTotal)
	} else {
		m.Precision = 1 // attack linked nothing: vacuously precise
	}
	return m
}
