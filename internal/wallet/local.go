package wallet

import (
	"context"
	"crypto/rsa"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
)

// Local is the in-process Party: the provider and the bank it deposits
// at, called directly.
func Local(p *provider.Provider, b *payment.Bank) Party { return local{p, b} }

type local struct {
	p *provider.Provider
	b *payment.Bank
}

func (l local) Challenge() (string, error) { return l.p.Challenge(context.Background()) }

func (l local) Register(signPub, encPub []byte, proof *schnorr.Proof, nonce string) error {
	return l.p.Register(context.Background(), signPub, encPub, proof, nonce)
}

func (l local) WithdrawCoins(account string, n int) ([]*payment.Coin, error) {
	return l.b.WithdrawCoins(account, n)
}

func (l local) Purchase(id license.ContentID, signPub, encPub []byte, coins []*payment.Coin) (*license.Personalized, error) {
	return l.p.Purchase(context.Background(), provider.PurchaseRequest{
		ContentID: id, SignPub: signPub, EncPub: encPub, Coins: coins,
	})
}

func (l local) Denomination(id license.ContentID) (*rsa.PublicKey, license.DenominationID, error) {
	return l.p.DenomPublic(id)
}

func (l local) Exchange(lic *license.Personalized, proof *schnorr.Proof, nonce string, blinded []byte) ([]byte, error) {
	return l.p.Exchange(context.Background(), lic, proof, nonce, blinded)
}

func (l local) Redeem(anon *license.Anonymous, signPub, encPub []byte) (*license.Personalized, error) {
	return l.p.Redeem(context.Background(), anon, signPub, encPub)
}
