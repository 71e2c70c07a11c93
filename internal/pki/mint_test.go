package pki

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"blackdp/internal/wire"
)

// failingReader is a key stream that always errors.
type failingReader struct{}

var errNoEntropy = errors.New("no entropy")

func (failingReader) Read([]byte) (int, error) { return 0, errNoEntropy }

// TestIssueDefersMinting: Issue fixes pseudonym, serial and expiry (at issue
// time) without minting; the first use mints, and the minted certificate
// keeps the issue-time fields.
func TestIssueDefersMinting(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	cred, err := a.Issue("veh-1", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Stats(); got != (ProvisionStats{Issued: 1}) {
		t.Fatalf("stats after Issue = %+v, want 1 issued, 0 minted", got)
	}
	node, serial := cred.NodeID(), cred.Serial()
	clk.now = 10 * time.Minute // mint later than issue
	cert := certOf(t, cred)
	if cert.Node != node || cert.Serial != serial || cert.Authority != 1 {
		t.Errorf("minted cert %+v does not keep issue-time identity %v/%d", cert, node, serial)
	}
	if cert.Expiry != time.Hour {
		t.Errorf("expiry = %v, want issue time + validity = 1h", cert.Expiry)
	}
	if err := VerifyCertificate(&cert, trust, clk.now, a.scheme); err != nil {
		t.Errorf("minted certificate does not verify: %v", err)
	}
	if got := a.Stats(); got != (ProvisionStats{Issued: 1, Minted: 1}) {
		t.Errorf("stats after mint = %+v, want 1 issued, 1 minted", got)
	}
}

// TestSealMintsOnce: two Seals on one credential mint exactly once and carry
// the same certificate; both envelopes open.
func TestSealMintsOnce(t *testing.T) {
	for _, scheme := range []Scheme{ECDSA{Rand: newDetReader(5)}, Insecure{}, NewSessionToken(newDetReader(5))} {
		t.Run(scheme.Name(), func(t *testing.T) {
			trust := NewTrustStore()
			clk := &fakeClock{}
			a, err := NewAuthority(1, trust, clk.clock, scheme, newDetReader(1))
			if err != nil {
				t.Fatal(err)
			}
			cred, err := a.Issue("veh-1", time.Hour, newDetReader(2))
			if err != nil {
				t.Fatal(err)
			}
			var secs []*wire.Secure
			for seq := wire.SeqNum(1); seq <= 2; seq++ {
				sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: seq, Issuer: cred.NodeID()}, cred, scheme)
				if err != nil {
					t.Fatalf("Seal %d: %v", seq, err)
				}
				secs = append(secs, sec)
			}
			if got := a.Stats().Minted; got != 1 {
				t.Errorf("minted = %d after two seals, want 1", got)
			}
			if !reflect.DeepEqual(secs[0].Cert, secs[1].Cert) {
				t.Errorf("seals carry different certificates:\n %+v\n %+v", secs[0].Cert, secs[1].Cert)
			}
			if !reflect.DeepEqual(secs[0].Cert, certOf(t, cred)) {
				t.Error("sealed certificate differs from Certificate()")
			}
			for i, sec := range secs {
				if _, _, err := Open(sec, trust, clk.now, scheme); err != nil {
					t.Errorf("Open seal %d: %v", i, err)
				}
			}
		})
	}
}

// TestNeverUsedCredentialRenews: a credential that never sealed renews —
// presenting it mints it — and the successor is a lazy credential of its
// own.
func TestNeverUsedCredentialRenews(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	cred, err := a.Issue("veh-1", time.Hour, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	renewed, err := a.Renew(certOf(t, cred), time.Hour, newDetReader(2))
	if err != nil {
		t.Fatalf("Renew of a never-used credential: %v", err)
	}
	if renewed.NodeID() == cred.NodeID() || renewed.Serial() == cred.Serial() {
		t.Error("renewal did not rotate pseudonym and serial")
	}
	if got := a.Stats(); got != (ProvisionStats{Issued: 2, Minted: 1}) {
		t.Errorf("stats = %+v, want 2 issued, 1 minted", got)
	}
	cert := certOf(t, renewed)
	if err := VerifyCertificate(&cert, trust, clk.now, a.scheme); err != nil {
		t.Errorf("renewed certificate does not verify: %v", err)
	}
}

// TestMintErrorSurfacesFromSeal: a key stream that fails surfaces its error
// from Seal and from every later use, and the credential never counts as
// minted.
func TestMintErrorSurfacesFromSeal(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	scheme := ECDSA{Rand: newDetReader(5)}
	a, err := NewAuthority(1, trust, clk.clock, scheme, newDetReader(1))
	if err != nil {
		t.Fatal(err)
	}
	cred, err := a.Issue("veh-1", time.Hour, failingReader{})
	if err != nil {
		t.Fatalf("Issue: %v (minting is deferred, so Issue must succeed)", err)
	}
	if _, err := Seal(&wire.Hello{Origin: cred.NodeID()}, cred, scheme); !errors.Is(err, errNoEntropy) {
		t.Errorf("Seal error = %v, want the key stream's error", err)
	}
	if _, err := cred.Certificate(); !errors.Is(err, errNoEntropy) {
		t.Errorf("Certificate error = %v, want the same sticky error", err)
	}
	if _, err := cred.PrivateKey(); !errors.Is(err, errNoEntropy) {
		t.Errorf("PrivateKey error = %v, want the same sticky error", err)
	}
	if got := a.Stats().Minted; got != 0 {
		t.Errorf("minted = %d after a failed mint, want 0", got)
	}
}

// TestConcurrentMinting mints credentials of one authority from many
// goroutines, several of them racing on the same credential, as the shards
// of a sharded run do. Each goroutine signs packets with its own ECDSA
// stream, like a shard; the authority's scheme — and with ECDSA its shared
// nonce stream — must stay untouched by minting. Run with -race.
func TestConcurrentMinting(t *testing.T) {
	session := NewSessionToken(newDetReader(5))
	for _, tc := range []struct {
		scheme    Scheme
		sealerFor func(i int) Scheme
	}{
		{ECDSA{Rand: newDetReader(5)}, func(i int) Scheme { return ECDSA{Rand: newDetReader(int64(100 + i))} }},
		{session, func(int) Scheme { return session }},
	} {
		scheme := tc.scheme
		t.Run(scheme.Name(), func(t *testing.T) {
			trust := NewTrustStore()
			clk := &fakeClock{}
			a, err := NewAuthority(1, trust, clk.clock, scheme, newDetReader(1))
			if err != nil {
				t.Fatal(err)
			}
			const creds, sealers = 8, 3
			var list []*Credential
			for i := 0; i < creds; i++ {
				cred, err := a.Issue("veh", time.Hour, newDetReader(int64(10+i)))
				if err != nil {
					t.Fatal(err)
				}
				list = append(list, cred)
			}
			secs := make([]*wire.Secure, creds*sealers)
			errs := make([]error, creds*sealers)
			var wg sync.WaitGroup
			for i := range secs {
				wg.Add(1)
				go func(i int, sealer Scheme) {
					defer wg.Done()
					cred := list[i%creds]
					secs[i], errs[i] = Seal(&wire.Hello{Origin: cred.NodeID(), Nonce: uint64(i)}, cred, sealer)
				}(i, tc.sealerFor(i))
			}
			wg.Wait()
			for i, sec := range secs {
				if errs[i] != nil {
					t.Fatalf("seal %d: %v", i, errs[i])
				}
				if _, _, err := Open(sec, trust, clk.now, scheme); err != nil {
					t.Fatalf("open %d: %v", i, err)
				}
			}
			if got := a.Stats(); got != (ProvisionStats{Issued: creds, Minted: creds}) {
				t.Errorf("stats = %+v, want %d issued and minted", got, creds)
			}
		})
	}
}

// TestNewCredentialIsComplete: a credential built from a renewal response
// is already minted — it seals without touching any authority.
func TestNewCredentialIsComplete(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a := newTestAuthority(t, 1, trust, clk)
	key, err := GenerateKey(newDetReader(3))
	if err != nil {
		t.Fatal(err)
	}
	der, err := MarshalPublicKey(&key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := a.IssueFor("veh-1", der, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred := NewCredential(cert, key)
	if cred.NodeID() != cert.Node || cred.Serial() != cert.Serial {
		t.Errorf("credential identity %v/%d, want %v/%d", cred.NodeID(), cred.Serial(), cert.Node, cert.Serial)
	}
	sec, err := Seal(&wire.Hello{Origin: cred.NodeID()}, cred, a.scheme)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(sec, trust, clk.now, a.scheme); err != nil {
		t.Errorf("Open: %v", err)
	}
	if got := a.Stats(); got != (ProvisionStats{}) {
		t.Errorf("stats = %+v, want none: IssueFor signs eagerly and issues no credential", got)
	}
}
