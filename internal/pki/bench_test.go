package pki

import (
	"testing"
	"time"

	"blackdp/internal/wire"
)

func benchSetup(b *testing.B, scheme Scheme) (*Authority, *Credential, *TrustStore) {
	b.Helper()
	trust := NewTrustStore()
	a, err := NewAuthority(1, trust, func() time.Duration { return 0 }, scheme, newDetReader(1))
	if err != nil {
		b.Fatal(err)
	}
	cred, err := a.Issue("veh", time.Hour, newDetReader(2))
	if err != nil {
		b.Fatal(err)
	}
	return a, cred, trust
}

// BenchmarkSealECDSA measures signing one route reply (the per-RREP cost a
// destination or intermediate pays).
func BenchmarkSealECDSA(b *testing.B) {
	scheme := ECDSA{}
	_, cred, _ := benchSetup(b, scheme)
	p := &wire.RREP{Origin: 1, Dest: 7, DestSeq: 75, HopCount: 3, Issuer: cred.NodeID()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Seal(p, cred, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenECDSA measures the receiver side: certificate verification
// plus signature verification plus decode — the paper's per-packet
// authentication cost at vehicles and RSUs.
func BenchmarkOpenECDSA(b *testing.B) {
	scheme := ECDSA{}
	_, cred, trust := benchSetup(b, scheme)
	sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: 75, Issuer: cred.NodeID()}, cred, scheme)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(sec, trust, 0, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenInsecure is the ablation control for Open.
func BenchmarkOpenInsecure(b *testing.B) {
	scheme := Insecure{}
	_, cred, trust := benchSetup(b, scheme)
	sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: 75, Issuer: cred.NodeID()}, cred, scheme)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(sec, trust, 0, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIssue measures credential issuance through its first use (key
// generation + TA signature at mint), the TA-side renewal cost the paper
// worries about under load.
func BenchmarkIssue(b *testing.B) {
	scheme := ECDSA{}
	a, _, _ := benchSetup(b, scheme)
	r := newDetReader(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cred, err := a.Issue("bench", time.Hour, r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cred.Certificate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyCertificate isolates the certificate check.
func BenchmarkVerifyCertificate(b *testing.B) {
	scheme := ECDSA{}
	_, cred, trust := benchSetup(b, scheme)
	cert := certOf(b, cred)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := VerifyCertificate(&cert, trust, 0, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenECDSAMemo measures Open once the world's memo holds the
// envelope's two verdicts — the price of a repeat reception.
func BenchmarkOpenECDSAMemo(b *testing.B) {
	_, cred, trust := benchSetup(b, ECDSA{})
	sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: 75, Issuer: cred.NodeID()}, cred, ECDSA{})
	if err != nil {
		b.Fatal(err)
	}
	scheme := ECDSA{Memo: NewMemo()}
	if _, _, err := Open(sec, trust, 0, scheme); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(sec, trust, 0, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealSessionToken measures the sender-side per-packet cost under
// the session-token scheme (epoch anchor amortized away).
func BenchmarkSealSessionToken(b *testing.B) {
	scheme := NewSessionToken()
	_, cred, _ := benchSetup(b, scheme)
	p := &wire.RREP{Origin: 1, Dest: 7, DestSeq: 75, HopCount: 3, Issuer: cred.NodeID()}
	if _, err := Seal(p, cred, scheme); err != nil { // establish the epoch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Seal(p, cred, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenSessionToken measures the receiver-side per-packet cost under
// the session-token scheme: after the one ECDSA anchor verification per
// epoch, each packet is an HMAC compare (plus the certificate check).
func BenchmarkOpenSessionToken(b *testing.B) {
	scheme := NewSessionToken()
	_, cred, trust := benchSetup(b, scheme)
	sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: 75, Issuer: cred.NodeID()}, cred, scheme)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := Open(sec, trust, 0, scheme); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(sec, trust, 0, scheme); err != nil {
			b.Fatal(err)
		}
	}
}
