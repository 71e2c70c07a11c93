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
	scheme := ECDSA{Rand: newDetReader(3)}
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
	scheme := ECDSA{Rand: newDetReader(3)}
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
	scheme := ECDSA{Rand: newDetReader(3)}
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
	scheme := ECDSA{Rand: newDetReader(3)}
	_, cred, trust := benchSetup(b, scheme)
	cert := certOf(b, cred)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := VerifyCertificate(&cert, trust, 0, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenECDSACached measures the steady-state receiver cost once the
// verification cache is warm — the price of a re-broadcast reception.
func BenchmarkOpenECDSACached(b *testing.B) {
	scheme := ECDSA{Rand: newDetReader(3)}
	_, cred, trust := benchSetup(b, scheme)
	sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: 75, Issuer: cred.NodeID()}, cred, scheme)
	if err != nil {
		b.Fatal(err)
	}
	v := NewVerifier(trust, scheme, VerifierOptions{})
	if _, _, err := v.Open(sec, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.Open(sec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// relayedBenchWorkload builds the cache's target traffic shape: a small
// neighbourhood of senders whose envelopes each arrive several times.
func relayedBenchWorkload(b *testing.B, scheme Scheme) (*TrustStore, []*wire.Secure) {
	b.Helper()
	trust := NewTrustStore()
	a, err := NewAuthority(1, trust, func() time.Duration { return 0 }, scheme, newDetReader(1))
	if err != nil {
		b.Fatal(err)
	}
	var uniques []*wire.Secure
	for s := 0; s < 8; s++ {
		cred, err := a.Issue("veh", time.Hour, newDetReader(int64(200+s)))
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: wire.SeqNum(s*10 + p), Issuer: cred.NodeID()}, cred, scheme)
			if err != nil {
				b.Fatal(err)
			}
			uniques = append(uniques, sec)
		}
	}
	var work []*wire.Secure
	for c := 0; c < 8; c++ { // each envelope received 8 times
		for i := range uniques {
			work = append(work, uniques[(i+c)%len(uniques)])
		}
	}
	return trust, work
}

// BenchmarkOpenRelayedECDSA is the uncached reference on the relayed
// workload: every reception pays the full certificate + envelope ECDSA cost.
func BenchmarkOpenRelayedECDSA(b *testing.B) {
	scheme := ECDSA{Rand: newDetReader(3)}
	trust, work := relayedBenchWorkload(b, scheme)
	v := NewVerifier(trust, scheme, VerifierOptions{Disabled: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.Open(work[i%len(work)], 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(v.Stats().SchemeVerifies)/float64(b.N), "verifies/op")
}

// BenchmarkOpenRelayedECDSACached is the same workload through the cache:
// each envelope verifies once per node, repeats cost two digests. The 16
// unique envelopes are opened once during setup so the loop measures the
// steady state even at tiny -benchtime iteration counts; the one-off miss
// cost is BenchmarkOpenECDSA, and TestCachedVerifyReduction pins the >= 5x
// verification reduction including the cold misses.
func BenchmarkOpenRelayedECDSACached(b *testing.B) {
	scheme := ECDSA{Rand: newDetReader(3)}
	trust, work := relayedBenchWorkload(b, scheme)
	v := NewVerifier(trust, scheme, VerifierOptions{})
	for _, sec := range work {
		if _, _, err := v.Open(sec, 0); err != nil {
			b.Fatal(err)
		}
	}
	warmVerifies := v.Stats().SchemeVerifies
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.Open(work[i%len(work)], 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(v.Stats().SchemeVerifies-warmVerifies)/float64(b.N), "verifies/op")
}

// BenchmarkSealSessionToken measures the sender-side per-packet cost under
// the session-token scheme (epoch anchor amortized away).
func BenchmarkSealSessionToken(b *testing.B) {
	scheme := NewSessionToken(newDetReader(3))
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
// epoch, each packet is an HMAC compare (plus the cached certificate check).
func BenchmarkOpenSessionToken(b *testing.B) {
	scheme := NewSessionToken(newDetReader(3))
	_, cred, trust := benchSetup(b, scheme)
	sec, err := Seal(&wire.RREP{Origin: 1, Dest: 7, DestSeq: 75, Issuer: cred.NodeID()}, cred, scheme)
	if err != nil {
		b.Fatal(err)
	}
	v := NewVerifier(trust, scheme, VerifierOptions{})
	if _, _, err := v.Open(sec, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.Open(sec, 0); err != nil {
			b.Fatal(err)
		}
	}
}
