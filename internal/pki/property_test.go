package pki

import (
	"testing"
	"testing/quick"
	"time"

	"blackdp/internal/wire"
)

// TestSealOpenProperty: any packet sealed by a valid credential opens to an
// equivalent packet bound to the sealing identity.
func TestSealOpenProperty(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	scheme := ECDSA{Rand: newDetReader(11)}
	a, err := NewAuthority(1, trust, clk.clock, scheme, newDetReader(12))
	if err != nil {
		t.Fatal(err)
	}
	cred, err := a.Issue("prop", time.Hour, newDetReader(13))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(origin, dest uint64, seq uint32, hops uint8) bool {
		inner := &wire.RREP{
			Origin: wire.NodeID(origin), Dest: wire.NodeID(dest),
			DestSeq: wire.SeqNum(seq), HopCount: hops, Issuer: cred.NodeID(),
		}
		sec, err := Seal(inner, cred, scheme)
		if err != nil {
			return false
		}
		got, cert, err := Open(sec, trust, clk.now, scheme)
		if err != nil || cert.Node != cred.NodeID() {
			return false
		}
		rep, ok := got.(*wire.RREP)
		return ok && rep.DestSeq == inner.DestSeq && rep.Origin == inner.Origin && rep.Dest == inner.Dest
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTamperedEnvelopeNeverOpensProperty: flipping any byte of the sealed
// inner payload must fail verification.
func TestTamperedEnvelopeNeverOpensProperty(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	scheme := ECDSA{Rand: newDetReader(21)}
	a, err := NewAuthority(1, trust, clk.clock, scheme, newDetReader(22))
	if err != nil {
		t.Fatal(err)
	}
	cred, err := a.Issue("prop", time.Hour, newDetReader(23))
	if err != nil {
		t.Fatal(err)
	}
	sec, err := Seal(&wire.RREP{Origin: 1, Dest: 2, DestSeq: 250, Issuer: cred.NodeID()}, cred, scheme)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(pos uint8, bit uint8) bool {
		mutated := *sec
		mutated.Inner = append([]byte(nil), sec.Inner...)
		mutated.Inner[int(pos)%len(mutated.Inner)] ^= 1 << (bit % 8)
		if string(mutated.Inner) == string(sec.Inner) {
			return true // the xor was a no-op (bit flip of 0? impossible, but guard)
		}
		_, _, err := Open(&mutated, trust, clk.now, scheme)
		return err != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSerialsStrictlyIncreaseProperty: serials and pseudonyms from one
// authority never repeat across arbitrary issue sequences.
func TestSerialsStrictlyIncreaseProperty(t *testing.T) {
	trust := NewTrustStore()
	clk := &fakeClock{}
	a, err := NewAuthority(1, trust, clk.clock, Insecure{}, newDetReader(31))
	if err != nil {
		t.Fatal(err)
	}
	var lastSerial uint64
	seen := map[wire.NodeID]bool{}
	for i := 0; i < 200; i++ {
		cred, err := a.Issue("lineage", time.Hour, newDetReader(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if cred.Serial() <= lastSerial {
			t.Fatalf("serial %d not above %d", cred.Serial(), lastSerial)
		}
		lastSerial = cred.Serial()
		if seen[cred.NodeID()] {
			t.Fatalf("pseudonym %v reused", cred.NodeID())
		}
		seen[cred.NodeID()] = true
	}
}
