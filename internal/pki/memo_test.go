package pki

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// memoKeys derives n deterministic test keys.
func memoKeys(t testing.TB, n int) []*ecdsa.PrivateKey {
	t.Helper()
	keys := make([]*ecdsa.PrivateKey, n)
	for i := range keys {
		k, err := GenerateKey(newDetReader(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

// TestMemoFIFOBounded fills a small memo past its capacity: it never holds
// more than its capacity, evicts the oldest entry first, and an evicted
// entry is recomputed to the same bytes.
func TestMemoFIFOBounded(t *testing.T) {
	const capacity = 4
	key := memoKeys(t, 1)[0]
	memo := newMemo(capacity)
	s := ECDSA{Memo: memo}
	msg := func(i int) []byte { return []byte(fmt.Sprintf("message %d", i)) }
	first, err := s.Sign(key, msg(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3*capacity; i++ {
		sig, err := s.Sign(key, msg(i))
		if err != nil {
			t.Fatal(err)
		}
		if !s.Verify(&key.PublicKey, msg(i), sig) {
			t.Fatalf("message %d: own signature rejected", i)
		}
		st := memo.Stats()
		if st.Entries > capacity || len(memo.sigs)+len(memo.verdicts) != st.Entries {
			t.Fatalf("after message %d: %d entries (%d signatures, %d verdicts), capacity %d",
				i, st.Entries, len(memo.sigs), len(memo.verdicts), capacity)
		}
	}
	before := memo.Stats()
	again, err := s.Sign(key, msg(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, first) {
		t.Errorf("evicted signature recomputed to different bytes")
	}
	if after := memo.Stats(); after.SignMisses != before.SignMisses+1 {
		t.Errorf("oldest signature still held after %d newer entries: %+v", 3*capacity, after)
	}
	// The newest entry (the last verdict) is still held.
	last := 3*capacity - 1
	sig, _ := s.Sign(key, msg(last))
	before = memo.Stats()
	if !s.Verify(&key.PublicKey, msg(last), sig) {
		t.Fatal("newest verdict flipped")
	}
	if after := memo.Stats(); after.VerifyHits != before.VerifyHits+1 {
		t.Errorf("newest verdict not held: %+v", after)
	}
}

// TestMemoTamperMisses holds that the verify key covers the public key,
// the message and every signature byte: each tampered input misses the
// memo and gets the direct verdict.
func TestMemoTamperMisses(t *testing.T) {
	keys := memoKeys(t, 2)
	memo := NewMemo()
	s := ECDSA{Memo: memo}
	msg := []byte("route reply")
	sig, err := s.Sign(keys[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !s.Verify(&keys[0].PublicKey, msg, sig) {
			t.Fatalf("verify %d: honest signature rejected", i)
		}
	}
	if st := memo.Stats(); st.VerifyHits != 1 || st.VerifyMisses != 1 {
		t.Fatalf("honest verify twice: %+v, want one miss then one hit", st)
	}
	flipped := func(b []byte, i int) []byte {
		c := bytes.Clone(b)
		c[i] ^= 0x01
		return c
	}
	cases := []struct {
		name string
		pub  *ecdsa.PublicKey
		msg  []byte
		sig  []byte
	}{
		{"key", &keys[1].PublicKey, msg, sig},
		{"message", &keys[0].PublicKey, flipped(msg, 0), sig},
		{"signature body", &keys[0].PublicKey, msg, flipped(sig, 10)},
		{"signature padding", &keys[0].PublicKey, msg, flipped(sig, SignatureSize-1)},
	}
	for _, c := range cases {
		before := memo.Stats()
		got := s.Verify(c.pub, c.msg, c.sig)
		if want := (ECDSA{}).Verify(c.pub, c.msg, c.sig); got != want {
			t.Errorf("tampered %s: memo verdict %v, direct %v", c.name, got, want)
		}
		if after := memo.Stats(); after.VerifyMisses != before.VerifyMisses+1 {
			t.Errorf("tampered %s hit the memo: %+v", c.name, after)
		}
	}
}

// TestMemoSignatureCopies holds that a caller mutating a returned
// signature cannot change what later hits return.
func TestMemoSignatureCopies(t *testing.T) {
	key := memoKeys(t, 1)[0]
	memo := NewMemo()
	s := ECDSA{Memo: memo}
	msg := []byte("hello")
	want, err := (ECDSA{}).Sign(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sig, err := s.Sign(key, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sig, want) {
			t.Fatalf("sign %d: memo returned %x, direct %x", i, sig, want)
		}
		for j := range sig {
			sig[j] ^= 0xff
		}
	}
	if st := memo.Stats(); st.SignHits != 2 || st.SignMisses != 1 {
		t.Errorf("three signs of one message: %+v, want one miss then two hits", st)
	}
}

// TestMemoConcurrent signs and verifies one set of messages from 8
// goroutines through one memo; every result must equal the direct one. CI
// runs the package under -race.
func TestMemoConcurrent(t *testing.T) {
	keys := memoKeys(t, 3)
	type item struct {
		key *ecdsa.PrivateKey
		msg []byte
		sig []byte
	}
	var items []item
	for i := 0; i < 12; i++ {
		k := keys[i%len(keys)]
		msg := []byte(fmt.Sprintf("envelope %d", i))
		sig, err := (ECDSA{}).Sign(k, msg)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, item{k, msg, sig})
	}
	memo := NewMemo()
	s := ECDSA{Memo: memo}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range items {
					n := (i + g) % len(items)
					it := items[n]
					sig, err := s.Sign(it.key, it.msg)
					if err != nil || !bytes.Equal(sig, it.sig) {
						errs <- fmt.Errorf("goroutine %d: sign %q = %x, %v; want %x", g, it.msg, sig, err, it.sig)
						return
					}
					other := &keys[(n+1)%len(keys)].PublicKey
					if !s.Verify(&it.key.PublicKey, it.msg, sig) || s.Verify(other, it.msg, sig) {
						errs <- fmt.Errorf("goroutine %d: verify %q disagrees with direct", g, it.msg)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := memo.Stats(); st.Entries > 3*len(items) || st.SignHits == 0 || st.VerifyHits == 0 {
		t.Errorf("memo after concurrent use: %+v", st)
	}
}

// FuzzVerifyMemo tampers with an honest (key, message, signature) triple
// and requires the memoised verdict, on a miss and again on a hit, to
// equal ecdsa.VerifyASN1's on the same bytes.
func FuzzVerifyMemo(f *testing.F) {
	keys := memoKeys(f, 2)
	honest := []byte("detection request")
	sig, err := (ECDSA{}).Sign(keys[0], honest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(honest, sig, false)
	f.Add(honest, sig, true)
	f.Add([]byte("detection reply"), sig, false)
	tampered := bytes.Clone(sig)
	tampered[20] ^= 0x80
	f.Add(honest, tampered, false)
	f.Add(honest, sig[:SignatureSize-1], false)

	memo := NewMemo()
	s := ECDSA{Memo: memo}
	if !s.Verify(&keys[0].PublicKey, honest, sig) {
		f.Fatal("honest signature rejected")
	}
	f.Fuzz(func(t *testing.T, msg, sig []byte, otherKey bool) {
		pub := &keys[0].PublicKey
		if otherKey {
			pub = &keys[1].PublicKey
		}
		want := false
		if asn1, ok := unframe(sig); ok {
			digest := sha256.Sum256(msg)
			want = ecdsa.VerifyASN1(pub, digest[:], asn1)
		}
		for i := 0; i < 2; i++ {
			if got := s.Verify(pub, msg, sig); got != want {
				t.Fatalf("call %d: memoised verdict %v, ecdsa.VerifyASN1 %v", i, got, want)
			}
		}
	})
}
