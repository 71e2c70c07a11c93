package pki

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"blackdp/internal/wire"
)

// wireFuzzCorpus loads the raw byte inputs the wire-codec fuzzer has found,
// so envelope shapes that once broke the decoder also exercise the
// verification paths.
func wireFuzzCorpus(f *testing.F) [][]byte {
	f.Helper()
	dir := filepath.Join("..", "wire", "testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil // corpus is optional seed material
	}
	var out [][]byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			if s, err := strconv.Unquote(line[len("[]byte(") : len(line)-1]); err == nil {
				out = append(out, []byte(s))
			}
		}
	}
	return out
}

// FuzzOpenSecure feeds arbitrary envelope bytes through every verification
// path — uncached Open, a cold cached Verifier, a Verifier warmed on honest
// traffic, and the session-token scheme — and requires them to agree: same
// accept/reject verdict, same error class, same decoded packet. No input may
// panic, and no input may be accepted by a cached path that the reference
// path rejects (the laundering property, fuzzed).
func FuzzOpenSecure(f *testing.F) {
	ecdsaScheme := ECDSA{}
	fx := newVerifierFixture(f, ecdsaScheme, 2)
	honest := fx.seal(f, fx.creds[0], 1)

	sessionScheme := NewSessionToken()
	sfx := newVerifierFixture(f, sessionScheme, 2)
	sHonest := sfx.seal(f, sfx.creds[0], 1)

	// Seeds: honest envelopes under both schemes, targeted mutations, and
	// the wire fuzzer's decoder-breaking finds.
	for _, sec := range []*wire.Secure{honest, sHonest, fx.seal(f, fx.creds[1], 2)} {
		b, err := sec.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for _, i := range []int{0, 8, len(b) / 2, len(b) - 1} {
			mut := append([]byte(nil), b...)
			mut[i] ^= 0xa5
			f.Add(mut)
		}
		f.Add(b[:len(b)/2])
	}
	for _, b := range wireFuzzCorpus(f) {
		f.Add(b)
	}

	warm := NewVerifier(fx.trust, ecdsaScheme, VerifierOptions{})
	if _, _, err := warm.Open(honest, 0); err != nil {
		f.Fatal(err)
	}
	sessionWarm := NewVerifier(sfx.trust, sessionScheme, VerifierOptions{})
	if _, _, err := sessionWarm.Open(sHonest, 0); err != nil {
		f.Fatal(err)
	}

	classes := []error{ErrBadSignature, ErrBadCertificate, ErrCertExpired, ErrUnknownAuthority}
	now := 30 * time.Minute

	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := wire.Decode(data)
		if err != nil {
			return
		}
		sec, ok := pkt.(*wire.Secure)
		if !ok {
			return
		}
		check := func(label string, trust *TrustStore, scheme Scheme, vs ...*Verifier) {
			wantPkt, _, wantErr := Open(sec, trust, now, scheme)
			for _, v := range vs {
				gotPkt, _, gotErr := v.Open(sec, now)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: verdict diverged: cached err %v, reference err %v", label, gotErr, wantErr)
				}
				if wantErr != nil {
					for _, class := range classes {
						if errors.Is(wantErr, class) != errors.Is(gotErr, class) {
							t.Fatalf("%s: error class diverged: cached %v, reference %v", label, gotErr, wantErr)
						}
					}
					continue
				}
				if !reflect.DeepEqual(gotPkt, wantPkt) {
					t.Fatalf("%s: packet diverged: cached %+v, reference %+v", label, gotPkt, wantPkt)
				}
			}
		}
		cold := NewVerifier(fx.trust, ecdsaScheme, VerifierOptions{})
		check("ecdsa", fx.trust, ecdsaScheme, cold, warm)
		sessionCold := NewVerifier(sfx.trust, sessionScheme, VerifierOptions{})
		check("session", sfx.trust, sessionScheme, sessionCold, sessionWarm)
	})
}
