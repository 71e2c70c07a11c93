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

// FuzzOpenSecure feeds arbitrary envelope bytes through Open under ECDSA
// with no memo, under ECDSA through a memo warmed on honest traffic, and
// under the session-token scheme. The two ECDSA paths must agree: same
// accept/reject verdict, same error class, same decoded packet. No input
// may panic, and no input may be accepted through the memo that direct
// verification rejects (the laundering property, fuzzed).
func FuzzOpenSecure(f *testing.F) {
	ecdsaScheme := ECDSA{}
	fx := newOpenFixture(f, ecdsaScheme, 2)
	honest := fx.seal(f, fx.creds[0], 1)

	sessionScheme := NewSessionToken()
	sfx := newOpenFixture(f, sessionScheme, 2)
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

	warm := ECDSA{Memo: NewMemo()}
	if _, _, err := Open(honest, fx.trust, 0, warm); err != nil {
		f.Fatal(err)
	}
	if _, _, err := Open(sHonest, sfx.trust, 0, sessionScheme); err != nil {
		f.Fatal(err)
	}

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
		wantPkt, _, wantErr := Open(sec, fx.trust, now, ecdsaScheme)
		gotPkt, _, gotErr := Open(sec, fx.trust, now, warm)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("verdict diverged: memo err %v, direct err %v", gotErr, wantErr)
		}
		for _, class := range openErrClasses {
			if errors.Is(wantErr, class) != errors.Is(gotErr, class) {
				t.Fatalf("error class diverged: memo %v, direct %v", gotErr, wantErr)
			}
		}
		if !reflect.DeepEqual(gotPkt, wantPkt) {
			t.Fatalf("packet diverged: memo %+v, direct %+v", gotPkt, wantPkt)
		}
		_, _, _ = Open(sec, sfx.trust, now, sessionScheme) // must not panic
	})
}
