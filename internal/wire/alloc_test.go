package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"blackdp/internal/sim"
)

// TestAppendBinaryMatchesMarshal checks, for every packet kind, that
// AppendBinary into a reused buffer produces exactly the MarshalBinary bytes
// and honours an existing prefix.
func TestAppendBinaryMatchesMarshal(t *testing.T) {
	scratch := make([]byte, 0, 512)
	for _, p := range samplePackets() {
		want, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: MarshalBinary: %v", p.Kind(), err)
		}
		got, err := p.AppendBinary(scratch[:0])
		if err != nil {
			t.Fatalf("%v: AppendBinary: %v", p.Kind(), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: AppendBinary != MarshalBinary", p.Kind())
		}
		prefixed, err := p.AppendBinary([]byte("prefix"))
		if err != nil {
			t.Fatalf("%v: AppendBinary with prefix: %v", p.Kind(), err)
		}
		if !bytes.Equal(prefixed, append([]byte("prefix"), want...)) {
			t.Errorf("%v: AppendBinary did not append after existing prefix", p.Kind())
		}
	}
}

// TestUnmarshalBinaryRoundTrip checks the typed decoders agree with Decode
// and reject wrong-kind and truncated input.
func TestUnmarshalBinaryRoundTrip(t *testing.T) {
	for _, p := range samplePackets() {
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: MarshalBinary: %v", p.Kind(), err)
		}
		// Fresh instance of the same concrete type, decoded via the typed path.
		got := reflect.New(reflect.TypeOf(p).Elem()).Interface().(interface {
			UnmarshalBinary([]byte) error
		})
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("%v: UnmarshalBinary: %v", p.Kind(), err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("%v: typed round trip mismatch:\n got %+v\nwant %+v", p.Kind(), got, p)
		}
		if err := got.UnmarshalBinary(nil); !errors.Is(err, ErrTruncated) {
			t.Errorf("%v: UnmarshalBinary(nil) = %v, want ErrTruncated", p.Kind(), err)
		}
	}
	var h Hello
	rrep, _ := (&RREP{}).MarshalBinary()
	if err := h.UnmarshalBinary(rrep); !errors.Is(err, ErrBadKind) {
		t.Errorf("Hello.UnmarshalBinary(RREP bytes) = %v, want ErrBadKind", err)
	}
}

// TestAllocsEncodeRoundTrip pins the hot codec paths: encoding into a warm
// scratch buffer and stack-decoding a fixed-size packet must not allocate,
// and Size must stay allocation-free via the pooled scratch buffer.
func TestAllocsEncodeRoundTrip(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	p := &Hello{Origin: 1, Dest: 7, Nonce: 42, Reply: true, Hops: 3}
	buf, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h Hello
	got := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = p.AppendBinary(buf[:0])
		if err != nil {
			panic(err)
		}
		if err := h.UnmarshalBinary(buf); err != nil {
			panic(err)
		}
	})
	if got > 0 {
		t.Errorf("AppendBinary+UnmarshalBinary round trip: %.1f allocs/op, budget 0", got)
	}
	if h != *p {
		t.Fatalf("round trip mismatch: %+v != %+v", h, *p)
	}
	Size(p) // warm the pool outside the measurement
	got = testing.AllocsPerRun(200, func() { Size(p) })
	if got > 0 {
		t.Errorf("Size: %.1f allocs/op, budget 0", got)
	}
}

// TestAllocsRERRScratch pins the router's scratch RERR: once its list has
// grown, decoding into it again allocates nothing. A fresh record still
// decodes an empty list as nil, so Decode round trips stay exact.
func TestAllocsRERRScratch(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	p := &RERR{Reporter: 3, Unreachable: []UnreachableDest{{Node: 9, Seq: 4}, {Node: 11, Seq: 2}, {Node: 12, Seq: 7}}}
	buf, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var scratch RERR
	got := testing.AllocsPerRun(200, func() {
		if err := scratch.UnmarshalBinary(buf); err != nil {
			panic(err)
		}
	})
	if got > 0 {
		t.Errorf("RERR.UnmarshalBinary into scratch: %.1f allocs/op, budget 0", got)
	}
	if !reflect.DeepEqual(&scratch, p) {
		t.Fatalf("scratch decode = %+v, want %+v", scratch, *p)
	}
	empty, err := (&RERR{Reporter: 5}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.UnmarshalBinary(empty); err != nil || scratch.Reporter != 5 || len(scratch.Unreachable) != 0 {
		t.Fatalf("scratch decode of an empty list = %+v, %v", scratch, err)
	}
	pkt, err := Decode(empty)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.(*RERR).Unreachable != nil {
		t.Errorf("Decode of an empty RERR list gave a non-nil slice")
	}
}
