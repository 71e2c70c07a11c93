package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Codec errors.
var (
	// ErrTruncated reports a buffer that ended before the packet did.
	ErrTruncated = errors.New("wire: truncated packet")
	// ErrBadKind reports an unknown leading Kind byte.
	ErrBadKind = errors.New("wire: unknown packet kind")
	// ErrTooLong reports a variable-length field exceeding its wire bound.
	ErrTooLong = errors.New("wire: field too long")
)

// maxVarLen bounds every variable-length field (payloads, keys, signatures,
// lists) to keep decoders allocation-safe on hostile input.
const maxVarLen = 1 << 16

// writer appends big-endian fields to a buffer. It is used as a stack value;
// only the buffer it builds escapes.
type writer struct {
	buf []byte
}

// start begins a packet encoding appended to dst: when dst is nil a fresh
// buffer is allocated with the size hint, otherwise the caller's buffer (and
// capacity) is reused.
func start(dst []byte, kind Kind, sizeHint int) writer {
	if dst == nil {
		dst = make([]byte, 0, sizeHint+1)
	}
	return writer{buf: append(dst, byte(kind))}
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}

func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) duration(d time.Duration) { w.u64(uint64(d)) }

func (w *writer) bytes(b []byte) error {
	if len(b) > maxVarLen {
		return fmt.Errorf("%w: %d bytes", ErrTooLong, len(b))
	}
	w.u16(uint16(len(b)))
	w.buf = append(w.buf, b...)
	return nil
}

// reader consumes big-endian fields from a buffer, latching the first error.
// Like writer it lives on the caller's stack.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// boolean accepts only the canonical encodings 0 and 1. Rejecting other
// bytes keeps decode∘encode the identity on every accepted input — a
// relayed packet cannot silently normalise in flight (found by FuzzDecode).
func (r *reader) boolean() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: non-canonical boolean byte %#x", v)
		}
		return true
	}
}

func (r *reader) duration() time.Duration { return time.Duration(r.u64()) }

func (r *reader) bytes() []byte {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// finish returns the latched error, also failing if trailing bytes remain.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// body strips and verifies the leading Kind byte for UnmarshalBinary.
func body(b []byte, want Kind) ([]byte, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	if Kind(b[0]) != want {
		return nil, fmt.Errorf("%w: got %v, want %v", ErrBadKind, Kind(b[0]), want)
	}
	return b[1:], nil
}

// Decode parses a packet from its wire bytes, dispatching on the leading
// Kind byte. Each call allocates a fresh packet; hot paths that know the
// kind in advance (Frame.Kind) can instead UnmarshalBinary into a stack
// value and skip the heap entirely.
func Decode(b []byte) (Packet, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	kind := Kind(b[0])
	var (
		p   Packet
		err error
	)
	switch kind {
	case KindRREQ:
		p, err = alloc[RREQ](b)
	case KindRREP:
		p, err = alloc[RREP](b)
	case KindRERR:
		p, err = alloc[RERR](b)
	case KindHello:
		p, err = alloc[Hello](b)
	case KindData:
		p, err = alloc[Data](b)
	case KindJoinReq:
		p, err = alloc[JoinReq](b)
	case KindJoinRep:
		p, err = alloc[JoinRep](b)
	case KindLeave:
		p, err = alloc[Leave](b)
	case KindDetectReq:
		p, err = alloc[DetectReq](b)
	case KindDetectResp:
		p, err = alloc[DetectResp](b)
	case KindRevocationReq:
		p, err = alloc[RevocationReq](b)
	case KindRevocationNotice:
		p, err = alloc[RevocationNotice](b)
	case KindBlacklistNotice:
		p, err = alloc[BlacklistNotice](b)
	case KindRenewalReq:
		p, err = alloc[RenewalReq](b)
	case KindRenewalResp:
		p, err = alloc[RenewalResp](b)
	case KindSecure:
		p, err = alloc[Secure](b)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, uint8(kind))
	}
	if err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", kind, err)
	}
	return p, nil
}

// unmarshaler is the pointer-receiver decode constraint for alloc.
type unmarshaler[T any] interface {
	*T
	Packet
	UnmarshalBinary(b []byte) error
}

// alloc heap-allocates a T and unmarshals the full wire bytes into it.
func alloc[T any, PT unmarshaler[T]](b []byte) (Packet, error) {
	p := PT(new(T))
	if err := p.UnmarshalBinary(b); err != nil {
		return nil, err
	}
	return p, nil
}

// AppendBinary implements Packet.
func (p *RREQ) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindRREQ, 31)
	w.u32(p.FloodID)
	w.u64(uint64(p.Origin))
	w.u32(uint32(p.OriginSeq))
	w.u64(uint64(p.Dest))
	w.u32(uint32(p.DestSeq))
	w.u8(p.HopCount)
	w.u8(p.TTL)
	w.boolean(p.WantNext)
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p. It does not allocate, so decoding into a stack value is free.
func (p *RREQ) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindRREQ)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = RREQ{
		FloodID:   r.u32(),
		Origin:    NodeID(r.u64()),
		OriginSeq: SeqNum(r.u32()),
		Dest:      NodeID(r.u64()),
		DestSeq:   SeqNum(r.u32()),
		HopCount:  r.u8(),
		TTL:       r.u8(),
		WantNext:  r.boolean(),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *RREP) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindRREP, 47)
	w.u64(uint64(p.Origin))
	w.u64(uint64(p.Dest))
	w.u32(uint32(p.DestSeq))
	w.u8(p.HopCount)
	w.duration(p.Lifetime)
	w.u64(uint64(p.Issuer))
	w.u16(uint16(p.IssuerCluster))
	w.u64(uint64(p.NextHop))
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *RREP) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindRREP)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = RREP{
		Origin:        NodeID(r.u64()),
		Dest:          NodeID(r.u64()),
		DestSeq:       SeqNum(r.u32()),
		HopCount:      r.u8(),
		Lifetime:      r.duration(),
		Issuer:        NodeID(r.u64()),
		IssuerCluster: ClusterID(r.u16()),
		NextHop:       NodeID(r.u64()),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *RERR) AppendBinary(dst []byte) ([]byte, error) {
	if len(p.Unreachable) > maxVarLen {
		return nil, fmt.Errorf("%w: %d unreachable entries", ErrTooLong, len(p.Unreachable))
	}
	w := start(dst, KindRERR, 10+12*len(p.Unreachable))
	w.u64(uint64(p.Reporter))
	w.u16(uint16(len(p.Unreachable)))
	for _, u := range p.Unreachable {
		w.u64(uint64(u.Node))
		w.u32(uint32(u.Seq))
	}
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p. A record decoded into before reuses its Unreachable
// capacity; a fresh one decodes an empty list as nil.
func (p *RERR) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindRERR)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	list := p.Unreachable[:0]
	*p = RERR{Reporter: NodeID(r.u64())}
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		list = append(list, UnreachableDest{
			Node: NodeID(r.u64()),
			Seq:  SeqNum(r.u32()),
		})
	}
	p.Unreachable = list
	return r.finish()
}

// AppendBinary implements Packet.
func (p *Hello) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindHello, 26)
	w.u64(uint64(p.Origin))
	w.u64(uint64(p.Dest))
	w.u64(p.Nonce)
	w.boolean(p.Reply)
	w.u8(p.Hops)
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p. It does not allocate.
func (p *Hello) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindHello)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = Hello{
		Origin: NodeID(r.u64()),
		Dest:   NodeID(r.u64()),
		Nonce:  r.u64(),
		Reply:  r.boolean(),
		Hops:   r.u8(),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *Data) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindData, 22+len(p.Payload))
	w.u64(uint64(p.Origin))
	w.u64(uint64(p.Dest))
	w.u32(p.SeqNo)
	if err := w.bytes(p.Payload); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p. The payload is copied out of b, so b may be reused.
func (p *Data) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindData)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = Data{
		Origin:  NodeID(r.u64()),
		Dest:    NodeID(r.u64()),
		SeqNo:   r.u32(),
		Payload: r.bytes(),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *JoinReq) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindJoinReq, 35)
	w.u64(uint64(p.Vehicle))
	w.f64(p.PosX)
	w.f64(p.PosY)
	w.f64(p.SpeedMS)
	w.boolean(p.Eastbound)
	w.boolean(p.Overlapped)
	w.boolean(p.Failover)
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *JoinReq) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindJoinReq)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = JoinReq{
		Vehicle:    NodeID(r.u64()),
		PosX:       r.f64(),
		PosY:       r.f64(),
		SpeedMS:    r.f64(),
		Eastbound:  r.boolean(),
		Overlapped: r.boolean(),
		Failover:   r.boolean(),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *JoinRep) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindJoinRep, 18)
	w.u64(uint64(p.Head))
	w.u16(uint16(p.Cluster))
	w.u64(uint64(p.Vehicle))
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *JoinRep) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindJoinRep)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = JoinRep{
		Head:    NodeID(r.u64()),
		Cluster: ClusterID(r.u16()),
		Vehicle: NodeID(r.u64()),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *Leave) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindLeave, 10)
	w.u64(uint64(p.Vehicle))
	w.u16(uint16(p.Cluster))
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *Leave) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindLeave)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = Leave{
		Vehicle: NodeID(r.u64()),
		Cluster: ClusterID(r.u16()),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *DetectReq) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindDetectReq, 50)
	w.u64(uint64(p.Reporter))
	w.u16(uint16(p.ReporterCluster))
	w.u64(uint64(p.Suspect))
	w.u16(uint16(p.SuspectCluster))
	w.u64(p.SuspectSerial)
	w.u64(uint64(p.FakeDest))
	w.u32(uint32(p.PriorSeq))
	w.u8(p.Forwards)
	w.u64(p.Nonce)
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *DetectReq) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindDetectReq)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = DetectReq{
		Reporter:        NodeID(r.u64()),
		ReporterCluster: ClusterID(r.u16()),
		Suspect:         NodeID(r.u64()),
		SuspectCluster:  ClusterID(r.u16()),
		SuspectSerial:   r.u64(),
		FakeDest:        NodeID(r.u64()),
		PriorSeq:        SeqNum(r.u32()),
		Forwards:        r.u8(),
		Nonce:           r.u64(),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *DetectResp) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindDetectResp, 25)
	w.u64(uint64(p.Reporter))
	w.u64(uint64(p.Suspect))
	w.u8(uint8(p.Verdict))
	w.u64(uint64(p.Teammate))
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *DetectResp) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindDetectResp)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = DetectResp{
		Reporter: NodeID(r.u64()),
		Suspect:  NodeID(r.u64()),
		Verdict:  Verdict(r.u8()),
		Teammate: NodeID(r.u64()),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *RevocationReq) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindRevocationReq, 26)
	w.u64(uint64(p.Head))
	w.u64(uint64(p.Suspect))
	w.u64(p.CertSerial)
	w.u16(uint16(p.Cluster))
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *RevocationReq) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindRevocationReq)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = RevocationReq{
		Head:       NodeID(r.u64()),
		Suspect:    NodeID(r.u64()),
		CertSerial: r.u64(),
		Cluster:    ClusterID(r.u16()),
	}
	return r.finish()
}

func (w *writer) revokedCert(rc RevokedCert) {
	w.u64(uint64(rc.Node))
	w.u64(rc.CertSerial)
	w.duration(rc.Expiry)
}

func (r *reader) revokedCert() RevokedCert {
	return RevokedCert{
		Node:       NodeID(r.u64()),
		CertSerial: r.u64(),
		Expiry:     r.duration(),
	}
}

// AppendBinary implements Packet.
func (p *RevocationNotice) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindRevocationNotice, 26)
	w.u16(uint16(p.Authority))
	w.revokedCert(p.Revoked)
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *RevocationNotice) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindRevocationNotice)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = RevocationNotice{
		Authority: AuthorityID(r.u16()),
		Revoked:   r.revokedCert(),
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *BlacklistNotice) AppendBinary(dst []byte) ([]byte, error) {
	if len(p.Revoked) > maxVarLen {
		return nil, fmt.Errorf("%w: %d blacklist entries", ErrTooLong, len(p.Revoked))
	}
	w := start(dst, KindBlacklistNotice, 12+24*len(p.Revoked))
	w.u64(uint64(p.Head))
	w.u16(uint16(p.Cluster))
	w.u16(uint16(len(p.Revoked)))
	for _, rc := range p.Revoked {
		w.revokedCert(rc)
	}
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *BlacklistNotice) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindBlacklistNotice)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = BlacklistNotice{
		Head:    NodeID(r.u64()),
		Cluster: ClusterID(r.u16()),
	}
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		p.Revoked = append(p.Revoked, r.revokedCert())
	}
	return r.finish()
}

// AppendBinary implements Packet.
func (p *RenewalReq) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindRenewalReq, 18+len(p.NewPubKey))
	w.u64(uint64(p.Current))
	w.u64(p.CertSerial)
	if err := w.bytes(p.NewPubKey); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *RenewalReq) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindRenewalReq)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = RenewalReq{
		Current:    NodeID(r.u64()),
		CertSerial: r.u64(),
		NewPubKey:  r.bytes(),
	}
	return r.finish()
}

func (w *writer) certificate(c Certificate) error {
	w.u64(c.Serial)
	w.u64(uint64(c.Node))
	w.u16(uint16(c.Authority))
	if err := w.bytes(c.PubKey); err != nil {
		return err
	}
	w.duration(c.Expiry)
	return w.bytes(c.Signature)
}

func (r *reader) certificate() Certificate {
	return Certificate{
		Serial:    r.u64(),
		Node:      NodeID(r.u64()),
		Authority: AuthorityID(r.u16()),
		PubKey:    r.bytes(),
		Expiry:    r.duration(),
		Signature: r.bytes(),
	}
}

// AppendBinary implements Packet.
func (p *RenewalResp) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindRenewalResp, 48+len(p.Cert.PubKey)+len(p.Cert.Signature))
	w.u64(uint64(p.Requester))
	w.boolean(p.Denied)
	if err := w.certificate(p.Cert); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p.
func (p *RenewalResp) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindRenewalResp)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = RenewalResp{
		Requester: NodeID(r.u64()),
		Denied:    r.boolean(),
		Cert:      r.certificate(),
	}
	return r.finish()
}

// Preimage returns the byte string a Trusted Authority signs when issuing
// the certificate: every field except the signature itself.
func (c *Certificate) Preimage() []byte {
	w := writer{buf: make([]byte, 0, 28+len(c.PubKey))}
	w.u64(c.Serial)
	w.u64(uint64(c.Node))
	w.u16(uint16(c.Authority))
	// PubKey length is bounded by construction (SEC1 P-256 point, 65 bytes);
	// a too-long key would already have failed MarshalBinary.
	_ = w.bytes(c.PubKey)
	w.duration(c.Expiry)
	return w.buf
}

// AppendBinary implements Packet.
func (p *Secure) AppendBinary(dst []byte) ([]byte, error) {
	w := start(dst, KindSecure, 50+len(p.Inner)+len(p.Cert.PubKey)+len(p.Cert.Signature)+len(p.Signature))
	if err := w.bytes(p.Inner); err != nil {
		return nil, err
	}
	if err := w.certificate(p.Cert); err != nil {
		return nil, err
	}
	if err := w.bytes(p.Signature); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// UnmarshalBinary decodes the full wire bytes (including the Kind byte),
// replacing p. Secure packets are always heap-decoded in protocol code:
// detection candidates retain the envelope, so the struct must not live in a
// reused scratch buffer.
func (p *Secure) UnmarshalBinary(b []byte) error {
	b, err := body(b, KindSecure)
	if err != nil {
		return err
	}
	r := reader{buf: b}
	*p = Secure{
		Inner:     r.bytes(),
		Cert:      r.certificate(),
		Signature: r.bytes(),
	}
	return r.finish()
}

// scratch pools small encode buffers for transient marshals (Size, sealing
// digests) so measuring or hashing a packet does not allocate per call.
var scratch = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// GetScratch borrows a pooled encode buffer (length 0). Pass the returned
// pointer back to PutScratch when done; the buffer's contents must not be
// retained past that point.
func GetScratch() *[]byte { return scratch.Get().(*[]byte) }

// PutScratch returns a buffer borrowed from GetScratch to the pool.
func PutScratch(b *[]byte) {
	*b = (*b)[:0]
	scratch.Put(b)
}

// Size returns the on-air size of p in bytes, panicking on marshal failure
// (only possible for over-length variable fields, a programming error). It
// encodes into a pooled scratch buffer, so it does not allocate.
func Size(p Packet) int {
	bp := GetScratch()
	b, err := p.AppendBinary((*bp)[:0])
	if err != nil {
		panic(fmt.Sprintf("wire: Size(%v): %v", p.Kind(), err))
	}
	n := len(b)
	*bp = b[:0]
	PutScratch(bp)
	return n
}

// MarshalBinary implements Packet.
func (p *RREQ) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *RREP) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *RERR) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *Hello) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *Data) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *JoinReq) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *JoinRep) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *Leave) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *DetectReq) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *DetectResp) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *RevocationReq) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *RevocationNotice) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *BlacklistNotice) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *RenewalReq) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *RenewalResp) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// MarshalBinary implements Packet.
func (p *Secure) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }
