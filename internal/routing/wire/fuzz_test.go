package wire

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzFrame is the single fuzz entry point for the whole wire surface:
// it feeds an arbitrary frame through SplitEnvelope and then through
// every decoder the protocol stack would apply to that frame kind,
// checking that no decoder panics and that every accepted message
// re-marshals to the bytes it was decoded from (decoders ignore
// trailing bytes, so the comparison is prefix-wise).
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	for _, frame := range seedFrames() {
		f.Add(frame)
		// A real socket delivers truncated datagrams; seed every
		// strict prefix of every frame kind so the decoders' bounds
		// checks are exercised from the first corpus run.
		for cut := len(frame) - 1; cut >= 0; cut-- {
			f.Add(frame[:cut])
		}
	}
	// LSA bodies carrying bytes past their neighbor list: a receiver
	// that re-floods what it heard must cut them off.
	for _, e := range []LSA{
		{Origin: 5, Seq: 9, Neighbors: []Adjacency{{1, 0}, {2, 1}}},
		{Origin: 7, Seq: 1},
	} {
		f.Add(Envelope(ProtoControl, append(MarshalLSA(e), 0xde, 0xad, MsgLSA)))
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		proto, body, err := SplitEnvelope(frame)
		if err != nil {
			if len(frame) != 0 {
				t.Fatalf("SplitEnvelope rejected %d bytes", len(frame))
			}
			return
		}
		switch proto {
		case ProtoData:
			h, data, err := UnmarshalData(body)
			if err != nil {
				return
			}
			if out := MarshalData(h, data); !bytes.Equal(out, body) {
				t.Fatalf("data round trip: %x -> %x", body, out)
			}
		case ProtoFailover:
			h, data, err := UnmarshalFailover(body)
			if err != nil {
				return
			}
			if out := MarshalFailover(h, data); !bytes.Equal(out, body) {
				t.Fatalf("failover round trip: %x -> %x", body, out)
			}
		case ProtoAdvert:
			a, err := UnmarshalAdvert(body)
			if err != nil {
				return
			}
			out, err := MarshalAdvert(a)
			if err != nil {
				t.Fatalf("re-marshal of accepted advert failed: %v", err)
			}
			if len(out) > len(body) || !bytes.Equal(out, body[:len(out)]) {
				t.Fatalf("advert round trip: %x -> %x", body, out)
			}
		case ProtoControl:
			if len(body) == 0 {
				return
			}
			switch body[0] {
			case MsgRouteQuery:
				q, err := UnmarshalQuery(body)
				if err != nil {
					return
				}
				out := MarshalQuery(q)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("query round trip: %x -> %x", body, out)
				}
			case MsgRouteOffer:
				o, err := UnmarshalOffer(body)
				if err != nil {
					return
				}
				out := MarshalOffer(o)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("offer round trip: %x -> %x", body, out)
				}
			case MsgHello, MsgGoodbye, MsgLSHello:
				// Membership and adjacency heartbeats are bare type
				// bytes: nothing further to decode.
			case MsgRejoin:
				inc, err := UnmarshalRejoin(body)
				if err != nil {
					return
				}
				out := MarshalRejoin(inc)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("rejoin round trip: %x -> %x", body, out)
				}
			case MsgHelloInc:
				inc, err := UnmarshalHelloInc(body)
				if err != nil {
					return
				}
				out := MarshalHelloInc(inc)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("hello-inc round trip: %x -> %x", body, out)
				}
			case MsgOfferInc:
				o, inc, err := UnmarshalOfferInc(body)
				if err != nil {
					return
				}
				out := MarshalOfferInc(o, inc)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("offer-inc round trip: %x -> %x", body, out)
				}
			case MsgLSA:
				e, err := UnmarshalLSA(body)
				origin, seq, n, perr := PeekLSA(body)
				if (err == nil) != (perr == nil) {
					t.Fatalf("PeekLSA err %v, UnmarshalLSA err %v on %x", perr, err, body)
				}
				if err != nil {
					return
				}
				if origin != e.Origin || seq != e.Seq {
					t.Fatalf("PeekLSA (%d, %d), UnmarshalLSA (%d, %d) on %x", origin, seq, e.Origin, e.Seq, body)
				}
				out := MarshalLSA(e)
				if n != len(out) {
					t.Fatalf("PeekLSA length %d, re-marshal is %d bytes: %x", n, len(out), body)
				}
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("LSA round trip: %x -> %x", body, out)
				}
				// A reused buffer that is dirty and larger than the
				// list must decode exactly as a fresh one.
				dirty := make([]Adjacency, len(e.Neighbors)+3, len(e.Neighbors)+8)
				for i := range dirty {
					dirty[i] = Adjacency{Node: 0xffff, Rail: uint16(i)}
				}
				r, err := UnmarshalLSAInto(body, dirty)
				if err != nil || r.Origin != e.Origin || r.Seq != e.Seq || !slices.Equal(r.Neighbors, e.Neighbors) {
					t.Fatalf("decode into reused buffer: %+v, %v; fresh %+v", r, err, e)
				}
			}
		}
	})
}
