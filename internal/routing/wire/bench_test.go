package wire

import "testing"

// benchLSA is a 24-node dual-rail router's advertisement: every other
// node on both rails, the size the link-state flood carries.
func benchLSA() []byte {
	e := LSA{Origin: 3, Seq: 41}
	for node := uint16(0); node < 24; node++ {
		if node != e.Origin {
			e.Neighbors = append(e.Neighbors, Adjacency{Node: node, Rail: 0}, Adjacency{Node: node, Rail: 1})
		}
	}
	return MarshalLSA(e)
}

// BenchmarkPeekLSA is the duplicate-drop cost: validation plus origin
// and sequence number, no neighbor decode.
func BenchmarkPeekLSA(b *testing.B) {
	body := benchLSA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := PeekLSA(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshalLSA is a fresh full decode into a new slice.
func BenchmarkUnmarshalLSA(b *testing.B) {
	body := benchLSA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalLSA(body); err != nil {
			b.Fatal(err)
		}
	}
}
