package tripletpool

import (
	"bytes"
	"testing"
)

// FuzzDealerProto throws arbitrary bytes at every dealer-protocol frame
// decoder — hello, KEY, ASK, FEED. The decoders guard the dealer
// and the replicas against each other: a malformed or hostile frame
// must come back as an error, never a panic, and whatever a decoder
// does accept must re-encode to the same bytes (every frame but FEED is
// fixed-layout) or survive a second decode unchanged (FEED frames). The
// corpus under testdata holds the cases by name: a v2, a v3, a v4 and a v5
// hello, v2's three-matrix FEED frames and v5's 8-byte KEY (refused — one
// version is spoken), v6's 16-byte KEY, a Z that is
// not m×n, a matrix header that claims more than the shape header (refused
// before anything is sized), a shape past the frame limit, ASKs for no seq, for a zero k, past
// the frame limit and whose from + count wraps, and the tick — the empty
// frame, which no decoder may take for one of its own.
func FuzzDealerProto(f *testing.F) {
	_, p1 := NewStreamSource(7).Gen(2, 3, 2)
	f.Add(encodeDealerHello(1, 42))
	f.Add(encodeAsk(shape{M: 5, K: 6, N: 4}, 97, 3))
	f.Add(encodeAsk(shape{M: 5, K: 6, N: 4}, 1<<63, 2))
	f.Add(appendFeedFrame(nil, shape{M: 2, K: 3, N: 2}, 11, p1.Z))
	f.Add(encodeKey([16]byte{0xfe, 0xed, 0xfa, 0xce, 0xca, 0xfe, 0xf0, 0x0d, 15: 0x80}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			_, _, hello := decodeDealerHello(data)
			_, key := decodeKey(data)
			_, _, _, ask := decodeAsk(data)
			_, _, _, feed := decodeFeedFrame(data)
			if hello == nil || key == nil || ask == nil || feed == nil {
				t.Fatal("a decoder accepted the empty frame, which is the tick")
			}
		}
		if party, pairID, err := decodeDealerHello(data); err == nil {
			if party != 0 && party != 1 {
				t.Fatalf("hello decoded party %d", party)
			}
			if !bytes.Equal(encodeDealerHello(party, pairID), data) {
				t.Fatal("hello did not re-encode to its own bytes")
			}
		}
		if key, err := decodeKey(data); err == nil && !bytes.Equal(encodeKey(key), data) {
			t.Fatal("KEY did not re-encode to its own bytes")
		}
		if s, from, count, err := decodeAsk(data); err == nil {
			if s.M <= 0 || s.K <= 0 || s.N <= 0 || count <= 0 || from+uint64(count) < from {
				t.Fatalf("ASK decoded degenerate %dx%dx%d count %d from %d", s.M, s.K, s.N, count, from)
			}
			if !bytes.Equal(encodeAsk(s, from, count), data) {
				t.Fatal("ASK did not re-encode to its own bytes")
			}
		}
		if s, seq, z1, err := decodeFeedFrame(data); err == nil {
			if z1.Rows != s.M || z1.Cols != s.N || s.K <= 0 {
				t.Fatalf("FEED accepted a %dx%d matrix under its %dx%dx%d header", z1.Rows, z1.Cols, s.M, s.K, s.N)
			}
			if _, err := decodeKey(data); err == nil {
				t.Fatal("one frame decodes as both FEED and KEY")
			}
			s2, seq2, z2, err := decodeFeedFrame(appendFeedFrame(nil, s, seq, z1))
			if err != nil {
				t.Fatalf("re-encoded FEED frame rejected: %v", err)
			}
			if s2 != s || seq2 != seq || !z2.ApproxEqual(z1, 0) {
				t.Fatal("FEED frame did not survive a decode/encode/decode cycle")
			}
		}
	})
}
