package tripletpool

import (
	"bytes"
	"testing"
)

// FuzzDealerProto throws arbitrary bytes at every dealer-protocol frame
// decoder — hello, KEY, WANT, RESUME, FEED. The decoders guard the dealer
// and the replicas against each other: a malformed or hostile frame
// must come back as an error, never a panic, and whatever a decoder
// does accept must re-encode to the same bytes (every frame but FEED is
// fixed-layout) or survive a second decode unchanged (FEED frames). The
// corpus under testdata holds the cases by name: a v2 and a v3 hello and v2's
// three-matrix FEED frames (refused — one version is spoken), a Z that is not
// m×n, a shape past the frame limit, a RESUME whose cursor + count wraps, and
// the tick — the empty frame, which no decoder may take for one of its own.
func FuzzDealerProto(f *testing.F) {
	_, p1 := NewStreamSource(7).Gen(2, 3, 2)
	f.Add(encodeDealerHello(1, 42))
	f.Add(encodeWant(shape{M: 5, K: 6, N: 4}, 8))
	f.Add(encodeResume(shape{M: 5, K: 6, N: 4}, 97, 3))
	f.Add(appendFeedFrame(nil, shape{M: 2, K: 3, N: 2}, 11, p1.Z))
	f.Add(encodeKey(0xfeedfacecafef00d))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			_, _, hello := decodeDealerHello(data)
			_, key := decodeKey(data)
			_, _, want := decodeWant(data)
			_, _, _, resume := decodeResume(data)
			_, _, _, feed := decodeFeedFrame(data)
			if hello == nil || key == nil || want == nil || resume == nil || feed == nil {
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
		if s, count, err := decodeWant(data); err == nil {
			if s.M <= 0 || s.K <= 0 || s.N <= 0 || count <= 0 {
				t.Fatalf("WANT decoded degenerate %dx%dx%d count %d", s.M, s.K, s.N, count)
			}
			if !bytes.Equal(encodeWant(s, count), data) {
				t.Fatal("WANT did not re-encode to its own bytes")
			}
		}
		if s, from, count, err := decodeResume(data); err == nil {
			if s.M <= 0 || s.K <= 0 || s.N <= 0 || count < 0 || from+uint64(count) < from {
				t.Fatalf("RESUME decoded degenerate %dx%dx%d count %d from %d", s.M, s.K, s.N, count, from)
			}
			if !bytes.Equal(encodeResume(s, from, count), data) {
				t.Fatal("RESUME did not re-encode to its own bytes")
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
