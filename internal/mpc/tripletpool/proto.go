package tripletpool

import (
	"encoding/binary"
	"fmt"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/tensor"
)

// Dealer wire protocol, v6: frames on one connection per server party, nothing
// between. The party's hello says who is asking (party and pair) and the
// dealer answers with KEY; from then on party 1 sends ASK frames one way, and
// the dealer sends FEED frames and ticks the other. An ASK names a shape and
// a run of seqs [from, from+count), and the dealer answers each on its own
// with one FEED per seq: it keeps no cursor, on a connection or between
// them. So a connection that fails is not resumed but replaced: the party
// dials again, says hello again and asks again for what it waits for.
//
// KEY is that party's 128-bit stream key K_i = SHA-256(base ‖ party)[:16].
// Triplet seq of shape (m,k,n) is from then on a pure, random-access function
// of the shape's key under K_i (streamKey) and seq (deriveHalf): party 0
// expands U₀ ‖ V₀ ‖ Z₀ and party 1 expands U₁ ‖ V₁ from its own key, and the
// dealer, who holds both keys, ships the one matrix neither can compute —
// Z₁ = (U₀+U₁)×(V₀+V₁) − Z₀ — in a FEED frame, to party 1 only, as party 1
// asks. Party 0 is sent its key and nothing else, and sends nothing. Length
// tells the dealer's frames apart: a tick is empty, a KEY is 16 bytes, a FEED
// is longer than its 20-byte header.
//
// The tick tells a party a dead dealer from an idle one: an empty frame every
// dealerTick, from a goroutine of its own (comm.Watch) so that generating a
// large shape never silences it; a party gives up a connection after
// silentTicks of silence. Only the dealer ticks, because only a party waits:
// a dead party is left to TCP keep-alive and the write bound on the dealer's
// own frames.
//
// Share separation is structural: each key travels only on its own party's
// connection, and it is one-way in the base, so holding K₀ says nothing about
// K₁. On a plaintext dealer link, whoever reads a connection's first frames
// holds that party's every half for as long as the dealer keeps its base —
// what v2's FEED frames gave, 12 KB at a time, to whoever kept reading — while
// one who starts reading later sees nothing of party 0's halves and only Z₁ of
// party 1's. A reader of BOTH dealer links reconstructs triplets under any
// version. No version encrypts the link; that belongs under comm.Conn,
// not in these frames (DESIGN.md "Derived triplet halves").
//
// Why party 1 takes the correction: party 0 leads (it draws, announces and
// leases triplets, mpc.feedLease), so the party that never waits on the
// dealer is the one whose wait would sit on every request's critical path;
// party 1 takes its half after its reply is out (feedLease.settle).

const (
	// dealerMagic tags dealer-protocol hello frames: "PSTD".
	dealerMagic = 0x50535444
	// dealerProtoVersion is bumped on incompatible frame changes; the
	// dealer rejects mismatches at hello time rather than mid-stream.
	// v2: ctl frames grew a kind tag and the RESUME frame. v3: KEY frames,
	// FEED frames carry Z₁ alone, party 0 has no ctl traffic. v4: the frames
	// travel on the connection itself, and the dealer ticks. v5: one request
	// frame, ASK, and no cursor on the dealer. v6: KEY frames carry a
	// 128-bit key, the AES-128 key the halves expand from. One version is
	// spoken; there is no negotiated fallback.
	dealerProtoVersion = 6
	// The dealer writes an empty frame every dealerTick. A party gives up a
	// connection silent for silentTicks of them (2 s), and allows a new one
	// helloTicks (10 s, the dealer's bound on the hello) from hello to KEY.
	dealerTick  = 500 * time.Millisecond
	silentTicks = 4
	helloTicks  = 20
)

// helloBytes is the dealer hello frame: magic, version, party, pair id.
const helloBytes = 4 + 4 + 4 + 8

func encodeDealerHello(party int, pairID uint64) []byte {
	buf := make([]byte, helloBytes)
	binary.LittleEndian.PutUint32(buf[0:4], dealerMagic)
	binary.LittleEndian.PutUint32(buf[4:8], dealerProtoVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(party))
	binary.LittleEndian.PutUint64(buf[12:20], pairID)
	return buf
}

func decodeDealerHello(f []byte) (party int, pairID uint64, err error) {
	if len(f) != helloBytes || binary.LittleEndian.Uint32(f[0:4]) != dealerMagic {
		return 0, 0, fmt.Errorf("tripletpool: bad dealer hello frame (%d bytes)", len(f))
	}
	if v := binary.LittleEndian.Uint32(f[4:8]); v != dealerProtoVersion {
		return 0, 0, fmt.Errorf("tripletpool: dealer protocol version %d, want %d", v, dealerProtoVersion)
	}
	party = int(binary.LittleEndian.Uint32(f[8:12]))
	if party != 0 && party != 1 {
		return 0, 0, fmt.Errorf("tripletpool: dealer hello claims party %d", party)
	}
	return party, binary.LittleEndian.Uint64(f[12:20]), nil
}

// askBytes is an ASK frame: shape dimensions, the first seq asked for, and
// how many seqs from it. The hello's version says what follows, so it has no
// kind byte.
const askBytes = 4*3 + 8 + 4

func encodeAsk(s shape, from uint64, count int) []byte {
	buf := make([]byte, askBytes)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(s.M))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(s.K))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(s.N))
	binary.LittleEndian.PutUint64(buf[12:20], from)
	binary.LittleEndian.PutUint32(buf[20:24], uint32(count))
	return buf
}

func decodeAsk(f []byte) (s shape, from uint64, count int, err error) {
	if len(f) != askBytes {
		return shape{}, 0, 0, fmt.Errorf("tripletpool: bad ASK frame (%d bytes)", len(f))
	}
	if s, err = decodeCtlShape(f[0:12]); err != nil {
		return shape{}, 0, 0, fmt.Errorf("tripletpool: ASK frame: %w", err)
	}
	from = binary.LittleEndian.Uint64(f[12:20])
	count = int(binary.LittleEndian.Uint32(f[20:24]))
	if count <= 0 || from+uint64(count) < from {
		return shape{}, 0, 0, fmt.Errorf("tripletpool: ASK frame with count %d from seq %d", count, from)
	}
	return s, from, count, nil
}

// decodeCtlShape validates the 12-byte shape block shared by ASK and FEED
// frames.
func decodeCtlShape(b []byte) (shape, error) {
	s := shape{
		M: int(binary.LittleEndian.Uint32(b[0:4])),
		K: int(binary.LittleEndian.Uint32(b[4:8])),
		N: int(binary.LittleEndian.Uint32(b[8:12])),
	}
	if s.M <= 0 || s.K <= 0 || s.N <= 0 {
		return shape{}, fmt.Errorf("degenerate shape %dx%dx%d", s.M, s.K, s.N)
	}
	// A request's A, B and this stream's Z₁ each travel in one frame; a shape
	// none could carry is nobody's request, and deriving it would be an
	// allocation the size of the sender's choosing.
	const maxElems = comm.MaxFrameBytes / 4
	if uint64(s.M)*uint64(s.K) > maxElems || uint64(s.K)*uint64(s.N) > maxElems || uint64(s.M)*uint64(s.N) > maxElems {
		return shape{}, fmt.Errorf("shape %dx%dx%d exceeds the frame limit", s.M, s.K, s.N)
	}
	return s, nil
}

// keyBytes is a KEY frame: the party's 128-bit stream key and nothing else.
const keyBytes = 16

func encodeKey(key [16]byte) []byte { return append([]byte(nil), key[:]...) }

func decodeKey(f []byte) ([16]byte, error) {
	if len(f) != keyBytes {
		return [16]byte{}, fmt.Errorf("tripletpool: bad KEY frame (%d bytes)", len(f))
	}
	return [16]byte(f), nil
}

// feedHeaderBytes prefixes a FEED frame: shape dimensions plus the
// triplet's stream sequence number, ahead of the encoded Z₁.
const feedHeaderBytes = 4*3 + 8

func appendFeedFrame(buf []byte, s shape, seq uint64, z1 *tensor.Matrix) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.M))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.K))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.N))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	return tensor.EncodeMatrix(buf, z1)
}

// decodeFeedFrame accepts exactly one m×n matrix behind the header: a frame
// that carries more — U or V again — or another geometry is refused. The
// matrix header is held to the shape header before anything is sized, and Z₁
// is decoded into a store mpc.Lender lends, which goes back with the half.
func decodeFeedFrame(f []byte) (shape, uint64, *tensor.Matrix, error) {
	if len(f) < feedHeaderBytes {
		return shape{}, 0, nil, fmt.Errorf("tripletpool: FEED frame of %d bytes has no header", len(f))
	}
	s, err := decodeCtlShape(f[0:12])
	if err != nil {
		return shape{}, 0, nil, fmt.Errorf("tripletpool: FEED frame: %w", err)
	}
	seq := binary.LittleEndian.Uint64(f[12:20])
	body := f[feedHeaderBytes:]
	if rows, cols, err := tensor.PeekShape(body); err != nil {
		return shape{}, 0, nil, fmt.Errorf("tripletpool: FEED frame matrix: %w", err)
	} else if rows != s.M || cols != s.N {
		return shape{}, 0, nil, fmt.Errorf("tripletpool: FEED frame carries %dx%d, not the Z of its %dx%dx%d header", rows, cols, s.M, s.K, s.N)
	}
	z1, n, err := tensor.DecodeMatrixPooled(mpc.Lender(), body)
	if err != nil {
		return shape{}, 0, nil, fmt.Errorf("tripletpool: FEED frame matrix: %w", err)
	}
	if n != len(body) {
		mpc.Lender().Put(z1)
		return shape{}, 0, nil, fmt.Errorf("tripletpool: FEED frame has %d trailing bytes", len(body)-n)
	}
	return s, seq, z1, nil
}
