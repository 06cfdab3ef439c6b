package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// FuzzMuxFrameHeader feeds arbitrary bytes through the mux header parser
// and then through a live demux as a raw wire frame. Invariants: the
// parser never panics, a parsed frame's routing id is exactly what its
// own header bytes say (no cross-routing), and a session only ever
// receives payloads addressed to its id — corrupt input may kill the
// session or the mux, but never misdeliver.
func FuzzMuxFrameHeader(f *testing.F) {
	const sessID = 42
	mk := func(id uint64, kind byte, payload string) []byte {
		b := binary.LittleEndian.AppendUint64(nil, id)
		b = append(b, kind)
		return append(b, payload...)
	}
	f.Add(mk(sessID, muxKindData, "hello"))  // valid frame for the open session
	f.Add(mk(sessID, muxKindClose, ""))      // close for the open session
	f.Add(mk(7, muxKindData, "unclaimed"))   // frame for a session never opened
	f.Add(mk(7, muxKindClose, ""))           // close for a session never opened
	f.Add(mk(sessID, 0xFF, "bogus kind"))    // unknown kind byte
	f.Add([]byte{})                          // empty frame
	f.Add([]byte{0x2A, 0, 0, 0, 0, 0, 0, 0}) // one byte short of a header
	f.Add(bytes.Repeat([]byte{0xA5}, 100))   // garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		id, kind, payload, err := parseMuxFrame(data)
		if err != nil {
			if len(data) >= MuxHeaderBytes {
				t.Fatalf("parse rejected a %d-byte frame: %v", len(data), err)
			}
		} else {
			if len(data) < MuxHeaderBytes {
				t.Fatalf("parse accepted a %d-byte frame", len(data))
			}
			if id != binary.LittleEndian.Uint64(data) || kind != data[8] {
				t.Fatalf("parse mangled the header: id=%d kind=%d", id, kind)
			}
			if !bytes.Equal(payload, data[MuxHeaderBytes:]) {
				t.Fatal("parse mangled the payload")
			}
		}

		// Live routing: a raw peer writes the fuzz frame, then — unless the
		// frame has no header and so has killed the mux, leaving nobody to
		// read — a valid sentinel for the one open session.
		raw, muxSide := Pipe()
		m := NewMux(muxSide, MuxConfig{ReadTimeout: 2 * time.Second})
		defer m.Close()
		defer raw.Close()
		s, oerr := m.Open(sessID)
		if oerr != nil {
			t.Fatalf("Open: %v", oerr)
		}
		sentinel := mk(sessID, muxKindData, "sentinel")
		raw.SetTimeouts(0, time.Second)
		werr := raw.WriteFrame(data)
		headerless := len(data) < MuxHeaderBytes
		if werr == nil && !headerless {
			_ = raw.WriteFrame(sentinel)
		}
		got, rerr := s.ReadFrame()
		if werr == nil && headerless {
			if !errors.Is(rerr, ErrMuxHeader) {
				t.Fatalf("session read after a %d-byte frame: %v, want ErrMuxHeader", len(data), rerr)
			}
			return
		}
		if rerr != nil {
			// Acceptable only as a consequence the fuzz frame can cause: a
			// CLOSE for our id kills the session, and an unroutable write can
			// die with the pipe.
			closed := err == nil && id == sessID && kind != muxKindData
			if !closed && !errors.Is(rerr, ErrMuxClosed) && !isTimeout(rerr) {
				t.Fatalf("session read failed unexpectedly: %v", rerr)
			}
			return
		}
		// Whatever arrived must have been addressed to our session: either
		// the sentinel, or the fuzz frame itself carrying our id.
		if !bytes.Equal(got, []byte("sentinel")) {
			if err != nil || id != sessID || kind != muxKindData || !bytes.Equal(got, payload) {
				t.Fatalf("session %d received a misrouted payload: %q", sessID, got)
			}
		}
	})
}
