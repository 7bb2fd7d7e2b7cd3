package netrun

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzFrameDecode holds the decoder to its contract: no input panics, and
// every input it accepts is the canonical encoding of the frame it
// returns (re-encoding reproduces the bytes exactly). That second half is
// what lets the transport treat DecodeFrame(AppendFrame(f)) as identity
// without trusting the peer.
func FuzzFrameDecode(f *testing.F) {
	for _, g := range goldenFrames {
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		// Truncations and single-byte corruptions of valid frames are the
		// interesting seed neighborhood.
		f.Add(raw[:len(raw)/2])
		if len(raw) > 8 {
			flip := append([]byte(nil), raw...)
			flip[8] ^= 0x80
			f.Add(flip)
		}
	}
	// The version-1 round frame, and version-2 frames whose runs break
	// exactly one rule each (zero length, touching, overlapping, wrapping,
	// count overrunning the body) around otherwise valid bytes: accepting
	// any of them would be a non-canonical decode.
	v1, err := hex.DecodeString(v1RoundHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	round, err := AppendFrame(nil, &goldenFrames[1].f)
	if err != nil {
		f.Fatal(err)
	}
	const run0, run1 = headerLen + roundFixed, headerLen + roundFixed + 8
	for _, c := range []struct {
		off int
		b   []byte
	}{
		{run0 + 4, []byte{0, 0, 0, 0}},
		{run1, []byte{0, 0, 0, 5}},
		{run0 + 4, []byte{0, 0, 0, 6}},
		{run1, []byte{0xff, 0xff, 0xff, 0xff}},
		{headerLen + 30, []byte{0, 0, 0, 3}},
	} {
		p := append([]byte(nil), round...)
		copy(p[c.off:], c.b)
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x50, 0x4e, 0x52, 0, 2, 2})
	f.Fuzz(func(t *testing.T, p []byte) {
		dec, err := DecodeFrame(p)
		if err != nil {
			return
		}
		re, err := AppendFrame(nil, dec)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", dec, err)
		}
		if !bytes.Equal(p, re) {
			t.Fatalf("accepted a non-canonical encoding\n   in %x\nreenc %x", p, re)
		}
	})
}
