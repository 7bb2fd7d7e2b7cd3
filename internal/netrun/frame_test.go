package netrun

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// goldenFrames pins the wire encoding of each frame kind byte-for-byte:
// a codec change that alters any of these is a protocol version bump, not
// a refactor.
var goldenFrames = []struct {
	name string
	f    Frame
	hex  string
}{
	{
		name: "hello",
		f:    Frame{Kind: KindHello, Hello: Hello{Node: 1, Nodes: 3, SpecHash: 0x0123456789abcdef}},
		hex:  "53504e5200020100000001000000030123456789abcdef",
	},
	{
		name: "round",
		f: Frame{Kind: KindRound, Round: RoundFrame{
			Round: 7, Node: 2, Words: 1, PrevFP: 0xdeadbeefcafef00d,
			Enabled: 3, Active: 1, Runs: []SelRun{{4, 1}, {9, 1}}, Data: []int64{5, -1},
		}},
		hex: "53504e520002020000000000000007000000020001deadbeefcafef00d" +
			"000000030000000100000002" + "0000000400000001" + "0000000900000001" +
			"0000000000000005ffffffffffffffff",
	},
	{
		name: "round-multirun",
		f: Frame{Kind: KindRound, Round: RoundFrame{
			Round: 256, Node: 1, Words: 2, PrevFP: 0x0102030405060708,
			Enabled: 5, Active: 2, Runs: []SelRun{{4, 3}, {10, 1}},
			Data: []int64{1, -2, 3, -4, 5, -6, 7, -8},
		}},
		hex: "53504e520002020000000000000100000000010002" + "0102030405060708" +
			"000000050000000200000002" + "0000000400000003" + "0000000a00000001" +
			"0000000000000001fffffffffffffffe0000000000000003fffffffffffffffc" +
			"0000000000000005fffffffffffffffa0000000000000007fffffffffffffff8",
	},
	{
		name: "round-empty",
		f: Frame{Kind: KindRound, Round: RoundFrame{
			Round: 1, Node: 0, Words: 2, PrevFP: 0x1122334455667788,
			Enabled: 0, Active: 0, Runs: []SelRun{}, Data: []int64{},
		}},
		hex: "53504e5200020200000000000000010000000000021122334455667788" +
			"000000000000000000000000",
	},
	{
		name: "bye",
		f:    Frame{Kind: KindBye, Bye: Bye{Node: 0, Round: 42}},
		hex:  "53504e52000203" + "00000000" + "000000000000002a",
	},
}

// v1RoundHex is the "round" golden frame as version 1 encoded it, one
// vertex id per activation. This build must refuse it by version.
const v1RoundHex = "53504e520001020000000000000007000000020001deadbeefcafef00d" +
	"00000003000000010000000200000004000000090000000000000005ffffffffffffffff"

func TestFrameGoldenVectors(t *testing.T) {
	t.Parallel()
	for _, g := range goldenFrames {
		enc, err := AppendFrame(nil, &g.f)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if got := hex.EncodeToString(enc); got != g.hex {
			t.Errorf("%s: encoding drifted\n got %s\nwant %s", g.name, got, g.hex)
		}
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		dec, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", g.name, err)
		}
		if dec.Kind != g.f.Kind || dec.Hello != g.f.Hello || dec.Bye != g.f.Bye {
			t.Errorf("%s: decoded %+v, want %+v", g.name, dec, g.f)
		}
		if g.f.Kind == KindRound {
			got, want := dec.Round, g.f.Round
			if got.Round != want.Round || got.Node != want.Node || got.Words != want.Words ||
				got.PrevFP != want.PrevFP || got.Enabled != want.Enabled || got.Active != want.Active ||
				!reflect.DeepEqual(got.Runs, want.Runs) || !reflect.DeepEqual(got.Data, want.Data) {
				t.Errorf("%s: decoded round %+v, want %+v", g.name, got, want)
			}
		}
	}
}

// TestFrameRoundTrip drives encode→decode→re-encode over representative
// frames: the re-encoding must reproduce the first byte stream exactly
// (the codec is canonical — one frame, one encoding).
func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	frames := []Frame{
		{Kind: KindHello, Hello: Hello{Node: 0, Nodes: 2, SpecHash: 0}},
		{Kind: KindRound, Round: RoundFrame{Round: 1, Node: 0, Words: 1, Runs: []SelRun{}, Data: []int64{}}},
		{Kind: KindRound, Round: RoundFrame{
			Round: 1 << 40, Node: 11, Words: 3, PrevFP: ^uint64(0), Enabled: 9, Active: 4,
			Runs: []SelRun{{0, 3}, {1000, 1}},
			Data: []int64{1, -2, 3, 4, -5, 6, 7, -8, 9, 10, -11, 12},
		}},
		{Kind: KindRound, Round: RoundFrame{
			Round: 2, Node: 1, Words: 1, Runs: []SelRun{{0xfffffffd, 2}}, Data: []int64{7, 8},
		}},
		{Kind: KindBye, Bye: Bye{Node: 7, Round: 9999}},
	}
	for i, f := range frames {
		enc, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		dec, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		re, err := AppendFrame(nil, dec)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		if !reflect.DeepEqual(enc, re) {
			t.Errorf("frame %d: round trip not canonical\n first %x\nsecond %x", i, enc, re)
		}
	}
}

// TestDecodeFrameRejects pins the decoder's strictness: every malformed
// shape fails with a diagnostic, never a panic and never a lenient parse.
func TestDecodeFrameRejects(t *testing.T) {
	t.Parallel()
	round, err := AppendFrame(nil, &goldenFrames[1].f)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := hex.DecodeString(v1RoundHex)
	if err != nil {
		t.Fatal(err)
	}
	// The golden round's body: 34 fixed bytes, run 0 = (4, 1) at 34,
	// run 1 = (9, 1) at 42, then two data words.
	const run0, run1 = headerLen + roundFixed, headerLen + roundFixed + 8
	patch := func(off int, b ...byte) []byte {
		p := append([]byte(nil), round...)
		copy(p[off:], b)
		return p
	}
	cases := []struct {
		name string
		p    []byte
		want string
	}{
		{"empty", nil, "shorter than"},
		{"short-header", round[:5], "shorter than"},
		{"bad-magic", patch(0, 0xff), "bad frame magic"},
		{"bad-version", patch(5, 9), "version"},
		{"v1-round", v1, "frame version 1, this build speaks 2"},
		{"unknown-kind", patch(6, 9), "unknown frame kind"},
		{"hello-short", append([]byte{0x53, 0x50, 0x4e, 0x52, 0, 2, 1}, 1, 2, 3), "hello body"},
		{"round-short-fixed", round[:headerLen+roundFixed-1], "fixed part"},
		{"round-truncated", round[:len(round)-1], "round body"},
		{"round-trailing", append(append([]byte(nil), round...), 0), "round body"},
		{"round-zero-words", patch(headerLen+13, 0), "words 0"},
		{"bye-short", []byte{0x53, 0x50, 0x4e, 0x52, 0, 2, 3, 0}, "bye body"},
		{"round-oversize", func() []byte {
			// One run of 2^24 vertices of 64 words: no length prefix could
			// carry that, so the size bound must fire before allocation.
			p := append([]byte(nil), round[:run1]...)
			p[headerLen+12], p[headerLen+13] = 0, 64
			copy(p[headerLen+30:], []byte{0, 0, 0, 1})
			copy(p[run0:], []byte{0, 0, 0, 0, 0x01, 0, 0, 0})
			return p
		}(), "MaxFrame"},
		{"run-count-overrun", patch(headerLen+30, 0x10, 0, 0, 0), "overrun"},
		{"run-count-max", patch(headerLen+30, 0xff, 0xff, 0xff, 0xff), "overrun"},
		{"run-zero-length", patch(run0+4, 0, 0, 0, 0), "run 0 is empty"},
		{"runs-adjacent", patch(run1, 0, 0, 0, 5), "run 1 is adjacent to run 0"},
		{"runs-overlapping", patch(run0+4, 0, 0, 0, 6), "run 1 overlaps"},
		{"runs-descending", patch(run0, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 4), "run 1 overlaps or precedes"},
		{"run-wraps", patch(run1, 0xff, 0xff, 0xff, 0xf0, 0, 0, 0, 0x20), "wraps uint32"},
		{"run-end-overflows", patch(run1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1), "wraps uint32"},
	}
	for _, tc := range cases {
		f, err := DecodeFrame(tc.p)
		if err == nil {
			t.Errorf("%s: decoded %+v, want an error", tc.name, f)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestAppendFrameRejects pins the encoder's half of the contract: it
// refuses frames whose encoding the decoder would reject. (A run count
// that overruns the body has no encoder counterpart — the encoder writes
// len(Runs) — beyond data that does not match the runs.)
func TestAppendFrameRejects(t *testing.T) {
	t.Parallel()
	round := func(runs ...SelRun) Frame {
		moved := 0
		for _, r := range runs {
			moved += int(r.N)
		}
		return Frame{Kind: KindRound, Round: RoundFrame{Words: 1, Runs: runs, Data: make([]int64, moved)}}
	}
	cases := []struct {
		name string
		f    Frame
		want string
	}{
		{"zero-words", Frame{Kind: KindRound, Round: RoundFrame{Words: 0}}, "words 0"},
		{"data-mismatch", Frame{Kind: KindRound, Round: RoundFrame{Words: 2, Runs: []SelRun{{1, 1}}, Data: []int64{1}}}, "moved vertices"},
		{"zero-length-run", round(SelRun{3, 0}), "run 0 is empty"},
		{"adjacent-runs", round(SelRun{1, 2}, SelRun{3, 1}), "run 1 is adjacent to run 0"},
		{"overlapping-runs", round(SelRun{1, 3}, SelRun{2, 1}), "run 1 overlaps"},
		{"descending-runs", round(SelRun{5, 1}, SelRun{5, 1}), "run 1 overlaps or precedes"},
		{"wrapping-run", round(SelRun{0xfffffff0, 0x20}), "wraps uint32"},
		{"unknown-kind", Frame{Kind: 77}, "kind"},
	}
	for _, tc := range cases {
		if _, err := AppendFrame(nil, &tc.f); err == nil {
			t.Errorf("%s: encoded, want an error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
