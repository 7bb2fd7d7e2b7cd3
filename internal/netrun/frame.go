package netrun

// The shard-frame wire codec. One frame is the complete per-round
// contribution of one node: which shard vertices it activated and their
// next packed words, plus the pre-round configuration fingerprint that
// lets every receiver detect replica divergence before committing. The
// encoding is a fixed big-endian layout behind a length prefix — no
// reflection, no varints — because the decoder doubles as a fuzz target:
// DecodeFrame must reject every malformed input with an error, never a
// panic, and accept only encodings AppendFrame can produce (exact-length,
// no trailing bytes).
//
// Layout (all big-endian, after the transport's 4-byte length prefix):
//
//	magic   u32  0x53504E52 ("SPNR")
//	version u16  2
//	kind    u8   1=hello 2=round 3=bye
//	body         per kind:
//	  hello: node u32 | nodes u32 | specHash u64
//	  round: round u64 | node u32 | words u16 | prevFP u64 |
//	         enabled u32 | active u32 | runCount u32 |
//	         runCount × (start u32, n u32) | Σn·words × (state u64)
//	  bye:   node u32 | round u64
//
// A round frame's runs are ascending and maximal: every n is at least 1,
// start+n fits in a u32, and a run starts at least one vertex past the
// previous run's end — runs that touch or overlap are rejected, so one
// selection has exactly one encoding. Under the synchronous
// daemon a node's whole shard is one run.
//
// Version bumps are breaking by design: a frame of a different version is
// rejected, not best-effort parsed — mixed-version rings would diverge.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire constants. MaxFrame bounds the decoded payload so a corrupt
// length prefix cannot make a receiver allocate gigabytes: 1<<26 bytes
// holds the words of a full-shard selection of ~8M single-word vertices.
const (
	frameMagic   uint32 = 0x53504E52 // "SPNR"
	frameVersion uint16 = 2
	// MaxFrame is the largest payload either side of the transport will
	// encode or accept.
	MaxFrame = 1 << 26
	// maxWords bounds the per-vertex word count a frame may claim; the
	// widest real protocol (a product of products) is far below it.
	maxWords = 1 << 10
)

// Kind discriminates frame payloads.
type Kind uint8

// Frame kinds: the handshake, the per-round shard contribution, and the
// clean-shutdown notice.
const (
	KindHello Kind = 1
	KindRound Kind = 2
	KindBye   Kind = 3
)

// String renders the kind for errors and logs.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindRound:
		return "round"
	case KindBye:
		return "bye"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Hello is the handshake frame: each side announces who it is and the
// hash of the Spec it was started from. A mismatched hash means the two
// processes would run different executions; the connection is refused.
type Hello struct {
	Node     uint32
	Nodes    uint32
	SpecHash uint64
}

// RoundFrame is one node's complete contribution to one BSP round.
type RoundFrame struct {
	// Round numbers the superstep, starting at 1; the barrier matches on
	// it exactly.
	Round uint64
	// Node is the sender's id.
	Node uint32
	// Words is the sender's per-vertex word count — a cheap codec
	// agreement check on every frame.
	Words uint16
	// PrevFP is the sender's configuration fingerprint *before* this
	// round: all participants must agree or the replicas have diverged.
	PrevFP uint64
	// Enabled counts the sender's shard vertices with an enabled guard
	// this round (the ring is terminal when the sum over nodes is zero).
	Enabled uint32
	// Active counts the sender's outstanding grants, giving receivers a
	// one-round-lagged view of global occupancy for capacity decisions.
	Active uint32
	// Runs lists the activated shard vertices as ascending, maximal runs
	// of consecutive ids.
	Runs []SelRun
	// Data holds the next packed words of each activated vertex, in
	// ascending vertex order: the k-th activated vertex's words at
	// Data[k*Words : (k+1)*Words].
	Data []int64
}

// SelRun is the stretch of activated vertices Start, Start+1, …,
// Start+N-1.
type SelRun struct {
	Start, N uint32
}

// appendRun appends r to runs, extending the last run instead when r
// starts right where it ends — the merge that keeps a schedule built
// from ascending pieces (single vertices, or runs of adjacent shards)
// maximal.
func appendRun(runs []SelRun, r SelRun) []SelRun {
	if k := len(runs) - 1; k >= 0 && runs[k].Start+runs[k].N == r.Start {
		runs[k].N += r.N
		return runs
	}
	return append(runs, r)
}

// checkRun validates run i of a round frame given the end (start+n) of
// run i-1, or -1 for the first run: the encoder and the decoder hold
// every run to the same rules, which is what makes the codec canonical.
func checkRun(i int, r SelRun, prevEnd int64) error {
	switch start := int64(r.Start); {
	case r.N == 0:
		return fmt.Errorf("netrun: selection run %d is empty", i)
	case start+int64(r.N) > math.MaxUint32:
		return fmt.Errorf("netrun: selection run %d (start %d, n %d) wraps uint32", i, r.Start, r.N)
	case start < prevEnd:
		return fmt.Errorf("netrun: selection run %d overlaps or precedes run %d", i, i-1)
	case start == prevEnd:
		return fmt.Errorf("netrun: selection run %d is adjacent to run %d — runs must be maximal", i, i-1)
	}
	return nil
}

// Bye announces a clean shutdown after the sender's Round: the receiver
// stops its round loop instead of treating the closed connection as a
// fault.
type Bye struct {
	Node  uint32
	Round uint64
}

// Frame is the decoded union of the three payload kinds.
type Frame struct {
	Kind  Kind
	Hello Hello
	Round RoundFrame
	Bye   Bye
}

// headerLen is magic + version + kind; roundFixed is a round body's
// fixed part, up to and including runCount.
const (
	headerLen  = 4 + 2 + 1
	roundFixed = 8 + 4 + 2 + 8 + 4 + 4 + 4
)

// AppendFrame appends f's wire encoding (without the transport length
// prefix) to dst and returns the extended slice. It validates the
// invariants DecodeFrame enforces, so an encode/decode round trip is
// identity on every frame it accepts.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, frameMagic)
	dst = binary.BigEndian.AppendUint16(dst, frameVersion)
	dst = append(dst, byte(f.Kind))
	switch f.Kind {
	case KindHello:
		dst = binary.BigEndian.AppendUint32(dst, f.Hello.Node)
		dst = binary.BigEndian.AppendUint32(dst, f.Hello.Nodes)
		dst = binary.BigEndian.AppendUint64(dst, f.Hello.SpecHash)
	case KindRound:
		r := &f.Round
		if r.Words == 0 || r.Words > maxWords {
			return nil, fmt.Errorf("netrun: frame words %d outside [1, %d]", r.Words, maxWords)
		}
		moved, prevEnd := 0, int64(-1)
		for i, run := range r.Runs {
			if err := checkRun(i, run, prevEnd); err != nil {
				return nil, err
			}
			prevEnd = int64(run.Start) + int64(run.N)
			moved += int(run.N)
		}
		if len(r.Data) != moved*int(r.Words) {
			return nil, fmt.Errorf("netrun: frame data %d words ≠ %d moved vertices × %d words",
				len(r.Data), moved, r.Words)
		}
		if size := headerLen + roundFixed + len(r.Runs)*8 + len(r.Data)*8; size > MaxFrame {
			return nil, fmt.Errorf("netrun: frame %d bytes exceeds MaxFrame %d", size, MaxFrame)
		}
		dst = binary.BigEndian.AppendUint64(dst, r.Round)
		dst = binary.BigEndian.AppendUint32(dst, r.Node)
		dst = binary.BigEndian.AppendUint16(dst, r.Words)
		dst = binary.BigEndian.AppendUint64(dst, r.PrevFP)
		dst = binary.BigEndian.AppendUint32(dst, r.Enabled)
		dst = binary.BigEndian.AppendUint32(dst, r.Active)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Runs)))
		for _, run := range r.Runs {
			dst = binary.BigEndian.AppendUint32(dst, run.Start)
			dst = binary.BigEndian.AppendUint32(dst, run.N)
		}
		for _, w := range r.Data {
			dst = binary.BigEndian.AppendUint64(dst, uint64(w))
		}
	case KindBye:
		dst = binary.BigEndian.AppendUint32(dst, f.Bye.Node)
		dst = binary.BigEndian.AppendUint64(dst, f.Bye.Round)
	default:
		return nil, fmt.Errorf("netrun: cannot encode frame kind %s", f.Kind)
	}
	return dst, nil
}

// DecodeFrame parses one payload (without the transport length prefix).
// It is strict: wrong magic, wrong version, unknown kind, short bodies,
// oversized counts, runs that are empty, wrap, touch or overlap, and
// trailing bytes are all errors. It never panics on
// any input — FuzzFrameDecode holds it to that.
func DecodeFrame(p []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeFrameInto(f, p); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeFrameInto parses one payload with DecodeFrame's exact semantics
// and strictness, but decodes into f, reusing the capacity of
// f.Round.Runs and f.Round.Data instead of allocating when they already
// fit — the receive pumps decode every round into per-peer scratch
// frames, so the steady-state decode path never touches the heap. Only
// the decoded kind's fields are written; fields of other kinds keep
// their previous contents. On error f is left partially written.
func DecodeFrameInto(f *Frame, p []byte) error {
	if len(p) < headerLen {
		return fmt.Errorf("netrun: frame %d bytes shorter than the %d-byte header", len(p), headerLen)
	}
	if m := binary.BigEndian.Uint32(p); m != frameMagic {
		return fmt.Errorf("netrun: bad frame magic %#08x", m)
	}
	if v := binary.BigEndian.Uint16(p[4:]); v != frameVersion {
		return fmt.Errorf("netrun: frame version %d, this build speaks %d", v, frameVersion)
	}
	f.Kind = Kind(p[6])
	body := p[headerLen:]
	switch f.Kind {
	case KindHello:
		if len(body) != 16 {
			return fmt.Errorf("netrun: hello body %d bytes, want 16", len(body))
		}
		f.Hello.Node = binary.BigEndian.Uint32(body)
		f.Hello.Nodes = binary.BigEndian.Uint32(body[4:])
		f.Hello.SpecHash = binary.BigEndian.Uint64(body[8:])
	case KindRound:
		if len(body) < roundFixed {
			return fmt.Errorf("netrun: round body %d bytes shorter than the %d-byte fixed part", len(body), roundFixed)
		}
		r := &f.Round
		r.Round = binary.BigEndian.Uint64(body)
		r.Node = binary.BigEndian.Uint32(body[8:])
		r.Words = binary.BigEndian.Uint16(body[12:])
		r.PrevFP = binary.BigEndian.Uint64(body[14:])
		r.Enabled = binary.BigEndian.Uint32(body[22:])
		r.Active = binary.BigEndian.Uint32(body[26:])
		count := int64(binary.BigEndian.Uint32(body[30:]))
		if r.Words == 0 || r.Words > maxWords {
			return fmt.Errorf("netrun: frame words %d outside [1, %d]", r.Words, maxWords)
		}
		// Validate the runs in place and derive the exact length before
		// any allocation: counts are attacker-controlled, the length
		// prefix is the truth.
		runsEnd := roundFixed + count*8
		if runsEnd > int64(len(body)) {
			return fmt.Errorf("netrun: %d selection runs overrun the %d-byte round body", count, len(body))
		}
		moved, prevEnd := int64(0), int64(-1)
		for i := range int(count) {
			run := runAt(body, i)
			if err := checkRun(i, run, prevEnd); err != nil {
				return err
			}
			prevEnd = int64(run.Start) + int64(run.N)
			if moved += int64(run.N); moved > MaxFrame {
				return fmt.Errorf("netrun: round frame moves %d+ vertices, above MaxFrame %d", moved, MaxFrame)
			}
		}
		want := runsEnd + moved*int64(r.Words)*8
		if headerLen+want > MaxFrame {
			return fmt.Errorf("netrun: round frame claims %d bytes, above MaxFrame %d", headerLen+want, MaxFrame)
		}
		if int64(len(body)) != want {
			return fmt.Errorf("netrun: round body %d bytes, %d runs of %d vertices × %d words needs %d",
				len(body), count, moved, r.Words, want)
		}
		// Capacity reuse: reslice scratch when it fits, allocate when it
		// does not (or on the first decode — a fresh make keeps the
		// non-nil empty-slice shape DecodeFrame has always produced for
		// frames that move nothing).
		if r.Runs == nil || int64(cap(r.Runs)) < count {
			r.Runs = make([]SelRun, count)
		} else {
			r.Runs = r.Runs[:count]
		}
		for i := range r.Runs {
			r.Runs[i] = runAt(body, i)
		}
		n := int(moved) * int(r.Words)
		if r.Data == nil || cap(r.Data) < n {
			r.Data = make([]int64, n)
		} else {
			r.Data = r.Data[:n]
		}
		off := int(runsEnd)
		for i := range r.Data {
			r.Data[i] = int64(binary.BigEndian.Uint64(body[off:]))
			off += 8
		}
	case KindBye:
		if len(body) != 12 {
			return fmt.Errorf("netrun: bye body %d bytes, want 12", len(body))
		}
		f.Bye.Node = binary.BigEndian.Uint32(body)
		f.Bye.Round = binary.BigEndian.Uint64(body[4:])
	default:
		return fmt.Errorf("netrun: unknown frame kind %d", uint8(f.Kind))
	}
	return nil
}

// runAt reads run i of a round body whose length covers it.
func runAt(body []byte, i int) SelRun {
	off := roundFixed + 8*i
	return SelRun{Start: binary.BigEndian.Uint32(body[off:]), N: binary.BigEndian.Uint32(body[off+4:])}
}
