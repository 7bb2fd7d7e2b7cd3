package netrun

// The round journal: the networked run's evidence trail. Each node
// streams one JSONL record per committed round — the union of vertices
// activated (the round's effective daemon choice) and the configuration
// fingerprint after applying it — under a header carrying the full
// scenario. Replay (replay.go) turns any node's journal back into a
// deterministic in-process execution; identical journals across nodes
// are the replication check, a fingerprint-matching replay is the
// semantics check. Fingerprints are serialized as hex strings because
// JSON numbers cannot carry 64 uncorrupted bits.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"

	"specstab/internal/scenario"
)

// Header is the journal's first record: everything Replay needs to
// rebuild the execution, plus the writing node's identity for reports.
type Header struct {
	Kind     string             `json:"kind"` // "header"
	Scenario *scenario.Scenario `json:"scenario"`
	Nodes    int                `json:"nodes"`
	Node     int                `json:"node"`
	Lease    int                `json:"lease"`
	Capacity int                `json:"capacity"`
	// InitFP is the fingerprint of the initial configuration, hex.
	InitFP string `json:"initFP"`
}

// Entry is one committed round.
type Entry struct {
	Kind  string `json:"kind"` // "round"
	Round int64  `json:"round"`
	// Sel is the round's effective schedule: the ascending union of every
	// node's activated vertices.
	Sel []int `json:"sel"`
	// FP is the configuration fingerprint after the round, hex.
	FP string `json:"fp"`
}

// Journal is a fully loaded journal.
type Journal struct {
	Header  Header
	Entries []Entry
}

// Schedule extracts the recorded daemon's input: one activation list per
// round, in round order.
func (j *Journal) Schedule() [][]int {
	s := make([][]int, len(j.Entries))
	for i, e := range j.Entries {
		s[i] = e.Sel
	}
	return s
}

// fpString and parseFP are the journal's fingerprint codec.
func fpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

func parseFP(s string) (uint64, error) {
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("netrun: fingerprint %q is not 64-bit hex", s)
	}
	return fp, nil
}

// Journal buffering: the commit path appends one hand-rolled JSONL line
// (byte-identical to what json.Encoder produced when the journal was
// written per round) to an in-process buffer and only touches the sink
// when the buffer crosses journalFlushBytes or journalFlushRounds —
// plus an explicit flush when the run ends for any reason (drain, bye,
// fault), so every committed round a process *exits with* is on disk.
// Only a SIGKILL can lose the buffered tail, and then the file still
// ends at a line boundary of the last flush plus at most one torn line,
// which ReadJournal tolerates.
const (
	journalFlushBytes  = 1 << 16
	journalFlushRounds = 256
)

// journalRec is one committed round in arena form. The round number is
// implicit — rounds are dense from 1, so record i is round i+1 — and the
// schedule is the run-arena slice between the previous record's runEnd
// and this one's: the maximal runs of consecutive vertex ids the commit
// formed. A round in which every vertex fires is a single run.
type journalRec struct {
	fp     uint64
	runEnd int
}

// journalWriter accumulates rounds in arena form (materialized on
// demand by journal()) and streams buffered JSONL to an optional sink.
// A round retains 16 B of record plus 8 B per run of its schedule, so
// the arena grows with how fragmented the moves are, not how many: at
// most what a plain []int schedule would keep, and O(1) per round when
// the whole ring fires.
type journalWriter struct {
	hdr   Header
	recs  []journalRec
	runs  []SelRun
	moves int // total schedule length over recs, the journal() slab size

	sink     io.Writer
	buf      []byte
	pending  int          // rounds in buf since the last flush
	buffered atomic.Int64 // len(buf), exported to telemetry
}

func newJournalWriter(h Header, sink io.Writer) (*journalWriter, error) {
	jw := &journalWriter{hdr: h, sink: sink}
	if sink == nil {
		return jw, nil
	}
	// The header goes out immediately: a run that dies in round 1 still
	// leaves a replayable (empty) journal, and the flush policy below
	// only ever defers round entries.
	b, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("netrun: writing journal: %w", err)
	}
	b = append(b, '\n')
	if _, err := sink.Write(b); err != nil {
		return nil, fmt.Errorf("netrun: writing journal: %w", err)
	}
	return jw, nil
}

// round records committed round r, which must follow the last recorded
// one (rounds are dense from 1). sched is the round's schedule as the
// commit formed it — ascending, maximal runs — and goes into the arena
// as is; it is expanded into vertex ids only for the JSONL sink. The
// caller keeps ownership of sched and may reuse it next round.
func (jw *journalWriter) round(r int64, sched []SelRun, fp uint64) error {
	if want := int64(len(jw.recs) + 1); r != want {
		return fmt.Errorf("netrun: journal round %d, want %d (rounds must be dense from 1)", r, want)
	}
	jw.runs = append(jw.runs, sched...)
	jw.recs = append(jw.recs, journalRec{fp: fp, runEnd: len(jw.runs)})
	for _, run := range sched {
		jw.moves += int(run.N)
	}
	if jw.sink == nil {
		return nil
	}
	jw.buf = appendEntryJSON(jw.buf, r, sched, fp)
	jw.pending++
	jw.buffered.Store(int64(len(jw.buf)))
	if len(jw.buf) >= journalFlushBytes || jw.pending >= journalFlushRounds {
		return jw.flush()
	}
	return nil
}

// flush writes the buffered entries to the sink. Safe to call on a
// sink-less or empty writer.
func (jw *journalWriter) flush() error {
	if jw.sink == nil || len(jw.buf) == 0 {
		return nil
	}
	if _, err := jw.sink.Write(jw.buf); err != nil {
		return fmt.Errorf("netrun: writing journal: %w", err)
	}
	jw.buf = jw.buf[:0]
	jw.pending = 0
	jw.buffered.Store(0)
	return nil
}

// journal materializes the in-memory Journal from the arena, expanding
// every schedule into one freshly allocated slab: the result shares
// nothing with the writer, and its Sel slices are capped so appending to
// one cannot overwrite the next.
func (jw *journalWriter) journal() *Journal {
	j := &Journal{Header: jw.hdr, Entries: make([]Entry, len(jw.recs))}
	slab := make([]int, jw.moves)
	off, ri := 0, 0
	for i, rec := range jw.recs {
		first := off
		for ; ri < rec.runEnd; ri++ {
			run := jw.runs[ri]
			for k := range run.N {
				slab[off] = int(run.Start + k)
				off++
			}
		}
		j.Entries[i] = Entry{
			Kind:  "round",
			Round: int64(i + 1),
			Sel:   slab[first:off:off],
			FP:    fpString(rec.fp),
		}
	}
	return j
}

// appendEntryJSON appends one round entry with sched's runs expanded
// into vertex ids, byte-for-byte what json.Encoder.Encode(Entry{...})
// writes — TestJournalEntryJSON holds the two codecs together — without
// allocating.
func appendEntryJSON(b []byte, r int64, sched []SelRun, fp uint64) []byte {
	b = append(b, `{"kind":"round","round":`...)
	b = strconv.AppendInt(b, r, 10)
	b = append(b, `,"sel":[`...)
	for i, run := range sched {
		for k := range run.N {
			if i > 0 || k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(run.Start+k), 10)
		}
	}
	b = append(b, `],"fp":"`...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[(fp>>uint(shift))&0xf])
	}
	return append(b, '"', '}', '\n')
}

// ReadJournal parses a JSONL journal: exactly one header first, then
// round records in strictly increasing round order starting at 1 (the
// ordering is what makes the schedule a schedule). A record that is not
// valid JSON is tolerated only as the journal's final line — that is
// the torn tail a SIGKILL mid-flush leaves behind, and every complete
// round before it still replays. The same damage anywhere else, or any
// semantic violation (unknown kind, sparse rounds, second header), is a
// hard error.
func ReadJournal(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxFrame)
	var j Journal
	var torn error
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if torn != nil {
			// The malformed record was not the final line after all.
			return nil, torn
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			torn = fmt.Errorf("netrun: journal record %d: %w", line, err)
			continue
		}
		switch kind.Kind {
		case "header":
			if line != 1 {
				return nil, fmt.Errorf("netrun: journal record %d: second header", line)
			}
			if err := json.Unmarshal(raw, &j.Header); err != nil {
				return nil, fmt.Errorf("netrun: journal header: %w", err)
			}
		case "round":
			if line == 1 {
				return nil, fmt.Errorf("netrun: journal starts with a round record, not a header")
			}
			var e Entry
			if err := json.Unmarshal(raw, &e); err != nil {
				torn = fmt.Errorf("netrun: journal record %d: %w", line, err)
				continue
			}
			if want := int64(len(j.Entries) + 1); e.Round != want {
				return nil, fmt.Errorf("netrun: journal record %d: round %d, want %d (rounds must be dense from 1)",
					line, e.Round, want)
			}
			j.Entries = append(j.Entries, e)
		default:
			return nil, fmt.Errorf("netrun: journal record %d: unknown kind %q", line, kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netrun: reading journal: %w", err)
	}
	if j.Header.Kind != "header" {
		return nil, fmt.Errorf("netrun: journal has no header record")
	}
	if j.Header.Scenario == nil {
		return nil, fmt.Errorf("netrun: journal header carries no scenario")
	}
	return &j, nil
}

// LoadJournal reads a journal file.
func LoadJournal(path string) (*Journal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("netrun: %w", err)
	}
	defer f.Close()
	j, err := ReadJournal(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return j, nil
}
