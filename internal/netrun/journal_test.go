package netrun

// Journal buffering tests: the hand-rolled JSONL writer must stay
// byte-compatible with the json.Encoder records PR 9 wrote per round,
// the flush policy must hold entries back until a boundary or an
// explicit flush, and ReadJournal must tolerate exactly one torn line —
// the final one.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"specstab/internal/scenario"
)

func testHeader() Header {
	return Header{
		Kind: "header",
		Scenario: &scenario.Scenario{
			Seed:     3,
			Protocol: scenario.ProtocolSpec{Name: "dijkstra", K: 13},
			Topology: scenario.TopologySpec{Name: "ring", N: 12},
			Daemon:   scenario.DaemonSpec{Name: "sync"},
			Init:     scenario.InitSpec{Mode: "random"},
		},
		Nodes:    3,
		Node:     0,
		Lease:    64,
		Capacity: 1,
		InitFP:   fpString(0xabcdef0123456789),
	}
}

// runsOf is the maximal-run form of an ascending vertex list, built
// one vertex at a time the way selectLocal builds a frame's runs.
func runsOf(sel []int) []SelRun {
	runs := []SelRun{}
	for _, v := range sel {
		runs = appendRun(runs, SelRun{Start: uint32(v), N: 1})
	}
	return runs
}

// commitRuns is the schedule the commit forms for sel on an n-ring of
// nodes shards: each shard's share as that node's frame would carry it,
// concatenated in shard order through appendRun, so runs meeting at a
// shard boundary merge.
func commitRuns(sel []int, n, nodes int) []SelRun {
	sched := []SelRun{}
	for id := 0; id < nodes; id++ {
		lo, hi := shardRange(n, nodes, id)
		var share []int
		for _, v := range sel {
			if v >= lo && v < hi {
				share = append(share, v)
			}
		}
		for _, r := range runsOf(share) {
			sched = appendRun(sched, r)
		}
	}
	return sched
}

// TestJournalEntryJSON pins appendEntryJSON to json.Encoder's bytes —
// the comparison the comment in journal.go promises — for schedules
// given as runs, including several runs and runs merged across a shard
// boundary.
func TestJournalEntryJSON(t *testing.T) {
	lo1, _ := shardRange(12, 3, 1)
	cases := []struct {
		e     Entry
		sched []SelRun
	}{
		{Entry{Kind: "round", Round: 1, Sel: []int{0}, FP: fpString(0)}, []SelRun{{0, 1}}},
		{Entry{Kind: "round", Round: 42, Sel: []int{3, 7, 1000000}, FP: fpString(0x00000000deadbeef)},
			[]SelRun{{3, 1}, {7, 1}, {1000000, 1}}},
		{Entry{Kind: "round", Round: 9_000_000_000, Sel: []int{}, FP: fpString(^uint64(0))}, []SelRun{}},
		{Entry{Kind: "round", Round: 5, Sel: []int{0, 1, 2, 5, 6, 10}, FP: fpString(5)},
			[]SelRun{{0, 3}, {5, 2}, {10, 1}}},
		// Shard 0's run ends where shard 1's begins: the commit's
		// appendRun leaves one run of five.
		{Entry{Kind: "round", Round: 6, Sel: []int{2, 3, 4, 5, 6}, FP: fpString(6)},
			appendRun([]SelRun{{2, uint32(lo1 - 2)}}, SelRun{uint32(lo1), uint32(7 - lo1)})},
	}
	if got := cases[4].sched; len(got) != 1 || got[0] != (SelRun{2, 5}) {
		t.Fatalf("runs meeting at the shard boundary %d did not merge: %v", lo1, got)
	}
	for _, c := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.e); err != nil {
			t.Fatal(err)
		}
		fp, err := parseFP(c.e.FP)
		if err != nil {
			t.Fatal(err)
		}
		got := appendEntryJSON(nil, c.e.Round, c.sched, fp)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendEntryJSON(%+v):\n got %q\nwant %q", c.e, got, want.Bytes())
		}
	}
}

// TestJournalFlushPolicy drives the writer past both flush triggers and
// checks what reaches the sink when.
func TestJournalFlushPolicy(t *testing.T) {
	var sink bytes.Buffer
	jw, err := newJournalWriter(testHeader(), &sink)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := sink.Len()
	if headerLen == 0 {
		t.Fatal("header not written immediately")
	}
	if err := jw.round(1, runsOf([]int{0, 5}), 0x1111); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != headerLen {
		t.Fatalf("round 1 reached the sink before any flush boundary (%d > %d bytes)", sink.Len(), headerLen)
	}
	if jw.buffered.Load() == 0 {
		t.Fatal("buffered gauge is 0 with a round pending")
	}
	// The round-count trigger.
	for r := int64(2); r <= journalFlushRounds; r++ {
		if err := jw.round(r, runsOf([]int{int(r % 12)}), uint64(r)); err != nil {
			t.Fatal(err)
		}
	}
	if sink.Len() == headerLen {
		t.Fatalf("%d rounds did not trigger a flush", journalFlushRounds)
	}
	if jw.buffered.Load() != 0 {
		t.Fatal("buffered gauge nonzero right after a flush")
	}
	// The explicit flush (the drain/bye/fault path).
	if err := jw.round(journalFlushRounds+1, runsOf([]int{1}), 0x2222); err != nil {
		t.Fatal(err)
	}
	if err := jw.flush(); err != nil {
		t.Fatal(err)
	}
	j, err := ReadJournal(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Entries) != journalFlushRounds+1 {
		t.Fatalf("read back %d entries, want %d", len(j.Entries), journalFlushRounds+1)
	}
	if !equalJournal(j, jw.journal()) {
		t.Fatal("sink journal and arena journal disagree")
	}
}

// TestJournalArenaSchedules round-trips the run-length arena: for each
// schedule shape, written as the runs the commit forms from three
// shards' frames, the materialized journal must equal both the schedule
// that was written and the JSONL the sink received, and the arena must
// hold the schedule's maximal runs — runs meeting at a shard boundary
// merged into one.
func TestJournalArenaSchedules(t *testing.T) {
	const n, nodes = 1024, 3
	span := func(lo, hi, stride int) []int {
		var s []int
		for v := lo; v < hi; v += stride {
			s = append(s, v)
		}
		return s
	}
	// Every vertex except the first and last of each shard: a gap on both
	// sides of every boundary between node contributions.
	var boundaryGaps []int
	for id := 0; id < nodes; id++ {
		lo, hi := shardRange(n, nodes, id)
		boundaryGaps = append(boundaryGaps, span(lo+1, hi-1, 1)...)
	}
	schedules := map[string][][]int{
		"single vertex": {{5}, {5}, {700}},
		"full ring":     {span(0, n, 1), span(0, n, 1)},
		"alternating":   {span(0, n, 2), span(1, n, 2)},
		"shard gaps":    {boundaryGaps, span(0, n, 1), boundaryGaps},
		"ends":          {{0, n - 1}, {0}, {n - 1}},
		"mixed":         {{0, 1, 2, 4, 6, 7, n - 2, n - 1}, {3}, span(0, n, 3)},
		"multi-run":     {append(span(10, 20, 1), append(span(30, 40, 1), span(500, 900, 1)...)...)},
		"across shards": {span(300, 700, 1), span(0, 683, 1), span(341, 342, 1)},
	}
	for name, sched := range schedules {
		var sink bytes.Buffer
		jw, err := newJournalWriter(testHeader(), &sink)
		if err != nil {
			t.Fatal(err)
		}
		want := &Journal{Header: jw.hdr}
		for i, sel := range sched {
			r, fp := int64(i+1), uint64(i)*0x9e3779b97f4a7c15
			before := len(jw.runs)
			if err := jw.round(r, commitRuns(sel, n, nodes), fp); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, maximal := jw.runs[before:], runsOf(sel); !reflect.DeepEqual(got, maximal) {
				t.Errorf("%s: round %d keeps runs %v, want the maximal %v", name, r, got, maximal)
			}
			want.Entries = append(want.Entries, Entry{Kind: "round", Round: r, Sel: sel, FP: fpString(fp)})
		}
		if err := jw.flush(); err != nil {
			t.Fatal(err)
		}
		got := jw.journal()
		if !equalJournal(got, want) {
			t.Errorf("%s: arena journal differs from the written schedule", name)
		}
		read, err := ReadJournal(bytes.NewReader(sink.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalJournal(got, read) {
			t.Errorf("%s: arena journal differs from the sink's JSONL", name)
		}
		for i := range sched {
			if got.Entries[i].Kind != "round" {
				t.Errorf("%s: entry %d has kind %q", name, i, got.Entries[i].Kind)
			}
		}
		// Materializations are independent copies: editing one (as a
		// tamper test does) must not reach the writer.
		if len(got.Entries) > 1 {
			_ = append(got.Entries[0].Sel, -7)
			if !equalJournal(got, want) {
				t.Errorf("%s: appending to one schedule overwrote the next", name)
			}
		}
		got.Entries[0].Sel[0] = -1
		if !equalJournal(jw.journal(), want) {
			t.Errorf("%s: editing a materialized journal changed the arena", name)
		}
	}
}

// TestJournalArenaBound is the memory regression guard: a round in which
// the whole ring fires retains one run, whatever n is, and no round ever
// retains more runs than moves.
func TestJournalArenaBound(t *testing.T) {
	const n = 1024
	jw, err := newJournalWriter(testHeader(), nil)
	if err != nil {
		t.Fatal(err)
	}
	full, alternating := make([]int, n), make([]int, 0, n/2)
	for v := range full {
		full[v] = v
		if v%2 == 0 {
			alternating = append(alternating, v)
		}
	}
	for r := int64(1); r <= 100; r++ {
		if err := jw.round(r, commitRuns(full, n, 3), uint64(r)); err != nil {
			t.Fatal(err)
		}
		if len(jw.runs) != int(r) {
			t.Fatalf("after %d full-firing rounds the arena holds %d runs, want %d", r, len(jw.runs), r)
		}
	}
	before := len(jw.runs)
	if err := jw.round(101, commitRuns(alternating, n, 3), 101); err != nil {
		t.Fatal(err)
	}
	if added := len(jw.runs) - before; added != len(alternating) {
		t.Fatalf("alternating round added %d runs, want %d (one per move)", added, len(alternating))
	}
	if err := jw.round(103, commitRuns(full, n, 3), 103); err == nil {
		t.Fatal("a skipped round number was accepted")
	}
}

func equalJournal(a, b *Journal) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		ae, be := a.Entries[i], b.Entries[i]
		if ae.Round != be.Round || ae.FP != be.FP || len(ae.Sel) != len(be.Sel) {
			return false
		}
		for k := range ae.Sel {
			if ae.Sel[k] != be.Sel[k] {
				return false
			}
		}
	}
	return true
}

// TestReadJournalTornTail: a SIGKILL mid-flush leaves a partial final
// line; every complete round before it must still load. The same
// damage anywhere but the tail stays fatal.
func TestReadJournalTornTail(t *testing.T) {
	var sink bytes.Buffer
	jw, err := newJournalWriter(testHeader(), &sink)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(1); r <= 3; r++ {
		if err := jw.round(r, runsOf([]int{int(r)}), uint64(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.flush(); err != nil {
		t.Fatal(err)
	}
	whole := sink.String()
	lines := strings.SplitAfter(strings.TrimSuffix(whole, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("journal has %d lines, want 4", len(lines))
	}

	torn := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	j, err := ReadJournal(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(j.Entries) != 2 {
		t.Fatalf("torn journal loaded %d entries, want 2", len(j.Entries))
	}

	midTorn := lines[0] + lines[1][:len(lines[1])/2] + "\n" + lines[2] + lines[3]
	if _, err := ReadJournal(strings.NewReader(midTorn)); err == nil {
		t.Fatal("mid-journal damage must stay a hard error")
	}

	sparse := lines[0] + lines[1] + lines[3]
	if _, err := ReadJournal(strings.NewReader(sparse)); err == nil {
		t.Fatal("sparse rounds must stay a hard error")
	}
}

// TestDecodeFrameIntoReuse checks the decode scratch contract: a second
// decode into the same frame reuses Runs/Data backing when it fits.
func TestDecodeFrameIntoReuse(t *testing.T) {
	big := &Frame{Kind: KindRound, Round: RoundFrame{
		Round: 1, Node: 2, Words: 1, PrevFP: 9,
		Runs: []SelRun{{1, 1}, {4, 1}, {6, 2}}, Data: []int64{-1, -4, -6, -7},
	}}
	small := &Frame{Kind: KindRound, Round: RoundFrame{
		Round: 2, Node: 2, Words: 1, PrevFP: 10,
		Runs: []SelRun{{5, 1}}, Data: []int64{55},
	}}
	pb, err := AppendFrame(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := AppendFrame(nil, small)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeFrameInto(&f, pb); err != nil {
		t.Fatal(err)
	}
	firstRun, firstData := &f.Round.Runs[0], &f.Round.Data[0]
	if err := DecodeFrameInto(&f, ps); err != nil {
		t.Fatal(err)
	}
	if len(f.Round.Runs) != 1 || f.Round.Runs[0] != (SelRun{5, 1}) || len(f.Round.Data) != 1 || f.Round.Data[0] != 55 {
		t.Fatalf("reused decode corrupted: %+v", f.Round)
	}
	if &f.Round.Runs[0] != firstRun || &f.Round.Data[0] != firstData {
		t.Error("smaller decode did not reuse the existing Runs/Data backing")
	}
	// And the result must match a fresh DecodeFrame bit for bit.
	fresh, err := DecodeFrame(ps)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Round.Round != f.Round.Round || fresh.Round.Runs[0] != f.Round.Runs[0] || fresh.Round.Data[0] != f.Round.Data[0] {
		t.Fatal("DecodeFrameInto and DecodeFrame disagree")
	}
}
