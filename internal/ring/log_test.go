package ring

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/spec"
)

// testPasses is the pass count the log tests run at: small enough that a
// sweep reaches whole laps, and aliasing pass numbers, in a few records.
const testPasses = 4

// logRig is a LogWriter and a reader's copy of its log. Each record the
// writer lands is copied into the copy, followed by the zero length word
// when Land asks for one; every record carries its append number as its
// version.
type logRig struct {
	w      *LogWriter
	copy   []byte
	walker *LogWalker
	rec    codec.DeltaRecord
	rng    *rand.Rand
	seq    uint32 // records appended
	buf    []byte

	// noTerm is the no-terminate mutant: the writes leave the zero length
	// word out.
	noTerm bool
	// modHeads is the mod-heads mutant: a pass's head is stamped with its
	// pass number, like every other record, not with the pass itself.
	modHeads bool
}

func newLogRig(size int, seed int64) *logRig {
	g := &logRig{w: NewLogWriter(make([]byte, size), testPasses), copy: make([]byte, size), rng: rand.New(rand.NewSource(seed))}
	g.walker = NewLogWalker(g.copy, testPasses, &g.rec)
	return g
}

// encode encodes record seq of pass, n bytes long. Its argument pads it,
// and starts with a length word that reaches from there to the record's end:
// once the record is an older pass's leftover, a cursor there reads a torn
// record, as misaligned leftovers of a summary log can.
func (g *logRig) encode(t testing.TB, seq, pass uint32, n int) []byte {
	arg := []byte{0xEE, 0xEE, 0xEE, 0xEE}
	for fake := false; ; {
		b, err := codec.AppendDeltaRecord(g.buf[:0], codec.DeltaRecord{
			Kind: codec.FrameDelta, Version: seq, Span: 1, Counts: []uint32{seq},
			C: spec.Call{Proc: spec.ProcID(seq % 3), Seq: uint64(seq), Args: spec.ArgsS(string(arg))}, Pass: pass})
		if err != nil {
			t.Fatal(err)
		}
		g.buf = b
		switch {
		case len(b) < n:
			arg = append(arg, 'x')
		case len(b) > n:
			t.Fatalf("record %d does not pack into %d bytes", seq, n)
		case fake:
			return b
		default:
			binary.LittleEndian.PutUint32(arg, uint32(n-bytes.Index(b, arg[:4])))
			fake = true
		}
	}
}

// append lands the writer's next record, 40 to 71 bytes long, and returns
// where it starts.
func (g *logRig) append(t testing.TB) LogPos {
	g.seq++
	n := 40 + g.rng.Intn(32)
	was := g.w.Stamp(g.w.Pos().At)
	rec := g.encode(t, g.seq, was, n)
	at, stamp := g.w.Reserve(len(rec))
	if g.modHeads {
		stamp = g.w.Pass()
	}
	if stamp != was {
		rec = g.encode(t, g.seq, stamp, n)
	}
	if at+len(rec) > len(g.copy) {
		t.Fatalf("a %d-byte record at %d overruns the %d-byte log", len(rec), at, len(g.copy))
	}
	term := g.w.Land(at, rec, len(rec))
	copy(g.copy[at:], rec)
	if term && !g.noTerm {
		clear(g.copy[at+len(rec):][:4])
	}
	return LogPos{g.w.Pos().Abs, at}
}

// walk runs one walk that takes every record of its pass, and returns the
// versions it read, in order, whether it was lapped and how many torn
// records it read, -1 when it stopped on one.
func (g *logRig) walk(t testing.TB) (read []uint32, lapped bool, torn int) {
	g.walker.Start()
	for steps := 0; ; steps++ {
		if steps > 4*len(g.copy) {
			t.Fatal("the walk does not stop")
		}
		before := g.walker.Pos()
		switch g.walker.Step() {
		case LogRecord:
			if g.rec.Pass != g.walker.Pass() {
				t.Fatalf("the walk in pass %d read a record of pass %d", g.walker.Pass(), g.rec.Pass)
			}
			read = append(read, g.rec.Version)
			g.walker.Advance()
		case LogLap:
		case LogTorn:
			return read, g.walker.Lapped(), -1
		case LogEnd:
			n, _ := g.walker.Counts()
			return read, g.walker.Lapped(), n
		}
		if g.walker.Pos().Before(before) {
			t.Fatalf("the walk moved back from %+v to %+v", before, g.walker.Pos())
		}
	}
}

// TestLogLapSweep lets a walker that has read the head of its pass sleep
// from 0 to 2 × passes + 1 passes, ending anywhere in the last one, while
// the writer appends records of varying lengths; then one walk must report
// a lap, or read every record that landed in the meantime, once and in
// order, and stop at the writer's cursor in the writer's pass. Sleeps of
// k × passes − 1, k × passes and k × passes + 1 passes alias the walk's
// pass number, the one before it or the one after it at the log's head;
// only the head's stamp, the pass itself, tells them apart. The mod-heads
// control stamps heads with their pass number, as every other record, and
// must miss a lap.
func TestLogLapSweep(t *testing.T) {
	if missed := lapSweep(t, false); missed != 0 {
		t.Fatalf("%d sleeps lost records without a lap", missed)
	}
	missed := lapSweep(t, true)
	if missed == 0 {
		t.Fatal("a log whose heads carry only their pass number reported every lap")
	}
	t.Logf("mod-heads control: %d sleeps lost records unreported", missed)
}

// lapSweep returns how many sleeps lost records without a lap report; it
// fails t on any other misreading, and on any miss without modHeads.
func lapSweep(t *testing.T, modHeads bool) (missed int) {
	for sleep := uint64(0); sleep <= 2*testPasses+1; sleep++ {
		for trial := int64(0); trial < 32; trial++ {
			g := newLogRig(160+int(trial)%5*24, trial*31+int64(sleep))
			g.modHeads = modHeads
			for i := 1 + g.rng.Intn(12); i > 0; i-- {
				g.append(t)
				g.walk(t)
			}
			from, left := g.seq+1, g.walker.Pos()
			stop := LogPos{left.Abs + sleep, g.rng.Intn(len(g.copy) - 71)} // the writer stops in that pass
			for g.w.Pos().Before(stop) {
				g.append(t)
			}
			read, lapped, torn := g.walk(t)
			name := fmt.Sprintf("sleep %d, trial %d", sleep, trial)
			if !modHeads && (torn < 0 || torn > 0 && !lapped) { // a lapped walk may read the new pass's bytes misaligned
				t.Fatalf("%s: a fault-free walk read torn records (%d), lapped %v", name, torn, lapped)
			}
			for i, v := range read {
				if v < from || !lapped && i > 0 && v <= read[i-1] {
					t.Fatalf("%s: the walk read versions %v, records %d on landed since the last", name, read, from)
				}
			}
			if wp, gp := g.w.Pos(), g.walker.Pos(); !modHeads && (gp != wp || g.walker.Pass() != g.w.Pass()) {
				t.Fatalf("%s: the walk stopped at %+v in pass %d, the writer is at %+v in pass %d", name, gp, g.walker.Pass(), wp, g.w.Pass())
			}
			if lapped || len(read) == int(g.seq+1-from) {
				continue
			}
			missed++
			if !modHeads {
				t.Errorf("%s: the walk read %d of the %d records that landed and reported no lap (it stopped at %+v)", name, len(read), g.seq+1-from, left)
			}
		}
	}
	return missed
}

// TestFreshWalkerFindsTheWriter: a walker that never read a record, whose
// writer is already some passes on — one less than passes, or a multiple of
// it, alias a fresh walk's pass number or the one before it — reports a lap
// and stops at the writer's cursor.
func TestFreshWalkerFindsTheWriter(t *testing.T) {
	for _, ahead := range []uint64{1, testPasses - 1, testPasses, testPasses + 1, 2 * testPasses} {
		for trial := int64(0); trial < 8; trial++ {
			g := newLogRig(200, trial)
			for g.w.Pos().Abs < ahead || g.rng.Intn(3) > 0 && g.w.Pos().Abs == ahead {
				g.append(t)
			}
			if g.w.Pos().Abs != ahead {
				continue
			}
			_, lapped, _ := g.walk(t)
			if !lapped || g.walker.Pos() != g.w.Pos() {
				t.Fatalf("%d passes ahead, trial %d: a fresh walk stopped at %+v, lapped %v; the writer is at %+v",
					ahead, trial, g.walker.Pos(), lapped, g.w.Pos())
			}
		}
	}
}

// TestFaultFreeLogWalksReadNoTornRecord has a writer append records of
// mixed lengths for more than 2 × passes passes, with a walk after every
// append: each walk must read the one new record, and none may read a
// torn one. The no-terminate control leaves the zero length word out of the
// writes: the stale bytes behind a record then read as torn, or as a record
// of the pass from a whole lap before.
func TestFaultFreeLogWalksReadNoTornRecord(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if err := faultFreeWalks(t, seed, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	caught := 0
	for seed := int64(1); seed <= 8; seed++ {
		if err := faultFreeWalks(t, seed, true); err != nil {
			caught++
			t.Logf("no-terminate control, seed %d: %v", seed, err)
		}
	}
	if caught == 0 {
		t.Fatal("the walks read no torn or stale record without the zero length word")
	}
}

func faultFreeWalks(t *testing.T, seed int64, noTerm bool) error {
	g := newLogRig(200, seed)
	g.noTerm = noTerm
	for g.w.Pos().Abs <= 2*testPasses+1 {
		g.append(t)
		read, _, torn := g.walk(t)
		if torn != 0 {
			return fmt.Errorf("the walk after record %d stopped torn, in pass %d", g.seq, g.w.Pos().Abs)
		}
		if len(read) != 1 || read[0] != g.seq {
			return fmt.Errorf("the walk after record %d read %v", g.seq, read)
		}
	}
	return nil
}

// TestLogPosOrder pins the one order of log positions: by pass, then by
// offset.
func TestLogPosOrder(t *testing.T) {
	ps := []LogPos{{0, 0}, {0, 7}, {1, 0}, {1, 3}, {2, 0}}
	for i, p := range ps {
		for j, q := range ps {
			if got := p.Before(q); got != (i < j) {
				t.Errorf("%+v.Before(%+v) = %v", p, q, got)
			}
		}
	}
}

// TestLogWriterReserve pins where records go and their stamps: behind the
// cursor while they fit, stamped with the pass number, at offset 0 of the
// next pass when they do not — even a record longer than the log, which
// fits nowhere — stamped with the pass itself.
func TestLogWriterReserve(t *testing.T) {
	w := NewLogWriter(make([]byte, 64), testPasses)
	for i, want := range []struct {
		n, at int
		stamp uint32
		abs   uint64
	}{{40, 0, 0, 0}, {30, 0, 1, 1}, {34, 30, 1, 1}, {1, 0, 2, 2}, {100, 0, 3, 3}, {100, 0, 4, 4}, {8, 0, 4, 4}, {8, 8, 0, 4}} {
		at, stamp := w.Reserve(want.n)
		if at != want.at || stamp != want.stamp || w.Pos().Abs != want.abs {
			t.Fatalf("record %d (%d bytes) goes to %d stamped %d (abs %d), want %d stamped %d (abs %d)",
				i, want.n, at, stamp, w.Pos().Abs, want.at, want.stamp, want.abs)
		}
		if want.n <= 64 {
			w.pos.At = at + want.n
		}
	}
}
