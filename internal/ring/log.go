package ring

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hamband/internal/codec"
)

// LogPos is a position in a pass-numbered log (the δ-log format, DESIGN.md
// §4): byte At of its Abs-th pass, counting every pass the writer started.
type LogPos struct {
	Abs uint64
	At  int
}

// Before reports whether p lies before q.
func (p LogPos) Before(q LogPos) bool { return p.Abs < q.Abs || p.Abs == q.Abs && p.At < q.At }

// LogWriter is the writer's side of a pass-numbered log: codec.FrameDelta
// records stamped with their pass mod passes, a record that does not fit
// behind the cursor starting the next pass at offset 0. The record at offset
// 0, a pass's head, is stamped with the pass itself (mod 2^32), so a reader
// that finds the writer moved on knows how many passes it missed. It is a
// pure state machine over the writer's mirror, the bytes every reader's copy
// holds once the writer's writes have landed.
type LogWriter struct {
	mirror []byte
	passes uint32
	pos    LogPos
	pass   uint32            // pos.Abs mod passes
	probe  codec.DeltaRecord // what the bytes behind the cursor decode to (Land)
}

// NewLogWriter returns the writer of a log whose mirror is mirror, telling
// passes passes apart.
func NewLogWriter(mirror []byte, passes int) *LogWriter {
	checkPasses(passes)
	return &LogWriter{mirror: mirror, passes: uint32(passes)}
}

func checkPasses(passes int) {
	if passes < 2 || passes > 1<<31 {
		panic(fmt.Sprintf("ring: a log must tell 2 to 2^31 passes apart, not %d", passes))
	}
}

// Pos returns the writer's cursor: where its next record lands.
func (w *LogWriter) Pos() LogPos { return w.pos }

// Pass returns the pass number of the cursor's pass.
func (w *LogWriter) Pass() uint32 { return w.pass }

// Stamp returns the pass a record of the cursor's pass at at is stamped
// with: the pass number, or at the head the pass itself.
func (w *LogWriter) Stamp(at int) uint32 {
	if at == 0 {
		return uint32(w.pos.Abs)
	}
	return w.pass
}

// Reserve returns where an n-byte record goes and the pass it is stamped
// with: the cursor, or offset 0 of the next pass, which it starts, when the
// record would run past the log's end. A record longer than the log fits
// neither; the pass starts all the same.
func (w *LogWriter) Reserve(n int) (at int, stamp uint32) {
	if w.pos.At+n > len(w.mirror) {
		w.pos = LogPos{w.pos.Abs + 1, 0}
		w.pass = (w.pass + 1) % w.passes
	}
	return w.pos.At, w.Stamp(w.pos.At)
}

// Land places rec at at — its first n bytes a record of the cursor's pass,
// the rest zero padding — and moves the cursor behind the record, where the
// next one lands over the padding. It reports whether the write must carry
// a zero length word behind rec, which Land also leaves in the mirror.
//
// That word keeps readers' walks off stale bytes. A record of a new pass
// lands over the bytes of older ones, whose records lie at other offsets:
// what follows it until the next record lands may read as a torn record, or,
// a multiple of passes on, as a record of the pass. The word goes behind
// rec when the bytes at the cursor read as either; a walk stops at it, and
// the next record overwrites it.
func (w *LogWriter) Land(at int, rec []byte, n int) bool {
	w.pos.At = at + n
	copy(w.mirror[at:], rec)
	if w.pos.At+4 > len(w.mirror) || binary.LittleEndian.Uint32(w.mirror[w.pos.At:]) == 0 {
		return false
	}
	b := w.mirror[w.pos.At:]
	h, err := codec.PeekDeltaRecord(b)
	switch {
	case err == nil && h.Kind == codec.FrameDelta:
		if codec.DecodeDeltaBody(&w.probe, b, h) != nil || w.probe.Pass%w.passes != w.pass {
			return false
		}

	case !errors.Is(err, codec.ErrTorn):
		return false
	}
	clear(b[:4])
	return true
}

// LogStep is what one LogWalker.Step found.
type LogStep int

const (
	LogRecord LogStep = iota // a record of the walk's pass at its position, in the walker's record
	LogEnd                   // the end of what has landed
	LogLap                   // the walk entered the head's pass at offset 0; Lapped tells if it was lapped
	LogTorn                  // a torn record at the walk's position or the head: the walk stops
)

// LogWalker is a reader's walk of its copy of one writer's log: a pure
// state machine that reads the records of its pass from its position on,
// and follows the writer into the next pass once the record at the log's
// head is one of it. A walk is Start, then Step until it returns LogEnd or
// LogTorn, advancing past each record the caller took; its position only
// moves forward.
type LogWalker struct {
	log    []byte
	rec    *codec.DeltaRecord
	passes uint32
	pos    LogPos // Abs: the writer's passes before the walk's
	next   int    // the frame length of the record the last Step returned

	// The record the last look at the log's head validated: its length
	// word, its CRC and its stamp. A head whose length word and CRC read
	// the same is that record, and is not validated again.
	headLen, headCRC, headStamp uint32

	lapAt           int // where this walk left the old pass, -1 while it has not
	torn, validated int // since Start
	// IgnorePass is the ignore-pass mutant: the walker reads every record
	// as one of its pass, so it never follows the writer into the next.
	IgnorePass bool
}

// NewLogWalker returns a walk of log from its start, telling passes passes
// apart; every record it decodes lands in rec, its Pass the pass number mod
// passes, which the caller reads after a LogRecord step. The log is the
// reader's copy of one writer's log: its bytes may change between steps,
// its length may not.
func NewLogWalker(log []byte, passes int, rec *codec.DeltaRecord) *LogWalker {
	checkPasses(passes)
	return &LogWalker{log: log, rec: rec, passes: uint32(passes)}
}

// Pos returns the walk's position: the record it stands on, or where the
// next record of its pass lands.
func (w *LogWalker) Pos() LogPos { return w.pos }

// Pass returns the pass number of the walk's pass.
func (w *LogWalker) Pass() uint32 { return uint32(w.pos.Abs % uint64(w.passes)) }

// Start begins a walk.
func (w *LogWalker) Start() { w.lapAt, w.torn, w.validated = -1, 0, 0 }

// Counts returns the torn reads and the head records validated since Start.
func (w *LogWalker) Counts() (torn, validated int) { return w.torn, w.validated }

// Advance moves the walk past the record the last Step returned.
func (w *LogWalker) Advance() { w.pos.At += w.next }

// Step reads the log at the walk's position. Where no record of its pass
// is, the pass has ended there or its next record has not landed — unless
// the log's head says the writer moved on: the head of the next pass makes
// the walk enter it, once a walk. The head of a later pass means the walk
// was lapped: it enters the head's pass as well, once, and Lapped then
// holds.
func (w *LogWalker) Step() LogStep {
	total, stamp, err := w.read(w.pos.At)
	if err == nil && w.ours(w.pos.At, stamp, w.pos.Abs) {
		w.next = total
		return LogRecord
	}
	torn := errors.Is(err, codec.ErrTorn)
	head, herr := stamp, err
	if w.pos.At > 0 {
		head, herr = w.head()
	}
	tornHead := w.pos.At > 0 && errors.Is(herr, codec.ErrTorn)
	if torn {
		w.torn++
	}
	if tornHead {
		w.torn++
	}
	ahead := int32(head - uint32(w.pos.Abs)) // passes the head is on from the walk's
	switch {
	case herr != nil || w.IgnorePass || ahead <= 0:
		// The writer is still in the walk's pass, or a torn head hides
		// whether it moved on.
		if torn || tornHead {
			return LogTorn
		}
	case ahead == 1 && w.pos.At > 0 && w.lapAt < 0 && !torn:
		w.lapAt = w.pos.At
		w.enter(ahead)
		return LogLap
	case w.lapAt != 0: // torn bytes left behind, two passes on, or a whole pass missed
		w.lapAt = 0
		w.enter(ahead)
		return LogLap
	}
	return LogEnd
}

// Lapped reports whether the walk, since Start, entered a pass that already
// reaches past where it left the old one: records it had not read may have
// been overwritten. A walk that stopped short of the pass's end (the caller
// did not advance) has not seen where it ends; the records of the pass from
// its position on tell.
func (w *LogWalker) Lapped() bool {
	return w.lapAt >= 0 && w.passEnd(w.pos.At, w.pos.Abs) > w.lapAt
}

// Landed returns where what has landed of the log ends, as far as the walk
// can tell: behind the records of its pass from its position on, or, when
// the log's head is already a record of the next pass, behind that pass's
// records from offset 0.
func (w *LogWalker) Landed() LogPos {
	pos := LogPos{w.pos.Abs, w.passEnd(w.pos.At, w.pos.Abs)}
	if _, stamp, err := w.read(0); err == nil && pos.At > 0 && stamp == uint32(w.pos.Abs+1) {
		pos = LogPos{w.pos.Abs + 1, w.passEnd(0, w.pos.Abs+1)}
	}
	return pos
}

// enter moves the walk to the start of the pass d passes on from its own.
func (w *LogWalker) enter(d int32) {
	w.pos = LogPos{w.pos.Abs + uint64(d), 0}
}

// read decodes the record at log[at:] into the walker's record, its Pass
// made the pass number, and returns its frame length and stamp.
func (w *LogWalker) read(at int) (int, uint32, error) {
	h, err := codec.PeekDeltaRecord(w.log[at:])
	if err != nil {
		return 0, 0, err
	}
	if h.Kind != codec.FrameDelta {
		return 0, 0, codec.ErrCorrupt
	}
	if err := codec.DecodeDeltaBody(w.rec, w.log[at:], h); err != nil {
		return 0, 0, err
	}
	stamp := w.rec.Pass
	w.rec.Pass %= w.passes
	return h.Total, stamp, nil
}

// passEnd returns where the records of pass abs that follow one another
// from at end.
func (w *LogWalker) passEnd(at int, abs uint64) int {
	for {
		total, stamp, err := w.read(at)
		if err != nil || !w.ours(at, stamp, abs) {
			return at
		}
		at += total
	}
}

// head returns the stamp of the record at the head of the log, validating
// it only when its length word or CRC changed since the walk last looked.
func (w *LogWalker) head() (uint32, error) {
	if w.headLen != 0 {
		n := binary.LittleEndian.Uint32(w.log)
		if n == w.headLen && binary.LittleEndian.Uint32(w.log[n-codec.RecordTrailer:]) == w.headCRC {
			return w.headStamp, nil
		}
	}
	total, stamp, err := w.read(0)
	if err != nil {
		return 0, err
	}
	w.validated++
	w.headLen, w.headCRC, w.headStamp = uint32(total), binary.LittleEndian.Uint32(w.log[total-codec.RecordTrailer:]), stamp
	return stamp, nil
}

// ours reports whether a record at at stamped stamp belongs to pass abs:
// its head carries the pass, every other record its number — and any
// record does, under the ignore-pass mutant.
func (w *LogWalker) ours(at int, stamp uint32, abs uint64) bool {
	if at == 0 {
		return w.IgnorePass || stamp == uint32(abs)
	}
	return w.IgnorePass || stamp == uint32(abs%uint64(w.passes))
}
