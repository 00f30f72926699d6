package ring

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hamband/internal/codec"
)

// FuzzReaderPoll asserts the ring reader never panics on arbitrary region
// contents — a misbehaving remote writer may have scribbled anything into
// the data area — and that every payload it accepts is the reader's own copy
// of what the region held: the bytes between the length word and the CRC
// trailer of the record that ends at the new head, as they were before the
// poll, where that whole framed record passes codec.ValidateRecord; with
// everything the poll consumed zeroed afterwards, and in a buffer whose
// writes do not reach the region.
func FuzzReaderPoll(f *testing.F) {
	region := make([]byte, RegionSize(256))
	f.Add(region, 3)
	// A ring holding three whole records, so the accepted-payload checks run
	// from the first input on.
	written := make([]byte, RegionSize(64))
	w := NewWriter(64)
	for i := byte(0); i < 3; i++ {
		rec, err := codec.EncodeRaw(bytes.Repeat([]byte{'a' + i}, 11))
		if err != nil {
			f.Fatal(err)
		}
		writes, ok := w.Append(rec)
		if !ok {
			f.Fatal("seed ring full")
		}
		for _, wr := range writes {
			copy(written[wr.Off:], wr.Data)
		}
	}
	f.Add(written, 4)
	f.Fuzz(func(t *testing.T, data []byte, polls int) {
		if len(data) <= HeaderSize+4 {
			return
		}
		buf := append([]byte(nil), data...)
		r := NewReader(buf)
		ring := buf[HeaderSize:]
		capacity := uint64(len(ring))
		for i := 0; i < polls%16+1; i++ {
			before, head := bytes.Clone(ring), r.Head()
			msg, ok, err := r.Poll()
			if err != nil {
				return // corrupt layout detected, fine
			}
			if !ok {
				return
			}
			// Records never span the wrap boundary, so the framed record is
			// the bytes that end at the new head: length word, payload, CRC
			// trailer.
			n := uint64(len(msg)) + codec.RawOverhead
			start := (r.Head() - n) % capacity
			framed := before[start : start+n]
			if got := binary.LittleEndian.Uint32(framed); uint64(got) != n {
				t.Fatalf("poll %d returned a %d-byte payload of a record whose length word reads %d", i, len(msg), got)
			}
			if !bytes.Equal(msg, framed[4:n-codec.RecordTrailer]) {
				t.Fatalf("poll %d returned % x, but the record there held % x", i, msg, framed[4:n-codec.RecordTrailer])
			}
			if err := codec.ValidateRecord(framed); err != nil {
				t.Fatalf("poll %d accepted a record that fails validation: %v", i, err)
			}
			for off := head; off < r.Head(); off++ {
				if b := ring[off%capacity]; b != 0 {
					t.Fatalf("poll %d consumed [%d, %d) but left byte %#x at %d", i, head, r.Head(), b, off)
				}
			}
			after := bytes.Clone(buf)
			for j := range msg {
				msg[j] ^= 0xFF
			}
			if !bytes.Equal(buf, after) {
				t.Fatalf("poll %d: writing into the returned payload changed the region", i)
			}
		}
	})
}

// FuzzLogWalk walks arbitrary log bytes at 4 passes, from an arbitrary
// position and pass, twice, with arbitrary bytes landing in between: a walk
// must never panic, never return a record that fails its CRC or is of
// another pass, never move backwards, and always stop.
func FuzzLogWalk(f *testing.F) {
	g := newLogRig(200, 1)
	for i := 0; i < 12; i++ {
		g.append(f)
	}
	f.Add(bytes.Clone(g.copy), 0, uint32(0), 0, []byte{})
	f.Add(bytes.Clone(g.copy), 48, uint32(3), 7, []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, log []byte, start int, pass uint32, at int, landed []byte) {
		var rec codec.DeltaRecord
		w := NewLogWalker(log, testPasses, &rec)
		if start < 0 {
			start = -start
		}
		w.pos = LogPos{uint64(pass), start % (len(log) + 1)}
		for round := 0; round < 2; round++ {
			w.Start()
			for steps := 0; ; steps++ {
				if steps > len(log)+4 {
					t.Fatalf("the walk did not stop in %d steps", steps)
				}
				before := w.Pos()
				step := w.Step()
				if w.Pos().Before(before) {
					t.Fatalf("the walk moved back from %+v to %+v", before, w.Pos())
				}
				if step == LogRecord {
					b := log[w.pos.At:]
					if h, err := codec.PeekDeltaRecord(b); err != nil || h.Total != w.next || codec.ValidateRecord(b[:w.next]) != nil {
						t.Fatalf("the walk returned a record at %d that does not validate: %v", w.pos.At, err)
					}
					if rec.Pass != w.Pass() {
						t.Fatalf("the walk in pass %d returned a record of pass %d", w.Pass(), rec.Pass)
					}
					w.Advance()
				}
				if step == LogEnd || step == LogTorn {
					break
				}
			}
			w.Lapped()
			w.Landed()
			if len(log) > 0 && at >= 0 {
				copy(log[at%len(log):], landed)
			}
		}
	})
}
