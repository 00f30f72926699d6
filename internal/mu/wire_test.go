package mu

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// overlong re-encodes the varint that starts at b[at] one byte longer — the
// same value with a trailing zero group, or an eleventh byte for a ten-byte
// varint — which a canonical decoder must refuse.
func overlong(b []byte, at int) []byte {
	end := at
	for b[end]&0x80 != 0 {
		end++
	}
	out := append([]byte(nil), b[:end]...)
	out = append(out, b[end]|0x80, 0)
	return append(out, b[end+1:]...)
}

// checkWire holds one message kind to its packed format: msg, whose fields
// take the first header bytes, decodes; every cut inside the fields is an
// error; and each field made overlong (fields gives the offset of each) is
// codec.ErrCorrupt.
func checkWire(t *testing.T, kind string, msg []byte, header int, fields []int, decode func([]byte) error) {
	t.Helper()
	if err := decode(msg); err != nil {
		t.Fatalf("%s %x: %v", kind, msg, err)
	}
	for cut := 0; cut < header; cut++ {
		if err := decode(msg[:cut]); err == nil {
			t.Fatalf("%s %x cut to %d of its %d header bytes decoded", kind, msg, cut, header)
		}
	}
	for _, at := range fields {
		if err := decode(overlong(msg, at)); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s %x with the varint at %d overlong: %v, want codec.ErrCorrupt", kind, msg, at, err)
		}
	}
}

// offsets returns where each varint of a run at the front of b starts.
func offsets(b []byte, n int) []int {
	var at []int
	for p := 0; len(at) < n; p++ {
		at = append(at, p)
		for b[p]&0x80 != 0 {
			p++
		}
	}
	return at
}

// FuzzLogEntry fuzzes Mu's four wire formats — entry, request, vote and
// grant. Fields encode and decode back; every cut inside the packed fields is
// an error; an overlong varint is codec.ErrCorrupt; a node id above u16 (an
// entry's origin, a vote's candidate, a grant's voter) is codec.ErrCorrupt;
// and on arbitrary bytes no decoder panics, and what one accepts re-encodes
// to the same bytes, so every message has one representation.
func FuzzLogEntry(f *testing.F) {
	f.Add(uint64(42), uint64(3), uint64(41), uint64(2), uint64(99), []byte("payload"))
	f.Add(uint64(0), uint64(1), uint64(0), uint64(0), uint64(0), []byte{})
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(maxNode), uint64(math.MaxUint64), []byte{1})
	f.Add(uint64(1<<21-1), uint64(127), uint64(127), uint64(maxNode+1), uint64(1<<21-1), []byte{0x80})
	f.Add(uint64(7), uint64(300), uint64(6), uint64(1), uint64(5), []byte{kindGrant, 1, 2, 3})
	f.Add(uint64(7), uint64(300), uint64(6), uint64(1), uint64(5), []byte{kindVote, 0x80, 0x00, 1})
	f.Fuzz(func(t *testing.T, seq, term, commit, node, submitSeq uint64, payload []byte) {
		in := &Instance{}
		id := rdma.NodeID(node)
		ctrlOf := func(rec []byte) []byte {
			msg, _, err := codec.DecodeRaw(rec)
			if err != nil {
				t.Fatalf("control record %x: %v", rec, err)
			}
			return append([]byte(nil), msg...)
		}
		entry := appendEntry(nil, seq, term, commit, id, submitSeq, payload)
		req := append(codec.AppendUvarint(nil, submitSeq), payload...)
		vote := ctrlOf(in.frameVote(term, id))
		grant := ctrlOf(in.frameGrant(term, commit, id))
		if node > maxNode {
			for kind, err := range map[string]error{
				"entry": func() error { _, err := decodeLogEntry(entry); return err }(),
				"vote":  func() error { _, err := decodeCtrl(vote); return err }(),
				"grant": func() error { _, err := decodeCtrl(grant); return err }(),
			} {
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("%s naming node %d: %v, want codec.ErrCorrupt", kind, node, err)
				}
			}
		} else {
			e, err := decodeLogEntry(entry)
			if err != nil || e.seq != seq || e.term != term || e.commit != commit || e.origin != id ||
				e.submitSeq != submitSeq || !bytes.Equal(e.payload, payload) {
				t.Fatalf("entry round trip = %+v, %v", e, err)
			}
			checkWire(t, "entry", entry, len(entry)-len(payload), offsets(entry, 5), func(b []byte) error {
				_, err := decodeLogEntry(b)
				return err
			})
			if m, err := decodeCtrl(vote); err != nil || m != (ctrl{term: term, node: id}) {
				t.Fatalf("vote round trip = %+v, %v", m, err)
			}
			if m, err := decodeCtrl(grant); err != nil || m != (ctrl{grant: true, term: term, lastDelivered: commit, node: id}) {
				t.Fatalf("grant round trip = %+v, %v", m, err)
			}
			for _, m := range []struct {
				kind   string
				msg    []byte
				fields int
			}{{"vote", vote, 2}, {"grant", grant, 3}} {
				at := offsets(m.msg[1:], m.fields) // past the kind byte
				for i := range at {
					at[i]++
				}
				checkWire(t, m.kind, m.msg, len(m.msg), at, func(b []byte) error {
					_, err := decodeCtrl(b)
					return err
				})
			}
		}
		s, p, err := decodeRequest(req)
		if err != nil || s != submitSeq || !bytes.Equal(p, payload) {
			t.Fatalf("request round trip = %d %x, %v", s, p, err)
		}
		checkWire(t, "request", req, len(req)-len(payload), []int{0}, func(b []byte) error {
			_, _, err := decodeRequest(b)
			return err
		})

		// Arbitrary bytes: no panic, and an accepted message re-encodes as it was.
		raw := payload
		if e, err := decodeLogEntry(raw); err == nil {
			if re := appendEntry(nil, e.seq, e.term, e.commit, e.origin, e.submitSeq, e.payload); !bytes.Equal(re, raw) {
				t.Fatalf("entry %x decodes to %+v, which encodes as %x", raw, e, re)
			}
		}
		if s, p, err := decodeRequest(raw); err == nil {
			if re := append(codec.AppendUvarint(nil, s), p...); !bytes.Equal(re, raw) {
				t.Fatalf("request %x re-encodes as %x", raw, re)
			}
		}
		if m, err := decodeCtrl(raw); err == nil {
			re := ctrlOf(in.frameVote(m.term, m.node))
			if m.grant {
				re = ctrlOf(in.frameGrant(m.term, m.lastDelivered, m.node))
			}
			if !bytes.Equal(re, raw) {
				t.Fatalf("control message %x decodes to %+v, which encodes as %x", raw, m, re)
			}
		}
	})
}

// TestEntryHeaderSize pins the packed entry header: an entry whose seq and
// submitSeq are below 2^21 and whose term, commit and origin are below 128
// carries at most 11 header bytes — 9 at the top of those ranges, against
// the 34 of a fixed-width header. A log write that went back to fixed width
// fails here.
func TestEntryHeaderSize(t *testing.T) {
	for _, f := range [][5]uint64{{1, 1, 0, 0, 1}, {1<<21 - 1, 127, 127, 127, 1<<21 - 1}} {
		e := appendEntry(nil, f[0], f[1], f[2], rdma.NodeID(f[3]), f[4], []byte("payload"))
		if header := len(e) - len("payload"); header > 11 {
			t.Fatalf("entry %v carries a %d-byte header, want at most 11", f, header)
		}
	}
	e := appendEntry(nil, 1<<21-1, 127, 127, 127, 1<<21-1, nil)
	if len(e) != 9 {
		t.Fatalf("the largest entry header in range packs to %d bytes, want 9", len(e))
	}
}

// TestMaxPayloadFitsJournalSlot: a payload of exactly MaxPayload bytes under
// the longest packed entry header — four ten-byte varints and a three-byte
// origin — makes a ring record as long as a journal slot, and at the defaults
// that is 256 − 43 − 9 = 204 bytes. Such a payload is ordered and delivered on
// every node.
func TestMaxPayloadFitsJournalSlot(t *testing.T) {
	cfg := DefaultConfig()
	n := cfg.MaxPayload()
	if n != 204 {
		t.Fatalf("default MaxPayload %d, want 204", n)
	}
	e := appendEntry(nil, math.MaxUint64, math.MaxUint64, math.MaxUint64, maxNode, math.MaxUint64, make([]byte, n))
	if record := len(e) + codec.RawOverhead; record != cfg.JournalSlotSize {
		t.Fatalf("MaxPayload %d makes a %d-byte record for a %d-byte journal slot", n, record, cfg.JournalSlotSize)
	}
	c := newCluster(t, 3, 0)
	payload := bytes.Repeat([]byte{'m'}, n)
	c.eng.At(0, func() { c.inst[1].Submit(payload) })
	c.run(sim.Millisecond)
	for node, got := range c.delivered {
		if len(got) != 1 || got[0] != string(payload) {
			t.Fatalf("node %d delivered %d payloads, want the %d-byte one", node, len(got), n)
		}
	}
}
