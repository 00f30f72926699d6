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

// FuzzLogEntry fuzzes Mu's four wire formats — round, request, vote and
// grant. Fields encode and decode back; every cut inside the packed fields
// (anywhere in a round) is an error; an overlong varint is codec.ErrCorrupt;
// a node id above u16 (an entry's origin, a vote's candidate, a grant's
// voter), and a round whose first sequence number is zero or whose entries
// run past the largest one, is codec.ErrCorrupt; and on arbitrary bytes no
// decoder panics, and what one accepts re-encodes to the same bytes, so every
// message has one representation.
func FuzzLogEntry(f *testing.F) {
	f.Add(uint64(42), uint64(3), uint64(41), uint64(2), uint64(99), []byte("payload"))
	f.Add(uint64(0), uint64(1), uint64(0), uint64(0), uint64(0), []byte{})
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(maxNode), uint64(math.MaxUint64), []byte{1})
	f.Add(uint64(math.MaxUint64-1), uint64(1), uint64(0), uint64(1), uint64(1), []byte{1, 2, 3})
	f.Add(uint64(1<<21-1), uint64(127), uint64(127), uint64(maxNode+1), uint64(1<<21-1), []byte{0x80})
	f.Add(uint64(7), uint64(300), uint64(6), uint64(1), uint64(5), []byte{kindGrant, 1, 2, 3})
	f.Add(uint64(7), uint64(300), uint64(6), uint64(1), uint64(5), []byte{kindVote, 0x80, 0x00, 1})
	f.Add(uint64(7), uint64(300), uint64(6), uint64(1), uint64(5), []byte{5, 1, 4, 2, 0, 1, 0, 2, 1, 0})
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
		// A round of two entries from seq on: the payload, then its first half.
		entries := []entry{{id, submitSeq, payload}, {id, submitSeq + 1, payload[:len(payload)/2]}}
		header := appendRoundHeader(nil, seq, term, commit, len(entries))
		rnd := appendEntry(appendEntry(header, entries[0]), entries[1])
		req := append(codec.AppendUvarint(nil, submitSeq), payload...)
		vote := ctrlOf(in.frameVote(term, id))
		grant := ctrlOf(in.frameGrant(term, commit, id))
		if node > maxNode {
			for kind, err := range map[string]error{
				"round": func() error { _, err := decodeRound(rnd); return err }(),
				"vote":  func() error { _, err := decodeCtrl(vote); return err }(),
				"grant": func() error { _, err := decodeCtrl(grant); return err }(),
			} {
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("%s naming node %d: %v, want codec.ErrCorrupt", kind, node, err)
				}
			}
		} else {
			if seq == 0 || seq == math.MaxUint64 {
				if _, err := decodeRound(rnd); !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("round of two from seq %d: %v, want codec.ErrCorrupt", seq, err)
				}
			} else {
				r, err := decodeRound(rnd)
				var got []entry
				r.each(func(s uint64, e entry) {
					if s != seq+uint64(len(got)) {
						t.Fatalf("entry %d of a round from seq %d carries seq %d", len(got), seq, s)
					}
					got = append(got, e)
				})
				if err != nil || r.first != seq || r.term != term || r.commit != commit || len(got) != 2 ||
					got[0].origin != id || got[0].submitSeq != submitSeq || !bytes.Equal(got[0].payload, payload) ||
					got[1].submitSeq != submitSeq+1 || !bytes.Equal(got[1].payload, entries[1].payload) {
					t.Fatalf("round trip = %+v %+v, %v", r, got, err)
				}
				fields, at := offsets(rnd, 4), len(header)
				for _, e := range entries {
					for _, o := range offsets(rnd[at:], 3) {
						fields = append(fields, at+o)
					}
					at += e.size()
				}
				checkWire(t, "round", rnd, len(rnd), fields, func(b []byte) error {
					_, err := decodeRound(b)
					return err
				})
			}
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
		if r, err := decodeRound(raw); err == nil {
			re := appendRoundHeader(nil, r.first, r.term, r.commit, r.count)
			r.each(func(_ uint64, e entry) { re = appendEntry(re, e) })
			if !bytes.Equal(re, raw) {
				t.Fatalf("round %x decodes to %+v, which encodes as %x", raw, r, re)
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

// TestEntryHeaderSize pins the packed round: a round whose first sequence
// number and submission numbers are below 2^21 and whose term, commit, count,
// origins and payload lengths are below 128 carries at most 6 header bytes
// and 5 more per entry — a round of 8 seven-byte payloads at most 102 bytes,
// where 8 entries packed one to a record took 8 × (11 + 7) bytes and 8 record
// frames. A round at the top of those ranges packs to exactly that.
func TestEntryHeaderSize(t *testing.T) {
	for _, f := range [][4]uint64{{1, 1, 0, 0}, {1<<21 - 1 - 8, 127, 127, 127}} {
		b := appendRoundHeader(nil, f[0], f[1], f[2], 8)
		if len(b) > 6 {
			t.Fatalf("round header %v packs to %d bytes, want at most 6", f, len(b))
		}
		for i := 0; i < 8; i++ {
			b = appendEntry(b, entry{rdma.NodeID(f[3]), 1<<21 - 1 - uint64(i), []byte("payload")})
		}
		if len(b) > 6+8*(5+7) {
			t.Fatalf("a round of 8 seven-byte payloads %v packs to %d bytes, want at most %d", f, len(b), 6+8*(5+7))
		}
	}
}

// TestMaxPayloadFitsJournalSlot: a payload of exactly MaxPayload bytes in a
// round of one under the longest packed header — three ten-byte varints, a
// one-byte count, a three-byte origin, a ten-byte submission number and the
// payload's two-byte length — makes a ring record as long as a journal slot,
// and at the defaults that is 256 − 46 − 9 = 201 bytes. Such a payload is
// ordered and delivered on every node.
func TestMaxPayloadFitsJournalSlot(t *testing.T) {
	cfg := DefaultConfig()
	n := cfg.MaxPayload()
	if n != 201 {
		t.Fatalf("default MaxPayload %d, want 201", n)
	}
	b := appendRoundHeader(nil, math.MaxUint64, math.MaxUint64, math.MaxUint64, 1)
	b = appendEntry(b, entry{maxNode, math.MaxUint64, make([]byte, n)})
	if record := len(b) + codec.RawOverhead; record != cfg.JournalSlotSize {
		t.Fatalf("MaxPayload %d makes a %d-byte record for a %d-byte journal slot", n, record, cfg.JournalSlotSize)
	}
	if _, err := decodeRound(b); err != nil {
		t.Fatalf("the longest round of one: %v", err)
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
