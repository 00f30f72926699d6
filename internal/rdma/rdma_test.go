package rdma

import (
	"bytes"
	"errors"
	"testing"

	"hamband/internal/sim"
)

func testFabric(n int) (*sim.Engine, *Fabric) {
	eng := sim.NewEngine(7)
	return eng, NewFabric(eng, n, DefaultLatency())
}

func TestWriteLandsInRemoteMemory(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 64)
	r.AllowWrite(0)
	var done bool
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 8, []byte("hello"), func(err error) {
			if err != nil {
				t.Errorf("write completion error: %v", err)
			}
			done = true
		})
	})
	eng.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if got := string(r.Bytes()[8:13]); got != "hello" {
		t.Fatalf("remote memory = %q, want %q", got, "hello")
	}
}

func TestWriteCopiesDataAtPostTime(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 16)
	r.AllowWrite(0)
	data := []byte("aaaa")
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, data, nil)
		copy(data, "bbbb") // mutate after posting
	})
	eng.Run()
	if got := string(r.Bytes()[:4]); got != "aaaa" {
		t.Fatalf("remote memory = %q, want the value at post time", got)
	}
}

func TestWritePermissionDenied(t *testing.T) {
	eng, f := testFabric(2)
	f.Node(1).Register("buf", 16) // no permission granted
	var got error
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, []byte{1}, func(err error) { got = err })
	})
	eng.Run()
	if !errors.Is(got, ErrPermission) {
		t.Fatalf("err = %v, want ErrPermission", got)
	}
}

func TestRevokeWriteTakesEffect(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 16)
	r.AllowWrite(0)
	var first, second error
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, []byte{1}, func(err error) { first = err })
	})
	eng.At(10_000, func() {
		r.RevokeWrite(0)
		f.Node(0).QP(1).Write("buf", 0, []byte{2}, func(err error) { second = err })
	})
	eng.Run()
	if first != nil {
		t.Fatalf("pre-revoke write failed: %v", first)
	}
	if !errors.Is(second, ErrPermission) {
		t.Fatalf("post-revoke write err = %v, want ErrPermission", second)
	}
}

func TestReadReturnsRemoteBytes(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 32)
	copy(r.Bytes()[4:], "world")
	var got []byte
	eng.At(0, func() {
		f.Node(0).QP(1).Read("buf", 4, 5, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read error: %v", err)
			}
			got = append([]byte(nil), data...) // borrowed until the callback returns
		})
	})
	eng.Run()
	if string(got) != "world" {
		t.Fatalf("read = %q, want %q", got, "world")
	}
}

func TestReadNeedsNoWritePermission(t *testing.T) {
	eng, f := testFabric(2)
	f.Node(1).Register("buf", 8)
	var err error = errors.New("sentinel")
	eng.At(0, func() {
		f.Node(0).QP(1).Read("buf", 0, 8, func(_ []byte, e error) { err = e })
	})
	eng.Run()
	if err != nil {
		t.Fatalf("read err = %v, want nil", err)
	}
}

func TestOutOfBoundsAccess(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 8)
	r.AllowWrite(0)
	var werr, rerr error
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 6, []byte{1, 2, 3}, func(e error) { werr = e })
		f.Node(0).QP(1).Read("buf", -1, 4, func(_ []byte, e error) { rerr = e })
	})
	eng.Run()
	if !errors.Is(werr, ErrOutOfBounds) || !errors.Is(rerr, ErrOutOfBounds) {
		t.Fatalf("errs = %v, %v; want ErrOutOfBounds", werr, rerr)
	}
}

func TestMissingRegion(t *testing.T) {
	eng, f := testFabric(2)
	var got error
	eng.At(0, func() {
		f.Node(0).QP(1).Write("nope", 0, []byte{1}, func(e error) { got = e })
	})
	eng.Run()
	if !errors.Is(got, ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion", got)
	}
}

func TestQPInOrderDelivery(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 8)
	r.AllowWrite(0)
	eng.At(0, func() {
		qp := f.Node(0).QP(1)
		// A large write followed by a small one: despite the second being
		// "faster" on the wire, RC ordering applies them in post order.
		qp.Write("buf", 0, bytes.Repeat([]byte{1}, 8), nil)
		qp.Write("buf", 0, []byte{9}, nil)
	})
	eng.Run()
	if r.Bytes()[0] != 9 {
		t.Fatalf("buf[0] = %d, want the later write (9)", r.Bytes()[0])
	}
	if r.Bytes()[1] != 1 {
		t.Fatalf("buf[1] = %d, want 1 from the first write", r.Bytes()[1])
	}
}

func TestCAS(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 8)
	r.AllowWrite(0)
	putU64(r.Bytes(), 41)
	var old1, old2 uint64
	eng.At(0, func() {
		f.Node(0).QP(1).CAS("buf", 0, 41, 42, func(old uint64, err error) {
			if err != nil {
				t.Errorf("cas error: %v", err)
			}
			old1 = old
			f.Node(0).QP(1).CAS("buf", 0, 41, 99, func(o uint64, _ error) { old2 = o })
		})
	})
	eng.Run()
	if old1 != 41 {
		t.Fatalf("first CAS old = %d, want 41", old1)
	}
	if got := readU64(r.Bytes()); got != 42 {
		t.Fatalf("value after CAS = %d, want 42", got)
	}
	if old2 != 42 {
		t.Fatalf("second CAS old = %d, want 42 (compare failed)", old2)
	}
}

func TestCrashedTargetFailsOps(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 8)
	r.AllowWrite(0)
	f.Node(1).Crash()
	var werr, rerr error
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, []byte{1}, func(e error) { werr = e })
		f.Node(0).QP(1).Read("buf", 0, 1, func(_ []byte, e error) { rerr = e })
	})
	eng.Run()
	if !errors.Is(werr, ErrCrashed) || !errors.Is(rerr, ErrCrashed) {
		t.Fatalf("errs = %v, %v; want ErrCrashed", werr, rerr)
	}
}

func TestSuspendedTargetStillServesOneSided(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 8)
	r.AllowWrite(0)
	f.Node(1).Suspend()
	var werr error = errors.New("sentinel")
	var data []byte
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, []byte{7}, func(e error) { werr = e })
	})
	eng.At(50_000, func() {
		f.Node(0).QP(1).Read("buf", 0, 1, func(d []byte, _ error) { data = append([]byte(nil), d...) })
	})
	eng.Run()
	if werr != nil {
		t.Fatalf("write to suspended node failed: %v", werr)
	}
	if len(data) != 1 || data[0] != 7 {
		t.Fatalf("read from suspended node = %v, want [7]", data)
	}
	if r.Bytes()[0] != 7 {
		t.Fatal("suspended node's memory not updated by one-sided write")
	}
}

func TestCrashedSenderPostsNothing(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 8)
	r.AllowWrite(0)
	f.Node(0).Crash()
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, []byte{1}, func(error) {
			t.Error("completion delivered to crashed sender")
		})
	})
	eng.Run()
	if r.Bytes()[0] != 0 {
		t.Fatal("crashed sender's write landed")
	}
}

func TestWriteVisibleBeforeCompletion(t *testing.T) {
	// A one-sided write becomes visible in remote memory one wire latency
	// after posting; the completion arrives a full RTT after. The runtime
	// relies on this gap (remote readers see data the writer hasn't been
	// acked for yet).
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 8)
	r.AllowWrite(0)
	var landAt, ackAt sim.Time
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, []byte{5}, func(error) { ackAt = eng.Now() })
	})
	// Poll remote memory directly (simulating the reader's local view).
	var probe *sim.Ticker
	probe = eng.NewTicker(50, func() {
		if landAt == 0 && r.Bytes()[0] == 5 {
			landAt = eng.Now()
		}
		if eng.Now() > 10_000 {
			probe.Cancel()
		}
	})
	eng.Run()
	if landAt == 0 || ackAt == 0 {
		t.Fatalf("landAt=%d ackAt=%d; both should be observed", landAt, ackAt)
	}
	if landAt >= ackAt {
		t.Fatalf("write landed at %d, ack at %d; want land < ack", landAt, ackAt)
	}
}

func TestStatsCounting(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 16)
	r.AllowWrite(0)
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, []byte{1, 2, 3, 4}, nil)
		f.Node(0).QP(1).Read("buf", 0, 4, func([]byte, error) {})
		f.Node(0).QP(1).CAS("buf", 0, 0, 1, func(uint64, error) {})
	})
	eng.Run()
	s := f.Stats()
	if s.Writes != 1 || s.Reads != 1 || s.CASes != 1 || s.BytesWritten != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	_, f := testFabric(1)
	f.Node(0).Register("x", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	f.Node(0).Register("x", 8)
}

func TestAllowAllWrites(t *testing.T) {
	eng, f := testFabric(3)
	r := f.Node(2).Register("buf", 8)
	r.AllowAllWrites()
	errs := make([]error, 2)
	eng.At(0, func() {
		f.Node(0).QP(2).Write("buf", 0, []byte{1}, func(e error) { errs[0] = e })
		f.Node(1).QP(2).Write("buf", 1, []byte{2}, func(e error) { errs[1] = e })
	})
	eng.Run()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs = %v", errs)
	}
}

func TestWriteOrderingAcrossMixedVerbs(t *testing.T) {
	// RC ordering must hold even when reads and CAS interleave with
	// writes on the same QP: later writes never land before earlier ones.
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 64)
	r.AllowWrite(0)
	var order []byte
	eng.At(0, func() {
		qp := f.Node(0).QP(1)
		qp.Write("buf", 0, []byte{1}, func(error) { order = append(order, 1) })
		qp.Read("buf", 0, 8, func([]byte, error) { order = append(order, 2) })
		qp.CAS("buf", 8, 0, 7, func(uint64, error) { order = append(order, 3) })
		qp.Write("buf", 16, []byte{4}, func(error) { order = append(order, 4) })
	})
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("completions = %v, want 4", order)
	}
	for i, v := range order {
		if v != byte(i+1) {
			t.Fatalf("completion order %v violates RC in-order semantics", order)
		}
	}
	if r.Bytes()[16] != 4 || readU64(r.Bytes()[8:]) != 7 {
		t.Fatal("mixed verbs did not all land")
	}
}

// TestReadPayloadOccupiesWire pins the cost-model fix for QP.Read:
// the response payload of a read streams back at wire bandwidth over the
// QP's in-order channel, so back-to-back large reads must complete at
// least one payload-transfer apart. (The seed model charged the payload
// only to the first read's completion, letting a second read's response
// overtake it and finish 1 ns later — faster than the wire allows.)
func TestReadPayloadOccupiesWire(t *testing.T) {
	eng, f := testFabric(2)
	const n = 100_000 // 20 µs of wire time at 5 B/ns
	f.Node(1).Register("buf", n)
	var t1, t2 sim.Time
	eng.At(0, func() {
		qp := f.Node(0).QP(1)
		qp.Read("buf", 0, n, func([]byte, error) { t1 = eng.Now() })
		qp.Read("buf", 0, n, func([]byte, error) { t2 = eng.Now() })
	})
	eng.Run()
	if t1 == 0 || t2 == 0 {
		t.Fatal("reads did not complete")
	}
	transfer := sim.Duration(n / DefaultLatency().BytesPerNS)
	if gap := sim.Duration(t2 - t1); gap < transfer {
		t.Fatalf("back-to-back reads completed %v apart, want ≥ one payload transfer (%v): "+
			"the response payload must occupy the wire horizon", gap, transfer)
	}
}

// TestCASExtraIsNotWireOccupancy pins the cost-model fix for QP.CAS: the
// remote NIC's atomic latency (CASExtra) delays the CAS response, but it
// must not push the QP's wire-ordering horizon — a write posted right
// after a CAS lands one wire latency after its post, not CASExtra later.
// (The seed model folded CASExtra into lastLand, taxing every subsequent
// verb on the QP.)
func TestCASExtraIsNotWireOccupancy(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 32)
	r.AllowWrite(0)
	lat := DefaultLatency()
	var casDone, writeDone, writeLand sim.Time
	eng.At(0, func() {
		qp := f.Node(0).QP(1)
		qp.CAS("buf", 0, 0, 7, func(uint64, error) { casDone = eng.Now() })
		qp.Write("buf", 16, []byte{5}, func(error) { writeDone = eng.Now() })
	})
	// Probe remote memory to observe the write's landing time.
	var probe *sim.Ticker
	probe = eng.NewTicker(10, func() {
		if writeLand == 0 && r.Bytes()[16] == 5 {
			writeLand = eng.Now()
		}
		if eng.Now() > 20_000 {
			probe.Cancel()
		}
	})
	eng.Run()
	if casDone == 0 || writeDone == 0 || writeLand == 0 {
		t.Fatalf("casDone=%d writeDone=%d writeLand=%d: all should be observed",
			casDone, writeDone, writeLand)
	}
	// The write fires after two post costs; it lands one wire latency later
	// (plus probe granularity). CASExtra must not appear in that path.
	bound := sim.Time(2*lat.PostCost+lat.WireLatency) + 10
	if writeLand > bound {
		t.Fatalf("write after CAS landed at %d, want ≤ %d: CASExtra leaked into the wire horizon",
			writeLand, bound)
	}
	// The CAS itself still pays the atomic's extra latency...
	casMin := sim.Time(lat.PostCost + lat.WireLatency + lat.CASExtra + lat.AckLatency)
	if casDone < casMin {
		t.Fatalf("CAS completed at %d, before the atomic could respond (min %d)", casDone, casMin)
	}
	// ...and RC completion ordering holds: the write's CQE follows the CAS's.
	if writeDone <= casDone {
		t.Fatalf("write completion (%d) overtook the CAS completion (%d): CQE order violated",
			writeDone, casDone)
	}
}

func TestFailTimeoutBoundsCrashError(t *testing.T) {
	eng, f := testFabric(2)
	f.Node(1).Register("buf", 8).AllowWrite(0)
	f.Node(1).Crash()
	var at sim.Time
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, []byte{1}, func(error) { at = eng.Now() })
	})
	eng.Run()
	want := sim.Time(DefaultLatency().FailTimeout)
	if at < want {
		t.Fatalf("crash error at %v, before the failure timeout %v", at, want)
	}
}
