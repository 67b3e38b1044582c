package disk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"essio/internal/sim"
)

func newDisk(t *testing.T) (*sim.Engine, *Disk) {
	t.Helper()
	e := sim.NewEngine(1)
	t.Cleanup(e.Close)
	return e, New(e, DefaultParams())
}

func TestDefaultParamsCapacity(t *testing.T) {
	p := DefaultParams()
	if got := int64(p.Sectors) * SectorSize; got != 500*1024*1024*1048576/1048576 && got != 524288000 {
		t.Fatalf("capacity = %d bytes, want 500 MB (524288000)", got)
	}
}

func TestServiceTimePositiveAndBounded(t *testing.T) {
	_, d := newDisk(t)
	dur, err := d.Service(1000, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatalf("service time %v not positive", dur)
	}
	// One 1 KB request must finish well under 100 ms on this class of disk.
	if dur > 100*sim.Millisecond {
		t.Fatalf("service time %v implausibly large", dur)
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	e, d := newDisk(t)
	_ = e
	var seq sim.Duration
	for i := 0; i < 100; i++ {
		dur, err := d.Service(uint32(5000+2*i), 2, false)
		if err != nil {
			t.Fatal(err)
		}
		seq += dur
	}
	_, d2 := newDisk(t)
	rng := rand.New(rand.NewSource(9))
	var rnd sim.Duration
	for i := 0; i < 100; i++ {
		dur, err := d2.Service(rng.Uint32()%(d2.Sectors()-2), 2, false)
		if err != nil {
			t.Fatal(err)
		}
		rnd += dur
	}
	if seq >= rnd {
		t.Fatalf("sequential %v not faster than random %v", seq, rnd)
	}
}

func TestLargerRequestsAmortizeOverhead(t *testing.T) {
	// 32 sectors in one request must be cheaper than 16 requests of 2.
	_, d := newDisk(t)
	one, err := d.Service(10000, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	_, d2 := newDisk(t)
	var many sim.Duration
	for i := 0; i < 16; i++ {
		dur, err := d2.Service(uint32(10000+2*i), 2, false)
		if err != nil {
			t.Fatal(err)
		}
		many += dur
	}
	if one >= many {
		t.Fatalf("one big request %v not cheaper than many small %v", one, many)
	}
}

func TestServiceErrors(t *testing.T) {
	_, d := newDisk(t)
	if _, err := d.Service(0, 0, false); err == nil {
		t.Fatal("want error for zero count")
	}
	if _, err := d.Service(d.Sectors()-1, 2, false); err == nil {
		t.Fatal("want error past capacity")
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, d := newDisk(t)
	if _, err := d.Service(0, 2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Service(100, 4, true); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("Reads=%d Writes=%d", s.Reads, s.Writes)
	}
	if s.SectorsRead != 2 || s.SectorsWritten != 4 {
		t.Fatalf("SectorsRead=%d SectorsWritten=%d", s.SectorsRead, s.SectorsWritten)
	}
	if s.BusyTime <= 0 || s.TransferTime <= 0 {
		t.Fatalf("BusyTime=%v TransferTime=%v", s.BusyTime, s.TransferTime)
	}
	if s.BusyTime < s.SeekTime+s.RotTime+s.TransferTime {
		t.Fatal("BusyTime must include seek+rot+transfer")
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	_, d := newDisk(t)
	buf := make([]byte, 2*SectorSize)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := d.ReadAt(42, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %x, want 0", i, b)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, d := newDisk(t)
	in := make([]byte, 3*SectorSize)
	rng := rand.New(rand.NewSource(3))
	rng.Read(in)
	if err := d.WriteAt(500, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := d.ReadAt(500, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("data round trip mismatch")
	}
	if d.StoredSectors() != 3 {
		t.Fatalf("StoredSectors = %d, want 3", d.StoredSectors())
	}
}

func TestPartialOverwrite(t *testing.T) {
	_, d := newDisk(t)
	a := bytes.Repeat([]byte{0xAA}, 2*SectorSize)
	if err := d.WriteAt(10, a); err != nil {
		t.Fatal(err)
	}
	b := bytes.Repeat([]byte{0xBB}, SectorSize)
	if err := d.WriteAt(11, b); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 2*SectorSize)
	if err := d.ReadAt(10, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAA || out[SectorSize] != 0xBB {
		t.Fatalf("overwrite failed: %x %x", out[0], out[SectorSize])
	}
}

func TestZeroOverwriteDropsStoredSector(t *testing.T) {
	_, d := newDisk(t)
	if err := d.WriteAt(40, bytes.Repeat([]byte{0x5C}, 2*SectorSize)); err != nil {
		t.Fatal(err)
	}
	if d.StoredSectors() != 2 {
		t.Fatalf("StoredSectors = %d after a nonzero write, want 2", d.StoredSectors())
	}
	if err := d.WriteAt(41, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	if d.StoredSectors() != 1 {
		t.Fatalf("StoredSectors = %d after zeroing one sector, want 1", d.StoredSectors())
	}
	out := make([]byte, 2*SectorSize)
	if err := d.ReadAt(40, out); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0x5C}, SectorSize), make([]byte, SectorSize)...)
	if !bytes.Equal(out, want) {
		t.Fatal("zeroed sector does not read back as zeros next to its untouched neighbor")
	}
}

func TestMixedWriteStoresOnlyNonzeroSectors(t *testing.T) {
	_, d := newDisk(t)
	// Sectors 0 and 2 zero, 1 and 3 nonzero; one byte of sector 3 is
	// enough to keep it.
	in := make([]byte, 4*SectorSize)
	for i := SectorSize; i < 2*SectorSize; i++ {
		in[i] = byte(i)
	}
	in[4*SectorSize-1] = 0xFF
	if err := d.WriteAt(900, in); err != nil {
		t.Fatal(err)
	}
	if d.StoredSectors() != 2 {
		t.Fatalf("StoredSectors = %d, want 2 (only the nonzero sectors)", d.StoredSectors())
	}
	out := bytes.Repeat([]byte{0xEE}, len(in))
	if err := d.ReadAt(900, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("mixed zero/nonzero write does not read back unchanged")
	}
}

func TestUnalignedBuffersRejected(t *testing.T) {
	_, d := newDisk(t)
	if err := d.ReadAt(0, make([]byte, 100)); err == nil {
		t.Fatal("want error for unaligned read")
	}
	if err := d.WriteAt(0, make([]byte, 100)); err == nil {
		t.Fatal("want error for unaligned write")
	}
}

func TestBoundsChecks(t *testing.T) {
	_, d := newDisk(t)
	buf := make([]byte, SectorSize)
	if err := d.ReadAt(d.Sectors(), buf); err == nil {
		t.Fatal("want error reading past end")
	}
	if err := d.WriteAt(d.Sectors()-1+1, buf); err == nil {
		t.Fatal("want error writing past end")
	}
}

func TestDeterministicServiceTimes(t *testing.T) {
	run := func() []sim.Duration {
		e := sim.NewEngine(77)
		defer e.Close()
		d := New(e, DefaultParams())
		var out []sim.Duration
		for i := 0; i < 50; i++ {
			sector := uint32((i * 73331) % int(d.Sectors()-8))
			dur, err := d.Service(sector, 8, i%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, dur)
			e.Run(e.Now().Add(dur))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestQuickDataRoundTrip(t *testing.T) {
	e := sim.NewEngine(5)
	defer e.Close()
	d := New(e, DefaultParams())
	f := func(sector uint32, nsec uint8, fill byte) bool {
		n := int(nsec%8) + 1
		sector %= d.Sectors() - uint32(n)
		in := bytes.Repeat([]byte{fill}, n*SectorSize)
		if err := d.WriteAt(sector, in); err != nil {
			return false
		}
		out := make([]byte, len(in))
		if err := d.ReadAt(sector, out); err != nil {
			return false
		}
		return bytes.Equal(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickServiceMonotoneInCount(t *testing.T) {
	// For a fixed start sector and head state, transferring more sectors
	// never takes less time.
	f := func(nsecSmall, extra uint8) bool {
		small := int(nsecSmall%32) + 1
		big := small + int(extra%32) + 1
		mk := func(n int) sim.Duration {
			e := sim.NewEngine(11)
			defer e.Close()
			d := New(e, DefaultParams())
			dur, err := d.Service(20000, n, false)
			if err != nil {
				return -1
			}
			return dur
		}
		return mk(small) <= mk(big)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConstruction(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	for _, p := range []Params{
		{},
		{Sectors: 100, SectorsPerTrack: 0, Heads: 1, RPM: 100, TransferRate: 1},
		{Sectors: 100, SectorsPerTrack: 10, Heads: 1, RPM: 0, TransferRate: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", p)
				}
			}()
			New(e, p)
		}()
	}
}

func TestBadSectorInjection(t *testing.T) {
	_, d := newDisk(t)
	d.MarkBad(1000, 10)
	// Overlapping requests fail.
	if _, err := d.Service(1005, 2, false); err == nil {
		t.Fatal("want media error inside bad range")
	}
	if _, err := d.Service(995, 12, true); err == nil {
		t.Fatal("want media error spanning bad range")
	}
	// Adjacent requests succeed.
	if _, err := d.Service(990, 10, false); err != nil {
		t.Fatalf("request before bad range failed: %v", err)
	}
	if _, err := d.Service(1010, 4, false); err != nil {
		t.Fatalf("request after bad range failed: %v", err)
	}
	if d.Stats().MediaErrors != 2 {
		t.Fatalf("MediaErrors = %d", d.Stats().MediaErrors)
	}
	d.ClearBad()
	if _, err := d.Service(1005, 2, false); err != nil {
		t.Fatalf("cleared defect still fails: %v", err)
	}
}
