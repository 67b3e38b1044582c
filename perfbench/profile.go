package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuBuckets are the profile-share metrics, in report order. A sample's
// bucket is its innermost essio/internal/<module> frame, unless a runtime
// GC/allocation or scheduler frame sits below that frame; samples with no
// such frame go to net_http when net/http is on the stack, else other.
var cpuBuckets = []string{
	"sim", "cluster", "kernel", "buffercache", "extfs", "vm", "vfs", "blockio",
	"driver", "disk", "ethernet", "pvm", "apps", "apps.ppm", "apps.nbody",
	"apps.wavelet", "trace", "analysis", "characterize", "model", "synth",
	"essd", "obs", "iotrace", "experiment",
	"runtime.gc", "runtime.sched", "net_http", "other",
}

// cpuProfile records a CPU profile of this process while fn runs and
// returns each bucket's share of the samples plus the sample count.
func cpuProfile(fn func()) (map[string]float64, int, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("start cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	counts, err := bucketProfile(&buf)
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, total, nil
}

// bucketProfile decodes a gzipped profile.proto and counts samples per
// bucket. Only the fields needed to name each sample's frames are read.
func bucketProfile(r io.Reader) (map[string]int, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64 // samples, then CPU nanoseconds
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := make(map[string]int)
	for _, s := range samples {
		var frames []string // innermost first
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		if len(s.values) > 0 {
			counts[classify(frames)] += int(s.values[0])
		}
	}
	return counts, nil
}

// classify names the bucket of one stack, given innermost frame first.
func classify(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "essio/internal/") {
			m := moduleOf(strings.TrimPrefix(f, "essio/internal/"))
			for _, b := range cpuBuckets {
				if b == m {
					return m
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "runtime.") {
			if rt := runtimeBucket(strings.TrimPrefix(f, "runtime.")); rt != "" {
				return rt
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/http.") {
			return "net_http"
		}
	}
	return "other"
}

// moduleOf maps "apps/ppm.sweep1D" to "apps.ppm": the package path below
// essio/internal, with the function part cut at the first dot after the
// last slash.
func moduleOf(f string) string {
	slash := strings.LastIndexByte(f, '/')
	if dot := strings.IndexByte(f[slash+1:], '.'); dot >= 0 {
		f = f[:slash+1+dot]
	}
	return strings.ReplaceAll(f, "/", ".")
}

// runtimeBucket assigns a runtime function to the GC/allocation bucket,
// the scheduler bucket (goroutine switches, futexes, channel operations),
// or neither (memmove and the like, which count for their caller).
func runtimeBucket(fn string) string {
	for _, p := range []string{"gc", "mallocgc", "scanobject", "greyobject", "markroot",
		"sweep", "(*mheap)", "(*mspan)", "(*mcache)", "(*mcentral)", "(*sweepLocked)",
		"wbBuf", "bgscavenge", "(*scavenger", "findObject", "heapBits", "newobject",
		"makeslice", "growslice", "(*gcWork)", "(*gcControllerState)", "memclrNoHeapPointers",
		"bgsweep", "_GC"} {
		if strings.HasPrefix(fn, p) {
			return "runtime.gc"
		}
	}
	for _, p := range []string{"schedule", "findRunnable", "park_m", "futex", "chansend",
		"chanrecv", "selectgo", "gopark", "goready", "ready", "mcall", "notesleep",
		"notewakeup", "stopm", "startm", "wakep", "runqgrab", "runqsteal", "lock2", "unlock2",
		"usleep", "osyield", "netpoll", "goexit", "gosched", "Gosched", "semacquire",
		"semrelease", "(*waitq)", "send", "recv", "execute", "exitsyscall", "entersyscall",
		"handoffp", "checkTimers", "stealWork", "resetspinning", "procyield"} {
		if strings.HasPrefix(fn, p) {
			return "runtime.sched"
		}
	}
	return ""
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// varint (v, data nil) or packed (data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
