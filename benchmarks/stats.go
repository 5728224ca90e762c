package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rng is splitmix64: every generated input (data cells, literals, slab
// origins, request order, arrival jitter) is drawn from one of these, so a
// seed fixes the inputs independently of the Go release's math/rand.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// inputHash fingerprints the generated input stream: two runs with the same
// seed must print the same hash.
type inputHash struct{ h hash.Hash64 }

func newInputHash() *inputHash { return &inputHash{h: fnv.New64a()} }

func (h *inputHash) str(s string) { h.h.Write([]byte(s)); h.h.Write([]byte{0}) }

func (h *inputHash) ints(xs []int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.h.Write(b[:])
	}
}

func (h *inputHash) floats(xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.h.Write(b[:])
	}
}

func (h *inputHash) sum() string { return strconv.FormatUint(h.h.Sum64(), 16) }

// percentile is the nearest-rank percentile of an ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesBeyond counts the samples strictly above the p-th percentile rank.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// supported reports whether a sample of n supports percentile p: at least
// ten samples must lie beyond it.
func supported(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median averages the middle two of an even-sized sample, as Python's
// statistics.median does.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) (exclusive method) does, which is what
// the driver uses for its spread check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is (q3-q1)/median, the driver's steadiness measure.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads VmHWM of a process from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// selfCPU is the user plus system time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the user plus system time a process has used, from
// /proc/<pid>/stat, whose clock ticks are 10 ms on Linux.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, the 12th and 13th after it.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: utime %q stime %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}
