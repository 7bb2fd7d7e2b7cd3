package sim

import (
	"fmt"
	"hash/fnv"
)

// Fingerprinting is the identity currency of the harness: differential
// tests hash configurations to prove backend/worker invariance, and the
// campaign layer hashes resolved evaluation cells to key its resumable
// checkpoint journal. Everything uses FNV-1a over a stable rendering, so
// the same logical value fingerprints identically across processes and
// runs.

// FNV-1a parameters (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Fingerprint64 hashes a byte rendering with FNV-1a.
func Fingerprint64(data []byte) uint64 {
	h := fnvOffset64
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// FingerprintConfig hashes a configuration via its %v rendering — the
// cross-construction identity the differential and invariance tests
// compare across backends and worker counts. Integer-state
// configurations (every flat-codec protocol, and the networked
// runtime's per-round commit) take an fmt-free path that folds the
// identical rendering into the hash byte by byte — no boxing, no
// allocation; TestFingerprintConfigFastPath pins the two paths to the
// same value.
func FingerprintConfig[S comparable](c Config[S]) uint64 {
	if ints, ok := any(c).(Config[int]); ok {
		h := fnvAddByte(fnvOffset64, '[')
		for i, v := range ints {
			if i > 0 {
				h = fnvAddByte(h, ' ')
			}
			h = fnvAddInt(h, int64(v))
		}
		return fnvAddByte(h, ']')
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", c)
	return h.Sum64()
}

func fnvAddByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvAddInt folds v's decimal rendering (what %v prints for an int)
// into the hash. Values in [0, 10⁸) — every bounded protocol's states on
// the rings the harness runs, SSME's clocks included — take a fast path
// that folds the same digits from constant divisions and a digit-pair
// table, with no buffer and no per-digit loop.
func fnvAddInt(h uint64, v int64) uint64 {
	if v >= 0 && v < 1e8 {
		u := uint32(v)
		if u < 1e4 {
			return fnvAddDigits(h, u)
		}
		h = fnvAddDigits(h, u/1e4)
		lo := u % 1e4
		hi2, lo2 := lo/100*2, lo%100*2
		h = fnvAddByte(h, digitPairs[hi2])
		h = fnvAddByte(h, digitPairs[hi2+1])
		h = fnvAddByte(h, digitPairs[lo2])
		return fnvAddByte(h, digitPairs[lo2+1])
	}
	var buf [20]byte
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if v < 0 {
		i--
		buf[i] = '-'
	}
	for _, b := range buf[i:] {
		h = fnvAddByte(h, b)
	}
	return h
}

// fnvAddDigits folds u < 10⁴ without leading zeros.
func fnvAddDigits(h uint64, u uint32) uint64 {
	switch {
	case u >= 1000:
		h = fnvAddByte(h, byte('0'+u/1000))
		fallthrough
	case u >= 100:
		h = fnvAddByte(h, byte('0'+u/100%10))
		fallthrough
	case u >= 10:
		h = fnvAddByte(h, byte('0'+u/10%10))
	}
	return fnvAddByte(h, byte('0'+u%10))
}

// digitPairs holds "00" through "99": bytes 2k and 2k+1 render k.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
