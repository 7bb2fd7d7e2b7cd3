package sim

// The fingerprint is an identity: journals, differential tests and the
// networked runtime's divergence check all compare raw 64-bit values,
// so the fmt-free fast path for integer configurations must produce
// exactly what the reflective rendering always produced — these tests
// hold the two together bit for bit.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// fingerprintReference is the original implementation: FNV-1a over the
// fmt %v rendering.
func fingerprintReference[S comparable](c Config[S]) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", c)
	return h.Sum64()
}

func TestFingerprintConfigFastPath(t *testing.T) {
	cases := []Config[int]{
		nil,
		{},
		{0},
		{-1},
		{7},
		{0, 0, 0},
		{1, 2, 3, 4, 5},
		{-5, 10, -15, 1 << 40},
		{math.MaxInt64, math.MinInt64},
		// Digit-count boundaries, alone and in a row: both sides of the
		// fast path's 10⁴ split and its 10⁸ limit, and the slow path.
		{0}, {9}, {10}, {99}, {100}, {999}, {1000}, {9999}, {10000},
		{10001}, {99999999}, {100000000}, {-1}, {math.MinInt64}, {math.MaxInt64},
		{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 10001, 1000000, 12345678,
			99999999, 100000000, -1, -10000, math.MinInt64, math.MaxInt64},
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		n := rng.Intn(64)
		c := make(Config[int], n)
		for j := range c {
			c[j] = int(rng.Int63n(1<<20)) - 1<<19
		}
		cases = append(cases, c)
	}
	for i := 0; i < 50; i++ {
		c := make(Config[int], 1+rng.Intn(64))
		for j := range c {
			c[j] = int(rng.Int63n(2e8)) // straddles the 10⁸ limit
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		if got, want := FingerprintConfig(c), fingerprintReference(c); got != want {
			t.Errorf("FingerprintConfig(%v) = %016x, reference %016x", c, got, want)
		}
	}
}

func TestFingerprintConfigNonIntStates(t *testing.T) {
	c := Config[string]{"alpha", "beta"}
	if got, want := FingerprintConfig(c), fingerprintReference(c); got != want {
		t.Errorf("FingerprintConfig(%v) = %016x, reference %016x", c, got, want)
	}
}

func TestFingerprint64MatchesFNV(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("x"), []byte("specstab"), make([]byte, 300)} {
		h := fnv.New64a()
		h.Write(data)
		if got, want := Fingerprint64(data), h.Sum64(); got != want {
			t.Errorf("Fingerprint64(%q) = %016x, fnv %016x", data, got, want)
		}
	}
}
