package units

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if KB != 1024 || MB != 1024*1024 || GB != 1024*1024*1024 {
		t.Fatalf("binary constants wrong: KB=%d MB=%d GB=%d", KB, MB, GB)
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	cases := []struct {
		v    int64
		want bool
	}{
		{0, false}, {-1, false}, {-8, false},
		{1, true}, {2, true}, {3, false}, {4, true},
		{1023, false}, {1024, true}, {1025, false},
		{1 << 40, true}, {1<<40 + 1, false}, {1 << 62, true},
	}
	for _, c := range cases {
		if got := IsPowerOfTwo(c.v); got != c.want {
			t.Errorf("IsPowerOfTwo(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := []struct{ v, want int64 }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{1000, 1024}, {1024, 1024}, {1025, 2048},
		{1<<40 - 1, 1 << 40}, {1 << 62, 1 << 62},
	}
	for _, c := range cases {
		if got := NextPowerOfTwo(c.v); got != c.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestNextPowerOfTwoPanics(t *testing.T) {
	for _, v := range []int64{0, -1, 1<<62 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NextPowerOfTwo(%d) did not panic", v)
				}
			}()
			NextPowerOfTwo(v)
		}()
	}
}

func TestPrevPowerOfTwo(t *testing.T) {
	cases := []struct{ v, want int64 }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 8},
		{1023, 512}, {1024, 1024}, {1<<62 + 5, 1 << 62},
	}
	for _, c := range cases {
		if got := PrevPowerOfTwo(c.v); got != c.want {
			t.Errorf("PrevPowerOfTwo(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLog2(t *testing.T) {
	for i := 0; i < 63; i++ {
		if got := Log2(int64(1) << i); got != i {
			t.Errorf("Log2(1<<%d) = %d", i, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Log2(3) did not panic")
		}
	}()
	Log2(3)
}

func TestRounding(t *testing.T) {
	cases := []struct{ v, align, up, down int64 }{
		{0, 4, 0, 0},
		{1, 4, 4, 0},
		{4, 4, 4, 4},
		{5, 4, 8, 4},
		{100, 24, 120, 96},
		{96, 24, 96, 96},
	}
	for _, c := range cases {
		if got := RoundUp(c.v, c.align); got != c.up {
			t.Errorf("RoundUp(%d, %d) = %d, want %d", c.v, c.align, got, c.up)
		}
		if got := RoundDown(c.v, c.align); got != c.down {
			t.Errorf("RoundDown(%d, %d) = %d, want %d", c.v, c.align, got, c.down)
		}
	}
}

func TestIsAligned(t *testing.T) {
	if !IsAligned(0, 8) || !IsAligned(16, 8) || IsAligned(12, 8) {
		t.Error("IsAligned basic cases failed")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		v    int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1024, "1K"},
		{8 * KB, "8K"},
		{24 * KB, "24K"},
		{1536, "1.5K"},
		{MB, "1M"},
		{16 * MB, "16M"},
		{GB, "1G"},
		{2*GB + 800*MB, "2.8G"},
	}
	for _, c := range cases {
		if got := Format(c.v); got != c.want {
			t.Errorf("Format(%d) = %q, want %q", c.v, got, c.want)
		}
	}
}

// Property: NextPowerOfTwo(v) is a power of two, >= v, and minimal.
func TestNextPowerOfTwoProperty(t *testing.T) {
	f := func(raw int64) bool {
		v := raw%(1<<50) + 1
		if v <= 0 {
			v = -v + 1
		}
		p := NextPowerOfTwo(v)
		return IsPowerOfTwo(p) && p >= v && (p == 1 || p/2 < v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RoundUp/RoundDown bracket v by less than one alignment unit.
func TestRoundingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << 40)
		align := rng.Int63n(1<<20) + 1
		up, down := RoundUp(v, align), RoundDown(v, align)
		if down > v || v > up {
			t.Fatalf("bracket violated: %d <= %d <= %d (align %d)", down, v, up, align)
		}
		if up-down != 0 && up-down != align {
			t.Fatalf("gap %d not 0 or align %d", up-down, align)
		}
		if !IsAligned(up, align) || !IsAligned(down, align) {
			t.Fatalf("results not aligned: up=%d down=%d align=%d", up, down, align)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"4K", 4 * KB, true},
		{"4k", 4 * KB, true},
		{"16K", 16 * KB, true},
		{"1M", MB, true},
		{"2G", 2 * GB, true},
		{"512", 512, true},
		{"0", 0, true},
		{" 24K ", 24 * KB, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"8589934591G", 8589934591 * GB, true},
		{"", 0, false},
		{"K", 0, false},
		{"x4K", 0, false},
		// Each of these once parsed as a prefix, a negative, or a wrapped
		// number instead of failing.
		{"4.5K", 0, false},
		{"4xK", 0, false},
		{"-24K", 0, false},
		{"+24K", 0, false},
		{"24KB", 0, false},
		{"9223372036854775808", 0, false},
		{"8589934592G", 0, false},
		{"99999999999999999999K", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseSize(%q) = %d, want an error", c.in, got)
		}
	}
}
