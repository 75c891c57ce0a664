// Package units provides byte-size constants and the small amount of
// integer bit math shared by every allocation policy: power-of-two
// rounding, alignment, and human-readable size formatting.
//
// All sizes in this repository are int64 byte counts unless a name says
// otherwise (disk "units", the allocators' minimum transfer granule, are
// also counted in int64 but converted explicitly at package boundaries).
package units

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Binary byte-size constants. The paper (and this codebase) use binary
// units throughout: the 24K track of Table 1 is 24576 bytes.
const (
	B  int64 = 1
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// IsPowerOfTwo reports whether v is a positive power of two.
func IsPowerOfTwo(v int64) bool {
	return v > 0 && v&(v-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= v. It panics if v is
// not positive or the result would overflow int64.
func NextPowerOfTwo(v int64) int64 {
	if v <= 0 {
		panic(fmt.Sprintf("units: NextPowerOfTwo of non-positive %d", v))
	}
	if v > 1<<62 {
		panic(fmt.Sprintf("units: NextPowerOfTwo overflow for %d", v))
	}
	if IsPowerOfTwo(v) {
		return v
	}
	return 1 << (64 - bits.LeadingZeros64(uint64(v)))
}

// PrevPowerOfTwo returns the largest power of two <= v. It panics if v is
// not positive.
func PrevPowerOfTwo(v int64) int64 {
	if v <= 0 {
		panic(fmt.Sprintf("units: PrevPowerOfTwo of non-positive %d", v))
	}
	return 1 << (63 - bits.LeadingZeros64(uint64(v)))
}

// Log2 returns log2(v) for a power of two v, panicking otherwise. It is
// used by the buddy allocators to index free lists by size class.
func Log2(v int64) int {
	if !IsPowerOfTwo(v) {
		panic(fmt.Sprintf("units: Log2 of non-power-of-two %d", v))
	}
	return bits.TrailingZeros64(uint64(v))
}

// RoundUp rounds v up to the next multiple of align (align > 0).
func RoundUp(v, align int64) int64 {
	if align <= 0 {
		panic(fmt.Sprintf("units: RoundUp with non-positive alignment %d", align))
	}
	r := v % align
	if r == 0 {
		return v
	}
	return v + align - r
}

// RoundDown rounds v down to the previous multiple of align (align > 0).
func RoundDown(v, align int64) int64 {
	if align <= 0 {
		panic(fmt.Sprintf("units: RoundDown with non-positive alignment %d", align))
	}
	return v - v%align
}

// IsAligned reports whether v is a multiple of align.
func IsAligned(v, align int64) bool {
	if align <= 0 {
		panic(fmt.Sprintf("units: IsAligned with non-positive alignment %d", align))
	}
	return v%align == 0
}

// CeilDiv returns ceil(a/b) for b > 0.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("units: CeilDiv with non-positive divisor %d", b))
	}
	return (a + b - 1) / b
}

// ParseSize reads a byte count written as a non-negative integer with an
// optional K, M or G suffix (binary multiples, either case): "512", "24K",
// "1m". Anything else — a sign, a fraction, trailing junk, a value past
// int64 — is an error rather than a truncated or wrapped number.
func ParseSize(s string) (int64, error) {
	num, mult := strings.ToUpper(strings.TrimSpace(s)), B
	if n := len(num); n > 0 {
		switch num[n-1] {
		case 'K':
			mult = KB
		case 'M':
			mult = MB
		case 'G':
			mult = GB
		}
		if mult != B {
			num = num[:n-1]
		}
	}
	v, err := strconv.ParseUint(num, 10, 63)
	if err != nil {
		if errors.Is(err, strconv.ErrRange) {
			return 0, fmt.Errorf("size %q overflows int64", s)
		}
		return 0, fmt.Errorf("bad size %q (want a non-negative integer with an optional K, M or G suffix)", s)
	}
	if int64(v) > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q overflows int64", s)
	}
	return int64(v) * mult, nil
}

// Format renders a byte count the way the paper does: "8K", "1M", "2.8G".
// Exact multiples print without a fraction; otherwise one decimal is kept.
func Format(v int64) string {
	format := func(val int64, unit int64, suffix string) string {
		if val%unit == 0 {
			return fmt.Sprintf("%d%s", val/unit, suffix)
		}
		return fmt.Sprintf("%.1f%s", float64(val)/float64(unit), suffix)
	}
	switch {
	case v >= GB || v <= -GB:
		return format(v, GB, "G")
	case v >= MB || v <= -MB:
		return format(v, MB, "M")
	case v >= KB || v <= -KB:
		return format(v, KB, "K")
	default:
		return fmt.Sprintf("%dB", v)
	}
}
