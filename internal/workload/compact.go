package workload

import "fmt"

// Compaction merge policies.
const (
	// CompactTiered merges a tier's segments into one segment of the next
	// tier whenever the tier reaches Fanout segments (size-tiered).
	CompactTiered = "tiered"
	// CompactLeveled keeps level L at no more than Fanout^(L+1) segments,
	// merging one victim segment down into the next level whenever a level
	// overflows (leveled).
	CompactLeveled = "leveled"
)

// Compaction arms the log-structured workload overlay: the foreground
// stream appends fixed-size segments sequentially (a write-optimized log,
// the design the paper's read-optimized systems are usually contrasted
// with), and a background merge-compaction engine folds segments together
// under a pluggable policy. Both the sequential segment writes and the
// merge I/O go through the real per-drive queues — merges as internal
// maintenance traffic, exactly like the rebuild engine — so compaction
// pressure is visible in queue waits and drive busy time rather than
// modeled abstractly.
type Compaction struct {
	// Policy is the merge policy: "tiered" (default) or "leveled".
	Policy string `json:"policy,omitempty"`
	// SegmentBytes is the log segment size (default 512K).
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
	// FlushEveryMS is the foreground segment-write cadence in simulated
	// milliseconds (default 250).
	FlushEveryMS float64 `json:"flush_every_ms,omitempty"`
	// Fanout is the merge width: segments per tiered merge, or the level
	// size ratio for leveled (default 4).
	Fanout int `json:"fanout,omitempty"`
}

// EffectivePolicy resolves the default merge policy.
func (c *Compaction) EffectivePolicy() string {
	if c.Policy == "" {
		return CompactTiered
	}
	return c.Policy
}

// EffectiveSegmentBytes resolves the default segment size.
func (c *Compaction) EffectiveSegmentBytes() int64 {
	if c.SegmentBytes > 0 {
		return c.SegmentBytes
	}
	return 512 << 10
}

// EffectiveFlushEveryMS resolves the default flush cadence.
func (c *Compaction) EffectiveFlushEveryMS() float64 {
	if c.FlushEveryMS > 0 {
		return c.FlushEveryMS
	}
	return 250
}

// EffectiveFanout resolves the default merge width.
func (c *Compaction) EffectiveFanout() int {
	if c.Fanout > 0 {
		return c.Fanout
	}
	return 4
}

// Validate checks the compaction block.
func (c *Compaction) Validate(w *Workload) error {
	switch c.EffectivePolicy() {
	case CompactTiered, CompactLeveled:
	default:
		return fmt.Errorf("workload %q: unknown compaction policy %q (want %s or %s)",
			w.Name, c.Policy, CompactTiered, CompactLeveled)
	}
	if c.SegmentBytes < 0 {
		return fmt.Errorf("workload %q: compaction segment_bytes %d is negative", w.Name, c.SegmentBytes)
	}
	if !(c.FlushEveryMS >= 0) { // also rejects NaN
		return fmt.Errorf("workload %q: compaction flush_every_ms %g must be >= 0", w.Name, c.FlushEveryMS)
	}
	if c.Fanout < 0 || c.Fanout == 1 {
		return fmt.Errorf("workload %q: compaction fanout %d must be 0 (default) or >= 2", w.Name, c.Fanout)
	}
	return nil
}

// Key renders the block's identity for the runner's spec key (append-only
// vocabulary; see runner.Spec.Key).
func (c *Compaction) Key() string {
	return fmt.Sprintf("policy=%s|seg=%d|flush=%g|fanout=%d",
		c.EffectivePolicy(), c.EffectiveSegmentBytes(), c.EffectiveFlushEveryMS(), c.EffectiveFanout())
}
