package core

import (
	"bufio"
	"fmt"
	"io"

	"rofs/internal/disk"
)

// eventTrace writes the event trace that Config.TraceWriter receives, the
// one record of a run's simulated events (the metrics bundle is its
// summary). Every event is one tab-separated line,
//
//	<time-ms>\t<kind>\t<detail>\n
//
// with the simulated time to three decimals. There are two kinds:
//
//	seg  a drive starts servicing a segment: drive, r/w, byte offset and
//	     length within the drive, service time, the queue wait before
//	     it, and the service time's seek, rotation and transfer parts
//	     (ms)
//	op   an operation completes: its name, file type, the file's length
//	     after it, and its latency (ms)
//
// The bufio.Writer keeps the first write error: later events are dropped
// and flush returns it.
type eventTrace struct{ w *bufio.Writer }

func newEventTrace(w io.Writer) *eventTrace { return &eventTrace{bufio.NewWriter(w)} }

func (t *eventTrace) seg(sp disk.Span) {
	op := "r"
	if sp.Write {
		op = "w"
	}
	fmt.Fprintf(t.w, "%.3f\tseg\tdisk=%d %s start=%d n=%d svc=%.3f wait=%.3f seek=%.3f rot=%.3f xfer=%.3f\n",
		sp.StartMS, sp.Disk, op, sp.Start, sp.N, sp.ServiceMS, sp.WaitMS, sp.SeekMS, sp.RotMS, sp.XferMS)
}

func (t *eventTrace) op(nowMS float64, name, fileType string, length int64, latMS float64) {
	fmt.Fprintf(t.w, "%.3f\top\t%s type=%s len=%d lat=%.3f\n", nowMS, name, fileType, length, latMS)
}

// flush writes out the buffered events and returns the first write
// error. A nil trace (tracing off) has nothing to flush.
func (t *eventTrace) flush() error {
	if t == nil {
		return nil
	}
	return t.w.Flush()
}
