package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Trace file grammar (see EXPERIMENTS.md "Aging, traces, and compaction").
//
// A trace file is line-oriented text. Blank lines and lines starting with
// '#' are skipped. Two record forms are accepted and may not be mixed with
// surprising results (the form is detected per line):
//
//   simple:   <at_ms> [op [type [client]]]
//       at_ms   non-negative finite float, milliseconds, non-decreasing
//       op      read | write | extend | dealloc | "-" (draw from the mix)
//       type    a workload file-type name, or "-" (draw from the mix)
//       client  non-negative integer client key (affinity routing)
//
//   blkparse: <maj,min> <cpu> <seq> <time_s> <pid> <action> <rwbs> <sector> [+ <nsectors> ...]
//       detected by the comma in the first column (the blktrace/blkparse
//       default output format). Only queue records (action "Q") are kept;
//       time is seconds and becomes at_ms, pid becomes the client key, and
//       the first R/W/D of rwbs (after any leading F for flush) maps to
//       read/write/dealloc. The sector and length columns are validated
//       (non-negative, no int64 byte-offset overflow) and then dropped —
//       the replay engine draws sizes from the workload's own mix.
//
// ExportTrace writes the canonical simple form; ImportTrace(ExportTrace(t))
// reproduces t exactly (the round-trip property test pins this).

// maxTraceLine bounds one line of a trace file; longer lines are malformed.
const maxTraceLine = 1 << 20

// ImportTrace parses a trace file into a trace-mode Arrivals block.
// Errors name the 1-based line they occurred on.
func ImportTrace(r io.Reader) (*Arrivals, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxTraceLine)
	var ops []TraceOp
	last := 0.0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		var (
			op  TraceOp
			ok  bool
			err error
		)
		if strings.Contains(fields[0], ",") {
			op, ok, err = parseBlkparse(fields)
		} else {
			op, err = parseSimple(fields)
			ok = true
		}
		if err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		if !ok {
			continue // blkparse record with a non-queue action
		}
		if op.AtMS < last {
			return nil, fmt.Errorf("trace line %d: timestamp %g ms before previous %g ms",
				line, op.AtMS, last)
		}
		last = op.AtMS
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("trace line %d: line longer than %d bytes", line+1, maxTraceLine)
		}
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("trace: no operations")
	}
	return &Arrivals{Mode: ArrivalsTrace, Trace: ops}, nil
}

// parseAtMS parses a millisecond timestamp column.
func parseAtMS(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad timestamp %q", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("timestamp %q is not finite", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative timestamp %g", v)
	}
	return v, nil
}

// parseSimple parses one record of the simple form.
func parseSimple(fields []string) (TraceOp, error) {
	if len(fields) > 4 {
		return TraceOp{}, fmt.Errorf("too many columns (%d, want at most 4: at_ms op type client)", len(fields))
	}
	at, err := parseAtMS(fields[0])
	if err != nil {
		return TraceOp{}, err
	}
	op := TraceOp{AtMS: at}
	if len(fields) > 1 && fields[1] != "-" {
		switch fields[1] {
		case "read", "write", "extend", "dealloc":
			op.Op = fields[1]
		default:
			return TraceOp{}, fmt.Errorf("unknown op %q (want read, write, extend, dealloc, or -)", fields[1])
		}
	}
	if len(fields) > 2 && fields[2] != "-" {
		if strings.HasPrefix(fields[2], "#") {
			return TraceOp{}, fmt.Errorf("bad type %q (cannot start with #)", fields[2])
		}
		op.Type = fields[2]
	}
	if len(fields) > 3 {
		c, err := strconv.Atoi(fields[3])
		if err != nil || c < 0 {
			return TraceOp{}, fmt.Errorf("bad client %q (want a non-negative integer)", fields[3])
		}
		op.Client = c
	}
	return op, nil
}

// parseBlkparse parses one blkparse-format record. ok is false for records
// that are well formed but filtered out (non-queue actions, no-payload rwbs).
func parseBlkparse(fields []string) (op TraceOp, ok bool, err error) {
	if len(fields) < 9 {
		return TraceOp{}, false, fmt.Errorf("blkparse record has %d columns, want at least 9", len(fields))
	}
	sec, err := strconv.ParseFloat(fields[3], 64)
	if err != nil || math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
		return TraceOp{}, false, fmt.Errorf("bad blkparse time %q", fields[3])
	}
	pid, err := strconv.Atoi(fields[4])
	if err != nil || pid < 0 {
		return TraceOp{}, false, fmt.Errorf("bad blkparse pid %q", fields[4])
	}
	sector, err := strconv.ParseInt(fields[7], 10, 64)
	if err != nil || sector < 0 {
		return TraceOp{}, false, fmt.Errorf("bad blkparse sector %q", fields[7])
	}
	if sector > math.MaxInt64/512 {
		return TraceOp{}, false, fmt.Errorf("blkparse sector %d overflows a byte offset", sector)
	}
	if len(fields) >= 10 {
		if fields[8] != "+" {
			return TraceOp{}, false, fmt.Errorf("bad blkparse length marker %q (want +)", fields[8])
		}
		nsec, err := strconv.ParseInt(fields[9], 10, 64)
		if err != nil || nsec < 0 {
			return TraceOp{}, false, fmt.Errorf("bad blkparse sector count %q", fields[9])
		}
		if nsec > math.MaxInt64/512 || sector*512 > math.MaxInt64-nsec*512 {
			return TraceOp{}, false, fmt.Errorf("blkparse span %d+%d sectors overflows a byte offset", sector, nsec)
		}
	}
	if fields[5] != "Q" {
		return TraceOp{}, false, nil // keep only queue records
	}
	rwbs := strings.TrimPrefix(fields[6], "F")
	if rwbs == "" {
		return TraceOp{}, false, nil // pure flush: no data payload
	}
	var kind string
	switch rwbs[0] {
	case 'R':
		kind = "read"
	case 'W':
		kind = "write"
	case 'D':
		kind = "dealloc"
	case 'N':
		return TraceOp{}, false, nil // no payload
	default:
		return TraceOp{}, false, fmt.Errorf("unknown blkparse rwbs %q", fields[6])
	}
	ms := sec * 1000
	if math.IsInf(ms, 0) {
		return TraceOp{}, false, fmt.Errorf("blkparse time %g s overflows milliseconds", sec)
	}
	return TraceOp{AtMS: ms, Op: kind, Client: pid}, true, nil
}

// ExportTrace writes the arrivals' trace in the canonical simple form.
// Importing the output reproduces the trace exactly.
func ExportTrace(w io.Writer, a *Arrivals) error {
	if a == nil || len(a.Trace) == 0 {
		return fmt.Errorf("trace: nothing to export")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# rofs arrival trace: %d operations\n", len(a.Trace))
	fmt.Fprintf(bw, "# at_ms op type client\n")
	for i := range a.Trace {
		op := &a.Trace[i]
		if err := exportable(op.Op, "op"); err != nil {
			return fmt.Errorf("trace op %d: %w", i, err)
		}
		if err := exportable(op.Type, "type"); err != nil {
			return fmt.Errorf("trace op %d: %w", i, err)
		}
		fmt.Fprintf(bw, "%g %s %s %d\n", op.AtMS, orDash(op.Op), orDash(op.Type), op.Client)
	}
	return bw.Flush()
}

// exportable rejects field values the line grammar cannot carry.
func exportable(s, what string) error {
	if s == "-" || strings.HasPrefix(s, "#") || strings.ContainsAny(s, " \t\r\n") {
		return fmt.Errorf("%s %q cannot be written in trace file format", what, s)
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// LoadTraceFile reads and parses a trace file from disk.
func LoadTraceFile(path string) (*Arrivals, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := ImportTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
