package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// WriteChromeJSON renders the trace in Chrome trace-event format —
// the `{"traceEvents": [...]}` JSON that chrome://tracing and
// Perfetto load directly. Every span becomes one complete ("X")
// event with microsecond ts/dur relative to the trace start; attrs,
// the span id and the parent id land in args.
//
// The viewer nests events on a (pid, tid) track purely by time
// containment, so concurrent sibling spans (worker-pool region
// evaluations) would corrupt the rendering
// if they shared a track. Spans are therefore assigned to "lanes"
// (tids) greedily: each span takes its parent's lane when that lane
// is free over the span's interval, otherwise the first free lane —
// so a single-threaded trace stays on one track and parallel stages
// fan out across exactly as many tracks as their true concurrency.
func (t *Trace) WriteChromeJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`)
		return err
	}
	spans := t.Snapshot()
	base := t.Start()
	lanes := assignLanes(spans)

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	bw.WriteString(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":`)
	writeJSONString(bw, "acquire "+t.id)
	bw.WriteString(`}}`)
	for i := range spans {
		s := &spans[i]
		bw.WriteByte(',')
		writeChromeEvent(bw, s, base, lanes[i])
	}
	bw.WriteString(`]}`)
	return bw.Flush()
}

func writeChromeEvent(bw *bufio.Writer, s *TraceSpan, base time.Time, lane int) {
	end := s.End
	if end.IsZero() {
		end = s.Start // still-open span renders as zero-width
	}
	bw.WriteString(`{"ph":"X","pid":1,"tid":`)
	bw.WriteString(strconv.Itoa(lane))
	bw.WriteString(`,"name":`)
	writeJSONString(bw, s.Name)
	bw.WriteString(`,"ts":`)
	writeMicros(bw, s.Start.Sub(base))
	bw.WriteString(`,"dur":`)
	writeMicros(bw, end.Sub(s.Start))
	bw.WriteString(`,"args":{"span_id":`)
	bw.WriteString(strconv.FormatUint(uint64(s.ID), 10))
	bw.WriteString(`,"parent_id":`)
	bw.WriteString(strconv.FormatUint(uint64(s.Parent), 10))
	for _, a := range s.Attrs {
		bw.WriteByte(',')
		writeJSONString(bw, a.Key)
		bw.WriteByte(':')
		switch a.Kind {
		case AttrString:
			writeJSONString(bw, a.str)
		case AttrInt:
			bw.WriteString(strconv.FormatInt(a.i, 10))
		case AttrFloat:
			if math.IsNaN(a.num) || math.IsInf(a.num, 0) {
				writeJSONString(bw, formatFloat(a.num)) // NaN/Inf are not JSON numbers
			} else {
				bw.WriteString(strconv.FormatFloat(a.num, 'g', -1, 64))
			}
		default:
			bw.WriteString(strconv.FormatBool(a.i != 0))
		}
	}
	bw.WriteString(`}}`)
}

// writeMicros renders a duration as fractional microseconds (the
// trace-event time unit), keeping sub-microsecond FakeClock steps
// visible.
func writeMicros(bw *bufio.Writer, d time.Duration) {
	if d < 0 {
		d = 0
	}
	micros := float64(d.Nanoseconds()) / 1e3
	bw.WriteString(strconv.FormatFloat(micros, 'f', -1, 64))
}

// writeJSONString writes s as a JSON string literal with minimal
// escaping (names and attr values here are ASCII identifiers and
// SQL fragments).
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			bw.WriteByte('\\')
			bw.WriteByte(c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			bw.WriteString(`\u00`)
			bw.WriteByte(hex[c>>4])
			bw.WriteByte(hex[c&0xf])
		default:
			bw.WriteByte(c)
		}
	}
	bw.WriteByte('"')
}

// assignLanes maps each span (by snapshot index) to a viewer track.
// Greedy interval scheduling: process spans by (start asc, longer
// first); a lane is free for a span if every span previously placed
// there either ended at/before the span's start or is an ancestor
// whose interval fully contains it (what the viewer renders as
// nesting). The ancestry check matters: two sibling spans with
// identical intervals would otherwise "contain" each other and be
// drawn nested instead of side by side. Parent's lane is preferred so
// sequential call chains stay on one track.
func assignLanes(spans []TraceSpan) map[int]int {
	type interval struct {
		idx        int
		start, end time.Time
	}
	ivs := make([]interval, len(spans))
	for i := range spans {
		end := spans[i].End
		if end.IsZero() {
			end = spans[i].Start
		}
		ivs[i] = interval{idx: i, start: spans[i].Start, end: end}
	}
	sort.SliceStable(ivs, func(a, b int) bool {
		if !ivs[a].start.Equal(ivs[b].start) {
			return ivs[a].start.Before(ivs[b].start)
		}
		return ivs[a].end.After(ivs[b].end)
	})

	// isAncestor walks idx's parent chain looking for id. SpanIDs are
	// dense (index+1), so the chain resolves without a lookup table.
	isAncestor := func(id SpanID, idx int) bool {
		for p := spans[idx].Parent; p != 0; {
			if p == id {
				return true
			}
			if int(p) < 1 || int(p) > len(spans) {
				return false
			}
			p = spans[p-1].Parent
		}
		return false
	}

	// Per lane, a stack of open containment intervals: push on place,
	// pop ends that are <= the next span's start.
	type open struct {
		end time.Time
		id  SpanID
	}
	var laneStacks [][]open
	laneOf := make(map[int]int, len(spans))
	spanLane := make(map[SpanID]int, len(spans))

	fits := func(lane int, iv interval) bool {
		stack := laneStacks[lane]
		// Drop expired intervals.
		for len(stack) > 0 && !stack[len(stack)-1].end.After(iv.start) {
			stack = stack[:len(stack)-1]
		}
		laneStacks[lane] = stack
		if len(stack) == 0 {
			return true
		}
		// Occupied: only nest inside an ancestor that truly contains us.
		top := stack[len(stack)-1]
		return !top.end.Before(iv.end) && isAncestor(top.id, iv.idx)
	}
	place := func(lane int, iv interval) {
		laneStacks[lane] = append(laneStacks[lane], open{end: iv.end, id: spans[iv.idx].ID})
		laneOf[iv.idx] = lane
		spanLane[spans[iv.idx].ID] = lane
	}

	for _, iv := range ivs {
		if parent := spans[iv.idx].Parent; parent != 0 {
			if lane, ok := spanLane[parent]; ok && fits(lane, iv) {
				place(lane, iv)
				continue
			}
		}
		placed := false
		for lane := range laneStacks {
			if fits(lane, iv) {
				place(lane, iv)
				placed = true
				break
			}
		}
		if !placed {
			laneStacks = append(laneStacks, nil)
			place(len(laneStacks)-1, iv)
		}
	}
	return laneOf
}
