package trace

import (
	"encoding/json"
	"io"
	"strconv"

	"voltron/internal/isa"
	"voltron/internal/stats"
)

// WriteChrome writes the Chrome trace that AppendChrome renders to w, in a
// single Write call. Callers that keep the bytes (the service's trace store)
// call AppendChrome directly and skip the copy into a writer.
func (t *Tracer) WriteChrome(w io.Writer) error {
	_, err := w.Write(t.AppendChrome(nil))
	return err
}

// AppendChrome renders the collected stream as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing, appends it
// to dst and returns the extended slice. One simulated cycle maps to one
// microsecond of trace time.
//
// Track layout: pid 0, one thread per core (tid = core), plus a "machine"
// thread (tid = cores) carrying region spans and stall-bus releases. Stall
// charges become complete ("X") spans named by cause — adjacent spans of
// the same cause are coalesced, so an N-cycle stall renders as one slice no
// matter how the simulator charged it. Network traffic, spawn/sleep
// transitions, cache-miss fills and transaction events render as instant
// ("i") events with their payload under args.
//
// Rendering is one append pass: the fixed vocabulary (event kinds, stall
// causes, directions, miss kinds) is JSON-quoted once per process, numbers
// are appended with strconv, and only a free-text region name or mode that
// needs escaping goes through json.Marshal. When dst lacks room, it grows
// once by an upper estimate from the event count, so a render allocates a
// constant number of times however many events it writes.
//
// The output is deterministic: rendering iterates the event stream in
// collection order and never ranges over a map, so two identical runs
// produce byte-identical files.
func (t *Tracer) AppendChrome(dst []byte) []byte {
	if need := chromeBytesPerEvent*len(t.Events) + 256*(t.cores+1); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	w := chromeWriter{b: append(dst, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"...), first: true}

	// Thread naming/sorting metadata.
	machineTid := int64(t.cores)
	for c := int64(0); c < machineTid; c++ {
		w.meta(c, `"thread_name","args":{"name":"core `)
		w.int(c)
		w.str(`"}}`)
		w.meta(c, `"thread_sort_index","args":{"sort_index":`)
		w.int(c)
		w.str(`}}`)
	}
	w.meta(machineTid, `"thread_name","args":{"name":"machine"}}`)
	w.meta(machineTid, `"thread_sort_index","args":{"sort_index":`)
	w.int(machineTid)
	w.str(`}}`)

	// Coalesce adjacent same-cause stall spans per core. The simulator may
	// charge one logical stall window as several back-to-back pieces (a
	// 1-cycle poll charge followed by a skipped window); merging them here
	// keeps the rendering faithful to the machine, not to the event-driven
	// scheduler's stepping pattern.
	type span struct {
		kind     int32
		from, to int64
	}
	open := make([]span, t.cores)
	for i := range open {
		open[i].kind = -1
	}
	flush := func(core int) {
		s := &open[core]
		if s.kind < 0 {
			return
		}
		w.complete(int64(core), s.from, s.to-s.from)
		w.str(quotedCause(s.kind))
		w.str(`}`)
		s.kind = -1
	}

	var openRegion *Event
	for i := range t.Events {
		e := &t.Events[i]
		core := int64(e.Core)
		switch e.Kind {
		case KindStall:
			s := &open[e.Core]
			if s.kind == e.Aux && s.to == e.Cycle {
				s.to += e.Dur
				continue
			}
			flush(int(e.Core))
			*s = span{kind: e.Aux, from: e.Cycle, to: e.Cycle + e.Dur}
		case KindRegionBegin:
			openRegion = e
		case KindRegionEnd:
			if openRegion != nil {
				w.complete(machineTid, openRegion.Cycle, e.Cycle-openRegion.Cycle)
				w.quote(openRegion.Name)
				w.str(`,"args":{"mode":`)
				w.quote(openRegion.Detail)
				w.str(`}}`)
				openRegion = nil
			}
		case KindStallRelease:
			w.open("i", machineTid, e.Cycle)
			w.str(`,"s":"p","name":"stall-bus release","args":{"stalled":`)
			w.int(e.Dur)
			w.str(`}}`)
		case KindPut, KindGet:
			w.instant(core, e.Cycle, quotedKinds[e.Kind])
			w.str(`,"args":{"dir":`)
			w.str(quotedDir(isa.Direction(e.Aux)))
			w.str(`}}`)
		case KindBcast, KindSleep, KindTxCommit, KindTxAbort:
			w.instant(core, e.Cycle, quotedKinds[e.Kind])
			w.str(`}`)
		case KindSend, KindSpawn:
			// The name "SEND→c<to>" reopens the quoted kind; no byte of the
			// appended core number needs escaping.
			q := quotedKinds[e.Kind]
			w.instant(core, e.Cycle, q[:len(q)-1])
			w.str("→c")
			w.int(int64(e.Aux))
			w.str(`","args":{"to":`)
			w.int(int64(e.Aux))
			w.str(`,"seq":`)
			w.int(e.Arg)
			w.str(`,"latency":`)
			w.int(e.Dur)
			w.str(`}}`)
		case KindRecv, KindWake:
			w.instant(core, e.Cycle, quotedKinds[e.Kind])
			w.str(`,"args":{"seq":`)
			w.int(e.Arg)
			w.str(`}}`)
		case KindCacheMiss:
			w.instant(core, e.Cycle, quotedMisses[e.Aux])
			w.str(`,"args":{"addr":`)
			w.int(e.Arg)
			w.str(`,"fill":`)
			w.int(e.Dur)
			w.str(`}}`)
		case KindTxBegin:
			w.instant(core, e.Cycle, `"TXBEGIN"`)
			w.str(`,"args":{"chunk":`)
			w.int(e.Arg)
			w.str(`}}`)
		}
	}
	for c := 0; c < t.cores; c++ {
		flush(c)
	}
	return append(w.b, "\n]}\n"...)
}

// chromeBytesPerEvent sizes AppendChrome's destination: an upper estimate
// of the rendered bytes per collected event. The suite's traces at 2 to 64
// cores render 40 to 84 (stall coalescing renders fewer events than are
// collected).
const chromeBytesPerEvent = 96

// chromeWriter appends trace events, comma-separated, to one byte slice.
type chromeWriter struct {
	b     []byte
	first bool
}

func (w *chromeWriter) str(s string) { w.b = append(w.b, s...) }

func (w *chromeWriter) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

// open starts one event: {"ph":<ph>,"pid":0,"tid":<tid>,"ts":<ts>.
func (w *chromeWriter) open(ph string, tid, ts int64) {
	w.begin(ph, tid)
	w.str(`,"ts":`)
	w.int(ts)
}

// begin starts one event up to its tid, after the separator.
func (w *chromeWriter) begin(ph string, tid int64) {
	if !w.first {
		w.str(",\n")
	}
	w.first = false
	w.str(`{"ph":"`)
	w.str(ph)
	w.str(`","pid":0,"tid":`)
	w.int(tid)
}

// meta starts a thread metadata event whose name and args follow in rest.
func (w *chromeWriter) meta(tid int64, rest string) {
	w.begin("M", tid)
	w.str(`,"name":`)
	w.str(rest)
}

// complete writes a complete ("X") span up to its name's key; the caller
// appends the quoted name, the args, if any, and the closing brace.
func (w *chromeWriter) complete(tid, ts, dur int64) {
	w.open("X", tid, ts)
	w.str(`,"dur":`)
	w.int(dur)
	w.str(`,"name":`)
}

// quote appends free text JSON-quoted exactly as json.Marshal quotes it,
// whose escaping (HTML characters, control characters, U+2028/U+2029,
// invalid UTF-8) the trace format pins. Text of printable ASCII with none
// of "\<>& marshals to itself in quotes, so it is appended as is; any
// other text goes through json.Marshal.
func (w *chromeWriter) quote(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.str(jstr(s))
			return
		}
	}
	w.b = append(w.b, '"')
	w.str(s)
	w.b = append(w.b, '"')
}

// instant writes a thread-scoped instant ("i") event up to its name; the
// caller appends the args, if any, and the closing brace.
func (w *chromeWriter) instant(tid, ts int64, name string) {
	w.open("i", tid, ts)
	w.str(`,"s":"t","name":`)
	w.str(name)
}

// The fixed vocabulary, JSON-quoted once by jstr so every rendered name is
// byte-identical to marshaling it per event.
var (
	quotedKinds  = quoteAll(int(KindTxAbort)+1, func(i int) string { return Kind(i).String() })
	quotedCauses = quoteAll(stats.NumKinds, func(i int) string { return stats.Kind(i).String() })
	quotedDirs   = quoteAll(int(isa.South)+1, func(i int) string { return isa.Direction(i).String() })
	quotedMisses = quoteAll(len(missNames), func(i int) string { return "miss " + missNames[i] })
)

func quoteAll(n int, name func(int) string) []string {
	q := make([]string, n)
	for i := range q {
		q[i] = jstr(name(i))
	}
	return q
}

// quotedCause quotes a stall cause, falling back to marshaling for a value
// outside stats' kinds.
func quotedCause(k int32) string {
	if k >= 0 && int(k) < len(quotedCauses) {
		return quotedCauses[k]
	}
	return jstr(stats.Kind(k).String())
}

// quotedDir quotes a mesh direction, falling back to marshaling for a value
// outside the four directions.
func quotedDir(d isa.Direction) string {
	if int(d) < len(quotedDirs) {
		return quotedDirs[d]
	}
	return jstr(d.String())
}

// jstr JSON-quotes a string (json.Marshal of a string is deterministic and
// always emits valid JSON escapes, unlike strconv.Quote's \x form).
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // strings always marshal
		panic(err)
	}
	return string(b)
}
