package trace

import (
	"bufio"
	"fmt"
	"io"

	"voltron/internal/isa"
	"voltron/internal/stats"
)

// WriteChromeReference is the fmt-based Chrome renderer AppendChrome
// replaced, kept as the oracle of the renderer differential: every event
// is formatted by fmt.Fprintf and every name quoted by json.Marshal. It is
// exported to the package's external tests only.
func (t *Tracer) WriteChromeReference(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	item := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	// Thread naming/sorting metadata.
	machineTid := t.cores
	for c := 0; c < t.cores; c++ {
		item(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"core %d"}}`, c, c)
		item(`{"ph":"M","pid":0,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, c, c)
	}
	item(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"machine"}}`, machineTid)
	item(`{"ph":"M","pid":0,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, machineTid, t.cores)

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
		item(`{"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"name":%s}`,
			core, s.from, s.to-s.from, jstr(stats.Kind(s.kind).String()))
		s.kind = -1
	}

	var openRegion *Event
	for i := range t.Events {
		e := &t.Events[i]
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
				item(`{"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"name":%s,"args":{"mode":%s}}`,
					machineTid, openRegion.Cycle, e.Cycle-openRegion.Cycle,
					jstr(openRegion.Name), jstr(openRegion.Detail))
				openRegion = nil
			}
		case KindStallRelease:
			item(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"p","name":"stall-bus release","args":{"stalled":%d}}`,
				machineTid, e.Cycle, e.Dur)
		case KindPut, KindGet:
			item(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":%s,"args":{"dir":%s}}`,
				e.Core, e.Cycle, jstr(e.Kind.String()), jstr(isa.Direction(e.Aux).String()))
		case KindBcast, KindSleep, KindTxCommit, KindTxAbort:
			item(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":%s}`,
				e.Core, e.Cycle, jstr(e.Kind.String()))
		case KindSend, KindSpawn:
			item(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":%s,"args":{"to":%d,"seq":%d,"latency":%d}}`,
				e.Core, e.Cycle, jstr(fmt.Sprintf("%s→c%d", e.Kind, e.Aux)), e.Aux, e.Arg, e.Dur)
		case KindRecv, KindWake:
			item(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":%s,"args":{"seq":%d}}`,
				e.Core, e.Cycle, jstr(e.Kind.String()), e.Arg)
		case KindCacheMiss:
			item(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":%s,"args":{"addr":%d,"fill":%d}}`,
				e.Core, e.Cycle, jstr("miss "+missNames[e.Aux]), e.Arg, e.Dur)
		case KindTxBegin:
			item(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":"TXBEGIN","args":{"chunk":%d}}`,
				e.Core, e.Cycle, e.Arg)
		}
	}
	for c := 0; c < t.cores; c++ {
		flush(c)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
