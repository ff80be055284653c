package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteText renders the stream in the machine's text debugging format: one
// line per issued instruction plus region transition headers. It is a
// renderer over the structured stream; the simulator formats no text on
// its hot path.
func (t *Tracer) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range t.Events {
		e := &t.Events[i]
		switch e.Kind {
		case KindRegionBegin:
			fmt.Fprintf(bw, "=== region %q mode=%s cycle=%d\n", e.Name, e.Detail, e.Cycle)
		case KindIssue:
			fmt.Fprintf(bw, "%8d c%d %4d  %v\n", e.Cycle, e.Core, e.Aux, e.Inst)
		}
	}
	return bw.Flush()
}
