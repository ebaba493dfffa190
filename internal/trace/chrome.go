package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"paella/internal/sim"
)

// WriteChromeTrace exports the buffer in the Chrome trace-event JSON
// format, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Processes and threads registered on the recorder map
// onto trace pids/tids; plain spans become "X" complete events, async
// spans "b"/"e" nestable pairs grouped by id, instants "i" events, and
// counter samples "C" events.
//
// The output is byte-deterministic for a deterministic emission sequence:
// fields are written in fixed order, one event per line, with no map
// iteration — a seeded simulation produces an identical file on every run
// (the property the paella-sim golden-trace pin checks).
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceAll(w, r)
}

// WriteChromeTraceAll exports several recorders into one Chrome trace-event
// JSON file, offsetting each recorder's pids past the previous recorders'
// so the streams cannot collide — the merged view of a World run, where
// every replica shard (and the control Env) records independently. Nil
// recorders are skipped. With a single recorder the output is byte-for-byte
// WriteChromeTrace's.
func WriteChromeTraceAll(w io.Writer, recs ...*Recorder) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	off := 0
	for _, r := range recs {
		if r == nil {
			continue
		}
		// Metadata: names and stable sort order for every process/thread.
		for i := range r.procs {
			pid := off + i + 1
			emit(metaEvent("process_name", pid, 0, "name", strconv.Quote(r.procs[i].name)))
			emit(metaEvent("process_sort_index", pid, 0, "sort_index", strconv.Itoa(pid)))
		}
		for i := range r.threads {
			th := &r.threads[i]
			emit(metaEvent("thread_name", off+int(th.proc), int(th.tid), "name", strconv.Quote(th.name)))
			emit(metaEvent("thread_sort_index", off+int(th.proc), int(th.tid), "sort_index", strconv.Itoa(int(th.tid))))
		}
		for i := range r.events {
			emit(r.chromeEvent(&r.events[i], off))
		}
		off += len(r.procs)
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func metaEvent(name string, pid, tid int, argKey, argJSON string) string {
	s := "{\"name\":\"" + name + "\",\"ph\":\"M\",\"pid\":" + strconv.Itoa(pid)
	if tid > 0 {
		s += ",\"tid\":" + strconv.Itoa(tid)
	}
	return s + ",\"args\":{\"" + argKey + "\":" + argJSON + "}}"
}

// tsMicros renders a nanosecond virtual time as the format's microsecond
// timestamp with fixed three-decimal precision (exact: no float round
// trip).
func tsMicros(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return neg + strconv.FormatInt(int64(t)/1000, 10) + "." +
		fmt.Sprintf("%03d", int64(t)%1000)
}

func (r *Recorder) chromeEvent(e *event, off int) string {
	switch e.kind {
	case evSpan:
		th := &r.threads[e.track-1]
		return "{\"name\":" + strconv.Quote(e.name) +
			",\"cat\":" + strconv.Quote(e.cat) +
			",\"ph\":\"X\",\"ts\":" + tsMicros(e.start) +
			",\"dur\":" + tsMicros(e.end-e.start) +
			",\"pid\":" + strconv.Itoa(off+int(th.proc)) +
			",\"tid\":" + strconv.Itoa(int(th.tid)) +
			argsJSON(e.args) + "}"
	case evAsync:
		head := "{\"name\":" + strconv.Quote(e.name) +
			",\"cat\":" + strconv.Quote(e.cat) +
			",\"id\":\"0x" + strconv.FormatUint(e.id, 16) + "\"" +
			",\"pid\":" + strconv.Itoa(off+int(e.proc)) + ",\"tid\":0"
		b := head + ",\"ph\":\"b\",\"ts\":" + tsMicros(e.start) + argsJSON(e.args) + "}"
		end := head + ",\"ph\":\"e\",\"ts\":" + tsMicros(e.end) + "}"
		return b + ",\n" + end
	case evInstant:
		th := &r.threads[e.track-1]
		return "{\"name\":" + strconv.Quote(e.name) +
			",\"cat\":" + strconv.Quote(e.cat) +
			",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + tsMicros(e.start) +
			",\"pid\":" + strconv.Itoa(off+int(th.proc)) +
			",\"tid\":" + strconv.Itoa(int(th.tid)) +
			argsJSON(e.args) + "}"
	case evSample:
		ci := &r.counters[e.ctr-1]
		return "{\"name\":" + strconv.Quote(ci.name) +
			",\"ph\":\"C\",\"ts\":" + tsMicros(e.start) +
			",\"pid\":" + strconv.Itoa(off+int(ci.proc)) +
			",\"args\":{" + strconv.Quote(e.series) + ":" + formatValue(e.value) + "}}"
	}
	return "{}"
}

func argsJSON(args []Arg) string {
	if len(args) == 0 {
		return ""
	}
	s := ",\"args\":{"
	for i, a := range args {
		if i > 0 {
			s += ","
		}
		s += strconv.Quote(a.Key) + ":" + argValueJSON(a.Val)
	}
	return s + "}"
}

func argValueJSON(v any) string {
	switch x := v.(type) {
	case string:
		return strconv.Quote(x)
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case sim.Time:
		return strconv.FormatInt(int64(x), 10)
	case float64:
		return formatValue(x)
	default:
		return strconv.Quote(fmt.Sprint(x))
	}
}

// formatValue renders a float deterministically; integral values (the vast
// majority — counts, bytes, depths) print without a fractional part.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
