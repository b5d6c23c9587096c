package dynserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/dynserve/fault"
)

// Stream event kinds.  A run stream is a sequence of "step" events ending
// with exactly one terminal event: "result" on success, "error" otherwise.
// Job streams may additionally carry "job" (status on attach), "checkpoint"
// (durability cadence fired) and "evicted" (segment parked; re-attach to
// resume) events.
const (
	eventJob        = "job"
	eventStep       = "step"
	eventCheckpoint = "checkpoint"
	eventEvicted    = "evicted"
	eventResult     = "result"
	eventError      = "error"
)

// streamEvent is one wire event.  Result carries the terminal Result's
// exact encoded bytes, written into the event as they are, so the bytes a
// stream delivers are identical to the bytes an offline run prints — the
// determinism contract is preserved through the transport.
type streamEvent struct {
	kind    string
	round   int
	changed int
	status  *JobStatus
	result  []byte
	cached  bool
	err     string
}

// wireForm renders the event as its JSON object.
func (ev streamEvent) wireForm() ([]byte, error) {
	switch ev.kind {
	case eventStep:
		return json.Marshal(struct {
			Event   string `json:"event"`
			Round   int    `json:"round"`
			Changed int    `json:"changed"`
		}{eventStep, ev.round, ev.changed})
	case eventCheckpoint:
		return json.Marshal(struct {
			Event string `json:"event"`
			Round int    `json:"round"`
		}{eventCheckpoint, ev.round})
	case eventEvicted:
		return json.Marshal(struct {
			Event string `json:"event"`
			Round int    `json:"round"`
		}{eventEvicted, ev.round})
	case eventJob:
		return json.Marshal(struct {
			Event string    `json:"event"`
			Job   JobStatus `json:"job"`
		}{eventJob, *ev.status})
	case eventResult:
		// Appended rather than marshaled around a json.RawMessage, which
		// encoding/json would scan whole again.  The spare capacity holds
		// the NDJSON newline.
		b := append(make([]byte, 0, len(ev.result)+48), `{"event":"result"`...)
		if ev.cached {
			b = append(b, `,"cached":true`...)
		}
		return append(append(append(b, `,"result":`...), ev.result...), '}'), nil
	case eventError:
		return json.Marshal(struct {
			Event string `json:"event"`
			Error string `json:"error"`
		}{eventError, ev.err})
	}
	return nil, fmt.Errorf("dynserve: unknown event kind %q", ev.kind)
}

// resultEvent builds a terminal result event around the exact result bytes.
func resultEvent(resultJSON []byte, cached bool) streamEvent {
	return streamEvent{kind: eventResult, result: resultJSON, cached: cached}
}

// eventWriter is the transport half of a stream: NDJSON or SSE.
type eventWriter interface {
	event(ev streamEvent) error
}

// ndjsonWriter streams events as newline-delimited JSON, flushing each line
// so clients observe rounds live.
type ndjsonWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	started bool
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	flusher, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flusher: flusher}
}

func (nw *ndjsonWriter) event(ev streamEvent) error {
	if !nw.started {
		nw.w.Header().Set("Content-Type", "application/x-ndjson")
		nw.w.Header().Set("Cache-Control", "no-store")
		nw.started = true
	}
	b, err := ev.wireForm()
	if err != nil {
		return err
	}
	if _, err := nw.w.Write(append(b, '\n')); err != nil {
		return err
	}
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
	return nil
}

// sseWriter streams events as Server-Sent Events: the event field names the
// kind, the data field carries the same JSON object NDJSON would.
type sseWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	started bool
}

func newSSEWriter(w http.ResponseWriter) *sseWriter {
	flusher, _ := w.(http.Flusher)
	return &sseWriter{w: w, flusher: flusher}
}

func (sw *sseWriter) event(ev streamEvent) error {
	if !sw.started {
		sw.w.Header().Set("Content-Type", "text/event-stream")
		sw.w.Header().Set("Cache-Control", "no-store")
		sw.started = true
	}
	b, err := ev.wireForm()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", ev.kind, b); err != nil {
		return err
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return nil
}

// writerFor picks the stream transport from the request's Accept header:
// SSE for text/event-stream, NDJSON otherwise.  (Buffered JSON mode is
// handled before streaming starts.)
func writerFor(w http.ResponseWriter, r *http.Request) eventWriter {
	if acceptsSSE(r) {
		return newSSEWriter(w)
	}
	return newNDJSONWriter(w)
}

// streamWriter is writerFor plus the stream-drop failpoint: when armed, the
// returned writer severs the connection mid-stream — the event fails exactly
// as it would if the client's TCP connection had dropped, so tests can prove
// that a detached job survives its watcher vanishing while an inline run is
// correctly abandoned.
func (s *Server) streamWriter(w http.ResponseWriter, r *http.Request) eventWriter {
	out := writerFor(w, r)
	if !fault.Enabled() {
		return out
	}
	return &faultyWriter{inner: out}
}

// faultyWriter injects a connection drop when the stream-drop failpoint
// fires.  Once dropped, every later event fails too — a real peer does not
// come back.
type faultyWriter struct {
	inner   eventWriter
	dropped bool
}

func (fw *faultyWriter) event(ev streamEvent) error {
	if fw.dropped || fault.Fire(fault.StreamDrop) {
		fw.dropped = true
		return errors.New("fault: injected stream drop")
	}
	return fw.inner.event(ev)
}
