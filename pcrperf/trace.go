package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// maxLoggedSpans bounds the span log written at the end of a traced run.
// Per-layer aggregates cover every span; only the log is capped, so a long
// run cannot grow memory without bound.
const maxLoggedSpans = 200000

// span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent is the span that caused this one (0 for an operation's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// liveSpan is a span in flight. Its fields past span are guarded by
// tracer.mu.
type liveSpan struct {
	span
	key     string
	parent  *liveSpan
	childNs int64 // durations of children that ended while this span was open
	selfNs  int64 // set at end
	ended   bool
}

// layerAgg accumulates every ended span of one name.
type layerAgg struct {
	count   int64
	totalNs int64
	selfNs  int64
	durs    []int64 // kept only for names whose percentiles are reported
}

// tracer records spans in memory while on. Parents are found by key: a
// span registers itself on the stack of the record name it works on, and a
// call further down the stack for the same record (client read, server
// handler, storage read) becomes its child. Concurrent readers work on
// disjoint records, so a record's stack belongs to one operation at a time.
// Spans on no record register under "*" and parent any keyless span.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	stacks  map[string][]*liveSpan
	aggs    map[string]*layerAgg
	log     []span
	dropped int64
	keepDur map[string]bool
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		stacks:  map[string][]*liveSpan{},
		aggs:    map[string]*layerAgg{},
		keepDur: map[string]bool{"serve.server.handler": true},
	}
}

// begin opens a span of the given name working on record key ("" for
// none). It returns nil when the tracer is nil or off, and end(nil) is a
// no-op, so untraced code paths pay one atomic load.
func (t *tracer) begin(name, key string) *liveSpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	if key == "" {
		key = "*"
	}
	s := &liveSpan{key: key}
	s.ID = t.nextID.Add(1)
	s.Name = name
	t.mu.Lock()
	s.parent = t.top(key)
	if s.parent == nil && key != "*" {
		s.parent = t.top("*")
	}
	if s.parent != nil {
		s.Parent, s.Op = s.parent.ID, s.parent.Op
	} else {
		s.Op = s.ID
	}
	t.stacks[key] = append(t.stacks[key], s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.epoch))
	return s
}

func (t *tracer) top(key string) *liveSpan {
	st := t.stacks[key]
	if len(st) == 0 {
		return nil
	}
	return st[len(st)-1]
}

// end closes s and folds it into the per-name aggregate. Its duration
// is charged to its parent; a child on another goroutine (a server handler
// under a client read) can end just after its parent, and then the charge
// comes off the parent's recorded self time instead.
func (t *tracer) end(s *liveSpan) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	dur := s.End - s.Start
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stacks[s.key]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == s {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.stacks, s.key)
	} else {
		t.stacks[s.key] = st
	}
	s.selfNs = max(dur-s.childNs, 0)
	s.ended = true
	if p := s.parent; p != nil {
		if !p.ended {
			p.childNs += dur
		} else {
			d := min(dur, p.selfNs)
			p.selfNs -= d
			t.aggs[p.Name].selfNs -= d
		}
		s.parent = nil
	}
	a := t.aggs[s.Name]
	if a == nil {
		a = &layerAgg{}
		t.aggs[s.Name] = a
	}
	a.count++
	a.totalNs += dur
	a.selfNs += s.selfNs
	if t.keepDur[s.Name] {
		a.durs = append(a.durs, dur)
	}
	if len(t.log) < maxLoggedSpans {
		t.log = append(t.log, s.span)
	} else {
		t.dropped++
	}
}

// agg returns the aggregate for a span name (zero when none ended).
func (t *tracer) agg(name string) layerAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return *a
	}
	return layerAgg{}
}

// selfMs is the summed self time of the named spans, in milliseconds.
func (t *tracer) selfMs(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += t.agg(n).selfNs
	}
	return float64(ns) / 1e6
}

// writeLog writes the recorded spans as JSON to path.
func (t *tracer) writeLog(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(t.aggs))
	for n := range t.aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	type aggOut struct {
		Name    string  `json:"name"`
		Count   int64   `json:"count"`
		TotalMs float64 `json:"total_ms"`
		SelfMs  float64 `json:"self_ms"`
	}
	out := struct {
		Layers  []aggOut `json:"layers"`
		Dropped int64    `json:"spans_not_logged"`
		Spans   []span   `json:"spans"`
	}{Dropped: t.dropped, Spans: t.log}
	for _, n := range names {
		a := t.aggs[n]
		out.Layers = append(out.Layers, aggOut{n, a.count, float64(a.totalNs) / 1e6, float64(a.selfNs) / 1e6})
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedBackend decorates a core.Backend. While tracing is on it records a
// span per ReadRange and counts reads, bytes and failures, so the counts
// and the self time cover the same calls.
type timedBackend struct {
	core.Backend
	name   string
	tr     *tracer
	reads  atomic.Int64
	bytes  atomic.Int64
	failed atomic.Int64
}

func (b *timedBackend) ReadRange(name string, offset, length int64) ([]byte, error) {
	s := b.tr.begin(b.name, name)
	data, err := b.Backend.ReadRange(name, offset, length)
	b.tr.end(s)
	if s == nil {
		return data, err
	}
	b.reads.Add(1)
	if err != nil {
		b.failed.Add(1)
		return nil, err
	}
	b.bytes.Add(int64(len(data)))
	return data, nil
}

// serverProbe is middleware around serve.Server.ServeHTTP. It counts
// record payload bytes before they are written, so a pass's bytes are
// settled once settle returns, and records a handler span per request
// while tracing is on.
type serverProbe struct {
	next        http.Handler
	tr          *tracer
	recordBytes atomic.Int64

	mu       sync.Mutex
	idle     *sync.Cond
	inflight int
}

func newServerProbe(next http.Handler, tr *tracer) *serverProbe {
	p := &serverProbe{next: next, tr: tr}
	p.idle = sync.NewCond(&p.mu)
	return p
}

func (p *serverProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	p.inflight++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inflight--
		if p.inflight == 0 {
			p.idle.Broadcast()
		}
		p.mu.Unlock()
	}()
	name, isRecord := strings.CutPrefix(r.URL.Path, "/records/")
	s := p.tr.begin("serve.server.handler", name)
	if isRecord {
		w = &countingWriter{ResponseWriter: w, n: &p.recordBytes}
	}
	p.next.ServeHTTP(w, r)
	p.tr.end(s)
}

// settle waits until no request is being handled. A client has its whole
// response before the handler returns, so after a pass ends this is brief.
func (p *serverProbe) settle() {
	p.mu.Lock()
	for p.inflight > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n.Add(int64(len(b)))
	return w.ResponseWriter.Write(b)
}

// ReadFrom keeps the response writer's zero-copy path reachable.
func (w *countingWriter) ReadFrom(r io.Reader) (int64, error) {
	rf, ok := w.ResponseWriter.(io.ReaderFrom)
	if !ok {
		return io.Copy(struct{ io.Writer }{w}, r)
	}
	n, err := rf.ReadFrom(r)
	w.n.Add(n)
	return n, err
}

// spanLogPath is where a traced run writes its spans.
func spanLogPath(work, workload string, seed int64) string {
	return filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
}
