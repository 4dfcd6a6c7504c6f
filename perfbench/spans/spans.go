// Package spans is the benchmark's in-memory span recorder. The
// benchmark wraps the public boundaries of each solver layer from the
// outside and records one span per call: name, start, end, the span that
// caused it, the solve it belongs to and the ParaSolver rank it ran on.
// Spans stay in memory while the benchmark measures and are written out
// once at the end, so recording costs a mutex and an append per call.
package spans

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// None is the parent of a root span.
const None = -1

// Span is one recorded call. Start and End are offsets from the
// recorder's epoch; End is zero while the span is open.
type Span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Solve  int
	Rank   int
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory. A nil *Recorder records nothing, so
// instrumented code can run untraced without branches at call sites.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder whose epoch is now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its id (None on a nil recorder).
func (r *Recorder) Begin(name string, parent, solve, rank int) int {
	if r == nil {
		return None
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{Name: name, Start: now, Parent: parent, Solve: solve, Rank: rank})
	r.mu.Unlock()
	return id
}

// End closes the span id returned by Begin.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Children that overlap each other
// (spans of different goroutines under one parent) are merged first, so
// covered time is never counted twice; child time outside the parent's
// interval is clipped. Open spans count as zero length.
func SelfTimes(all []Span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range all {
		if s.Parent >= 0 && s.End > s.Start {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(all))
	for i, s := range all {
		if s.End <= s.Start {
			continue
		}
		self[i] = s.Dur()
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return ch[a].lo < ch[b].lo })
		var covered time.Duration
		cur := iv{-1, -1}
		for _, c := range ch {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = iv{lo, hi}
			} else if hi > cur.hi {
				cur.hi = hi
			}
		}
		covered += cur.hi - cur.lo
		self[i] -= covered
	}
	return self
}

// WriteTSV writes one span per line: id, name, start and end in
// nanoseconds from the epoch, parent id, solve id and rank.
func WriteTSV(w io.Writer, all []Span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tname\tstart_ns\tend_ns\tparent\tsolve\trank")
	for i, s := range all {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds(), s.Parent, s.Solve, s.Rank)
	}
	return bw.Flush()
}
