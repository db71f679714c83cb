package toolchain

import (
	"fmt"
	"sort"
	"sync"

	"fex/internal/workload"
)

// ExecMemo caches kernel counters for every artifact of one build
// system. A kernel never sees the artifact that runs it — the compiler
// only changes the cost vector measure.Model applies to the counters
// afterwards — so the counters of a (benchmark, input, threads)
// configuration are the same under every build type, and the memo is
// shared by all of them: a four-type run executes each kernel once, not
// four times.
//
// The build system owns one ExecMemo and replaces it on CleanBuild, so
// the memo lives exactly as long as the artifacts compiled against it.
type ExecMemo struct {
	mu      sync.Mutex
	benches map[string]*benchMemo
}

// NewExecMemo returns an empty execution memo.
func NewExecMemo() *ExecMemo {
	return &ExecMemo{benches: make(map[string]*benchMemo)}
}

// benchmark returns the memo slot of one benchmark identity (suite/name),
// creating it on first use. Compile resolves it once per artifact, so
// the per-repetition hit path never builds or hashes a key.
func (m *ExecMemo) benchmark(id string) *benchMemo {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.benches[id]
	if !ok {
		b = &benchMemo{id: id}
		m.benches[id] = b
	}
	return b
}

// benchMemo holds the cached executions of one benchmark. The scan is
// linear: a benchmark sees a handful of distinct configurations (one per
// input class × thread count), so a slice walk beats any keyed structure
// and keeps the hot path allocation-free.
type benchMemo struct {
	id      string
	mu      sync.Mutex
	entries []*memoEntry
}

// memoEntry is one cached kernel execution, keyed by (benchmark, input
// canonical form, threads) — benchMemo.key renders exactly that. Lookups
// compare the stored Input structurally, which is equivalent (structural
// and canonical-form equality coincide) and allocates nothing.
type memoEntry struct {
	in       workload.Input
	threads  int
	counters workload.Counters
	// ready is set once the execution succeeded; until then the entry is
	// an in-flight claim and done is closed when it settles either way.
	ready bool
	done  chan struct{}
}

// key renders one entry's memo key.
func (b *benchMemo) key(e *memoEntry) string {
	return fmt.Sprintf("%s|%s|threads=%d", b.id, e.in.Canonical(), e.threads)
}

func (b *benchMemo) find(in workload.Input, threads int) *memoEntry {
	for _, e := range b.entries {
		if e.threads == threads && e.in.Equal(in) {
			return e
		}
	}
	return nil
}

// acquire returns the cached counters of (in, threads). When another
// caller is executing that configuration it waits for the outcome
// (single flight: concurrent cold callers run the kernel once). When
// nothing is cached or in flight it claims the configuration and returns
// the claim; the caller must run the kernel and settle the claim.
func (b *benchMemo) acquire(in workload.Input, threads int) (workload.Counters, *memoEntry) {
	for {
		b.mu.Lock()
		e := b.find(in, threads)
		switch {
		case e == nil:
			e = &memoEntry{in: in, threads: threads, done: make(chan struct{})}
			b.entries = append(b.entries, e)
			b.mu.Unlock()
			return workload.Counters{}, e
		case e.ready:
			c := e.counters
			b.mu.Unlock()
			return c, nil
		}
		done := e.done
		b.mu.Unlock()
		// A failed claim is removed before done closes, so the retry
		// either finds a newer claim or makes its own.
		<-done
	}
}

// settle publishes a claim's outcome and wakes its waiters. A failed
// execution is never cached: its entry is removed.
func (b *benchMemo) settle(e *memoEntry, counters workload.Counters, ok bool) {
	b.mu.Lock()
	if ok {
		e.counters, e.ready = counters, true
	} else {
		for i, x := range b.entries {
			if x == e {
				b.entries = append(b.entries[:i], b.entries[i+1:]...)
				break
			}
		}
	}
	b.mu.Unlock()
	close(e.done)
}

// cached reports whether (in, threads) has a settled execution.
func (b *benchMemo) cached(in workload.Input, threads int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.find(in, threads)
	return e != nil && e.ready
}

// keys returns the canonical keys of the settled executions, sorted.
func (b *benchMemo) keys() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.entries))
	for _, e := range b.entries {
		if e.ready {
			out = append(out, b.key(e))
		}
	}
	sort.Strings(out)
	return out
}
