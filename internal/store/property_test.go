package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fex/internal/vfs"
)

// TestBulkGetEquivalentToGet is the property test behind the plan-ahead
// path: for arbitrary API-driven store states — random interleavings of
// Put, Compact with and without a keep predicate, and overwrites on one
// store — BulkGet over an arbitrary fingerprint set returns exactly what
// per-key Get returns for each fingerprint, both on the store that made
// the state and on a fresh store reopened over the same files. The seed
// is fixed so failures replay deterministically.
func TestBulkGetEquivalentToGet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const universe = 40 // fingerprints the generator draws from
	fps := make([]Fingerprint, universe)
	for i := range fps {
		fps[i] = fpN(i)
	}
	for iter := 0; iter < 50; iter++ {
		fsys := vfs.New()
		s := New(fsys, "/fex/store")
		ops := 5 + rng.Intn(40)
		for i := 0; i < ops; i++ {
			fp := fps[rng.Intn(universe)]
			switch rng.Intn(10) {
			case 0, 1:
				if _, err := s.Compact(func(x Fingerprint) bool { return !x.Equal(fp) }); err != nil {
					t.Fatalf("iter %d: compact dropping %s: %v", iter, fp.Benchmark, err)
				}
			case 2:
				if _, err := s.Compact(nil); err != nil {
					t.Fatalf("iter %d: compact: %v", iter, err)
				}
			default:
				payload := []byte(fmt.Sprintf("iter%d-op%d", iter, i))
				if err := s.Put(fp, payload); err != nil {
					t.Fatalf("iter %d: put: %v", iter, err)
				}
			}
		}
		// Query an arbitrary subset (with duplicates) and compare against
		// per-key Get, on the writer and on a reopened store.
		q := make([]Fingerprint, 1+rng.Intn(universe))
		for i := range q {
			q[i] = fps[rng.Intn(universe)]
		}
		var want []Result
		for _, reader := range []*Store{s, New(fsys, "/fex/store")} {
			name := "writer"
			if reader != s {
				name = "reopened"
			}
			results, err := reader.BulkGet(q)
			if err != nil {
				t.Fatalf("iter %d, %s: bulkget: %v", iter, name, err)
			}
			for i, fp := range q {
				payload, present, gerr := reader.Get(fp)
				r := results[i]
				if r.Present != present {
					t.Fatalf("iter %d, %s, fp %s: bulk present=%t, get present=%t", iter, name, fp.Benchmark, r.Present, present)
				}
				if (r.Err == nil) != (gerr == nil) {
					t.Fatalf("iter %d, %s, fp %s: bulk err=%v, get err=%v", iter, name, fp.Benchmark, r.Err, gerr)
				}
				if !bytes.Equal(r.Payload, payload) {
					t.Fatalf("iter %d, %s, fp %s: bulk payload %q, get payload %q", iter, name, fp.Benchmark, r.Payload, payload)
				}
			}
			// The writer and the reopened store agree with each other too.
			if want == nil {
				want = results
				continue
			}
			for i := range q {
				if results[i].Present != want[i].Present || !bytes.Equal(results[i].Payload, want[i].Payload) {
					t.Fatalf("iter %d, fp %s: writer and reopened store disagree", iter, q[i].Benchmark)
				}
			}
		}
	}
}
