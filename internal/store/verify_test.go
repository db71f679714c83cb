package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// errClass names the error classes a lookup reports: none, ErrCorrupt or
// ErrMismatch.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrMismatch):
		return "mismatch"
	}
	return "other: " + err.Error()
}

// decodeAndCompare is the reference verification: a full Decode, then
// Equal against the fingerprint the record was looked up by.
func decodeAndCompare(raw []byte, fp Fingerprint) ([]byte, error) {
	rec, err := Decode(raw)
	if err != nil {
		return nil, err
	}
	if !rec.Fingerprint.Equal(fp) {
		return nil, fmt.Errorf("%w: reference", ErrMismatch)
	}
	return rec.Payload, nil
}

// randomString draws field values from the cases quoting must get right:
// plain names, quotes and backslashes, separators, control bytes, non-ASCII
// and invalid UTF-8.
func randomString(rng *rand.Rand) string {
	alphabet := []string{"a", "Z", "0", "_", "-", ".", " ", "|", "=", ",", "\n", "\t", `"`, `\`, "\x00", "\x7f", "é", "\xff", "DATA|", "F|"}
	var sb strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		sb.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func randomFingerprint(rng *rand.Rand) Fingerprint {
	fp := Fingerprint{
		Experiment: randomString(rng),
		Suite:      randomString(rng),
		Benchmark:  randomString(rng),
		BuildType:  randomString(rng),
		Reps:       randomString(rng),
		Input:      randomString(rng),
		Tool:       randomString(rng),
		Dims:       randomString(rng),
		ConfigHash: randomString(rng),
	}
	switch rng.Intn(3) {
	case 0: // nil threads
	case 1:
		fp.Threads = []int{}
	default:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			fp.Threads = append(fp.Threads, rng.Intn(40)-4)
		}
	}
	return fp
}

// recordMutations returns damaged variants of raw, c's record: each kind
// the prefix comparison must turn away, named.
func recordMutations(rng *rand.Rand, raw []byte, fp Fingerprint) map[string][]byte {
	out := map[string][]byte{}
	flip := append([]byte(nil), raw...)
	flip[rng.Intn(len(flip))] ^= byte(1 << rng.Intn(8))
	out["flipped byte"] = flip

	lines := strings.SplitAfter(string(raw), "\n")
	// lines[1..10] are the F lines; swap two distinct ones.
	i, j := 1+rng.Intn(10), 1+rng.Intn(10)
	if i == j {
		j = 1 + (i % 10)
	}
	swapped := append([]string(nil), lines...)
	swapped[i], swapped[j] = swapped[j], swapped[i]
	out["swapped field"] = []byte(strings.Join(swapped, ""))

	if len(fp.Threads) > 0 && fp.Threads[0] >= 0 {
		old := "F|threads|" + strconv.Itoa(fp.Threads[0])
		out["threads 01"] = []byte(strings.Replace(string(raw), old, "F|threads|0"+strconv.Itoa(fp.Threads[0]), 1))
	}

	// The DATA or FOLD line follows the header.
	at := len(fp.appendHeader(nil))
	end := at + bytes.IndexByte(raw[at:], '\n')
	tag := string(raw[at : at+len(dataTag)])
	out["cut DATA line"] = raw[:at+rng.Intn(end-at)]
	out["DATA line dropped"] = append(append([]byte(nil), raw[:at]...), raw[end+1:]...)
	out["padded DATA length"] = []byte(strings.Replace(string(raw), "\n"+tag, "\n"+tag+"0", 1))
	out["trailing byte"] = append(append([]byte(nil), raw...), 'x')
	out["payload cut"] = raw[:len(raw)-1]
	if tag == foldTag {
		// Re-count the last run, and read the body as a DATA payload.
		line := string(raw[at:end])
		plus := strings.LastIndexByte(line, '+')
		more, _ := strconv.Atoi(line[plus+1:])
		recount := func(n int) []byte {
			return []byte(string(raw[:at]) + line[:plus+1] + strconv.Itoa(n) + string(raw[end:]))
		}
		out["run count zero"] = recount(0)
		out["run one line shorter"] = recount(more - 1)
		out["run one line longer"] = recount(more + 1)
		out["body as DATA"] = []byte(string(raw[:at]) + dataTag + strconv.Itoa(len(raw)-end-1) + string(raw[end:]))
	}

	foreign := fp
	foreign.Benchmark += "x"
	out["foreign fingerprint"] = Encode(Record{Fingerprint: foreign, Payload: raw[end+1:]})
	return out
}

// randomRuns returns a payload of repeated measurement lines: groups of
// lines that differ only in a rep number counting up, some groups broken
// by a skipped number, between random lines.
func randomRuns(rng *rand.Rand) []byte {
	var b []byte
	for groups := 1 + rng.Intn(3); groups > 0; groups-- {
		prefix, suffix := randomString(rng), randomString(rng)+"\n"
		rep := rng.Intn(12)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b = append(b, prefix+"|rep="+strconv.Itoa(rep)+suffix...)
			rep += 1 + rng.Intn(8)/7
		}
		if rng.Intn(2) == 0 {
			b = append(b, randomString(rng)+"\n"...)
		}
	}
	return b
}

// TestVerifyRecordMatchesDecode pins the store-hit verification to its
// reference: for random fingerprints and payloads, stored as Put stores
// them (folded when they repeat a line), and for every kind of damaged
// record, verifyRecord returns exactly what Decode followed by Equal
// returns — the same payload bytes and the same error class. An intact
// record must also pass on the byte comparison alone, so the test cannot
// pass by always taking the fallback.
func TestVerifyRecordMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	folded := 0
	for iter := 0; iter < 500; iter++ {
		fp := randomFingerprint(rng)
		payload := []byte(randomString(rng) + randomString(rng))
		switch rng.Intn(4) {
		case 0:
			payload = nil
		case 1:
			payload = randomRuns(rng)
		}
		c := NewCell(fp)
		if c.Key() != fp.Key() {
			t.Fatalf("iter %d: cell key %s, fingerprint key %s", iter, c.Key(), fp.Key())
		}
		raw := encodeStored(c.header, payload)
		if bytes.Contains(raw, []byte("\n"+foldTag)) {
			folded++
		}
		if got, ok := exactPayload(raw, c.header); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("iter %d: intact record failed the byte comparison: %q ok=%t\n%q", iter, got, ok, raw)
		}
		cases := recordMutations(rng, raw, fp)
		cases["intact"] = raw
		// A fingerprint that differs only in nil versus empty threads is
		// the same fingerprint.
		if len(fp.Threads) == 0 {
			other := fp
			if other.Threads == nil {
				other.Threads = []int{}
			} else {
				other.Threads = nil
			}
			cases["nil/empty threads"] = encodeStored(NewCell(other).header, payload)
		}
		for name, data := range cases {
			got, err := verifyRecord(data, c)
			want, werr := decodeAndCompare(data, fp)
			if errClass(err) != errClass(werr) {
				t.Fatalf("iter %d, %s: verifyRecord class %s, reference %s (%v)\n%q", iter, name, errClass(err), errClass(werr), werr, data)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("iter %d, %s: verifyRecord payload %q, reference %q", iter, name, got, want)
			}
		}
	}
	t.Logf("%d of 500 records stored folded", folded)
	if folded < 50 {
		t.Errorf("only %d of 500 records were stored folded", folded)
	}
}

// TestFingerprintEqualMatchesCanonical pins Equal's field comparison to
// the canonical strings' truth table, nil and empty thread lists
// included.
func TestFingerprintEqualMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		a := randomFingerprint(rng)
		b := a
		switch rng.Intn(4) {
		case 0:
			b = randomFingerprint(rng)
		case 1:
			b.Threads = append([]int(nil), a.Threads...) // nil stays nil
			if len(b.Threads) > 0 {
				b.Threads[rng.Intn(len(b.Threads))]++
			}
		case 2:
			if len(a.Threads) == 0 {
				b.Threads = []int{}
				if a.Threads != nil {
					b.Threads = nil
				}
			}
		default:
			b.Dims += randomString(rng)
		}
		if got, want := a.Equal(b), a.Canonical() == b.Canonical(); got != want {
			t.Fatalf("iter %d: Equal %t, canonical comparison %t\n%s\nvs\n%s", iter, got, want, a.Canonical(), b.Canonical())
		}
	}
}
