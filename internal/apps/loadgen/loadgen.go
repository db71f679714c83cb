// Package loadgen is the client side of FEX's throughput–latency
// experiments (Figure 7 of the paper): an open-loop load generator that
// offers requests at a fixed rate — independent of completions, so
// saturation shows up as latency growth rather than throttled load — and
// reports achieved throughput plus latency percentiles.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures one measurement interval at one offered rate.
type Config struct {
	// Rate is the offered request rate (requests/second).
	Rate float64
	// Duration is how long to offer load.
	Duration time.Duration
	// MaxInFlight caps concurrently outstanding requests (0 = 4096);
	// dispatches beyond the cap are recorded as dropped, as an overloaded
	// open-loop client would.
	MaxInFlight int
	// Do issues one request; it must be safe for concurrent use.
	Do func(ctx context.Context) error
}

// Result is one point of a throughput–latency curve.
type Result struct {
	// OfferedRate is the configured rate (requests/second).
	OfferedRate float64
	// Throughput is the achieved completion rate (requests/second).
	Throughput float64
	// Latency statistics over successful requests.
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	// Completed, Errors, and Dropped count request outcomes.
	Completed int
	Errors    int
	Dropped   int
}

// Run offers load per cfg and gathers one Result.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Do == nil {
		return Result{}, errors.New("loadgen: no request function")
	}
	if cfg.Rate <= 0 {
		return Result{}, fmt.Errorf("loadgen: rate %v must be positive", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return Result{}, fmt.Errorf("loadgen: duration %v must be positive", cfg.Duration)
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 4096
	}

	deadline := time.Now().Add(cfg.Duration)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		errCount  int
		dropped   int
		inFlight  atomic.Int64
		wg        sync.WaitGroup
	)

	// Token-bucket dispatch: a millisecond tick releases rate×dt request
	// credits, so offered load stays accurate at rates far above the
	// ticker resolution.
	const tick = time.Millisecond
	start := time.Now()
	last := start
	credits := 0.0
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case now := <-ticker.C:
			if now.After(deadline) {
				break loop
			}
			credits += cfg.Rate * now.Sub(last).Seconds()
			last = now
			for credits >= 1 {
				credits--
				if inFlight.Load() >= int64(maxInFlight) {
					mu.Lock()
					dropped++
					mu.Unlock()
					continue
				}
				inFlight.Add(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer inFlight.Add(-1)
					t0 := time.Now()
					err := cfg.Do(ctx)
					lat := time.Since(t0)
					mu.Lock()
					if err != nil {
						errCount++
					} else {
						latencies = append(latencies, lat)
					}
					mu.Unlock()
				}()
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	mu.Lock()
	defer mu.Unlock()
	res := Result{
		OfferedRate: cfg.Rate,
		Completed:   len(latencies),
		Errors:      errCount,
		Dropped:     dropped,
	}
	if elapsed > 0 {
		res.Throughput = float64(len(latencies)) / elapsed.Seconds()
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		res.Mean = sum / time.Duration(len(latencies))
		res.P50 = latencies[len(latencies)*50/100]
		res.P95 = latencies[min(len(latencies)*95/100, len(latencies)-1)]
		res.P99 = latencies[min(len(latencies)*99/100, len(latencies)-1)]
	}
	return res, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// HTTPTarget returns a request function fetching url with a shared
// keep-alive client (the "remote clients fetch a 2K static web-page"
// workload of Figure 7).
func HTTPTarget(url string) func(ctx context.Context) error {
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
		Timeout: 10 * time.Second,
	}
	return func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: status %d", resp.StatusCode)
		}
		return nil
	}
}

// KVTarget returns a request function issuing a get (with one-time set
// priming) against a kvcache server at addr, using a small connection
// pool.
func KVTarget(addr, key string, valueSize int) (func(ctx context.Context) error, func(), error) {
	pool := &connPool{addr: addr}
	// Prime the key.
	conn, err := pool.get()
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: prime %s: %w", addr, err)
	}
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	if _, err := fmt.Fprintf(conn, "set %s %d\r\n%s\r\n", key, len(value), value); err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	pool.put(conn)

	do := func(ctx context.Context) error {
		c, err := pool.get()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(c, "get %s\r\n", key); err != nil {
			_ = c.Close()
			return err
		}
		// Read until the END marker.
		tmp := make([]byte, 4096)
		var acc []byte
		for {
			n, err := c.Read(tmp)
			if err != nil {
				_ = c.Close()
				return err
			}
			acc = append(acc, tmp[:n]...)
			if containsEnd(acc) {
				break
			}
		}
		pool.put(c)
		return nil
	}
	return do, pool.close, nil
}

func containsEnd(b []byte) bool {
	const marker = "END\r\n"
	if len(b) < len(marker) {
		return false
	}
	return string(b[len(b)-len(marker):]) == marker
}

// connPool is a minimal TCP connection pool.
type connPool struct {
	addr string
	mu   sync.Mutex
	idle []net.Conn
	shut bool
}

func (p *connPool) get() (net.Conn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	shut := p.shut
	p.mu.Unlock()
	if shut {
		return nil, errors.New("loadgen: pool closed")
	}
	return net.DialTimeout("tcp", p.addr, 5*time.Second)
}

func (p *connPool) put(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.shut || len(p.idle) >= 64 {
		_ = c.Close()
		return
	}
	p.idle = append(p.idle, c)
}

func (p *connPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shut = true
	for _, c := range p.idle {
		_ = c.Close()
	}
	p.idle = nil
}
